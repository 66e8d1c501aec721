package pipeline

// Fault-injection tests: a deterministic FaultOracle drives violations into
// specific stages so each handling path of §2.2/§3.3 is exercised and
// checked in isolation — something the hash-derived production fault model
// cannot guarantee.

import (
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/isa"
)

// injector violates in exactly one stage for every everyN-th dynamic
// instruction whose class passes the filter.
type injector struct {
	stage  isa.Stage
	everyN uint64
}

func (in *injector) Violates(pc uint64, stage isa.Stage, env *fault.Env, seq uint64) bool {
	if stage != in.stage || env.VDD() >= fault.VNominal {
		return false
	}
	return seq%in.everyN == 0
}

func (in *injector) Margin(uint64, isa.Stage) float64 { return 0.95 }

func (in *injector) Stages(uint64, float64) fault.StageMask { return fault.AllStages }

// allALU produces independent single-cycle ALU work.
func allALU() *sliceSource {
	insts := make([]isa.Inst, 16)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:    uint64(0x400000 + 4*i),
			Class: isa.IntALU,
			Dest:  int8(1 + i), Src1: 28, Src2: 29,
			NextPC: uint64(0x400000 + 4*((i+1)%16)),
		}
	}
	return &sliceSource{insts: insts}
}

func allLoads() *sliceSource {
	insts := make([]isa.Inst, 16)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:    uint64(0x400000 + 4*i),
			Class: isa.Load,
			Dest:  int8(1 + i), Src1: 28, Src2: -1,
			Addr:   uint64(0x1000_0000 + 64*i),
			NextPC: uint64(0x400000 + 4*((i+1)%16)),
		}
	}
	return &sliceSource{insts: insts}
}

func runInjected(t *testing.T, scheme core.Scheme, stage isa.Stage, src Source, n uint64) Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	p, err := New(cfg, src, &injector{stage: stage, everyN: 10}, fault.VHighFault)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestInjectIssueStage(t *testing.T) {
	st := runInjected(t, core.ABS, isa.Issue, allALU(), 20000)
	if st.FaultsByStage[isa.Issue] != st.Faults || st.Faults == 0 {
		t.Fatalf("injection missed: %+v", st.FaultsByStage)
	}
	if st.ConfinedEvents == 0 || st.SlotFreezes == 0 {
		t.Fatal("issue-stage faults must confine via slot freezes")
	}
}

func TestInjectIssueVsExecuteSemantics(t *testing.T) {
	// The §3.3.1 reading checked directly: on a serial dependency chain,
	// an issue-stage violation costs only a slot freeze (spare lanes absorb
	// it; the chain keeps its 1-IPC pace), while an execute-stage violation
	// (Figure 2) delays the result itself and halves chain throughput.
	run := func(stage isa.Stage) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = core.ABS
		p, err := New(cfg, chainSource(), &injector{stage: stage, everyN: 1}, fault.VHighFault)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Warmup(2000); err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(10000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	issue := run(isa.Issue)
	exec := run(isa.Execute)
	if ipc := issue.IPC(); ipc < 0.93 {
		t.Fatalf("issue-stage faults on a chain cost %v IPC; slot freeze should be absorbed", ipc)
	}
	if ipc := exec.IPC(); ipc > 0.6 {
		t.Fatalf("execute-stage faults on a chain should halve throughput, IPC %v", ipc)
	}
}

func TestInjectExecuteStage(t *testing.T) {
	st := runInjected(t, core.ABS, isa.Execute, allALU(), 20000)
	if st.FaultsByStage[isa.Execute] != st.Faults || st.Faults == 0 {
		t.Fatal("injection missed execute stage")
	}
	if st.ConfinedEvents == 0 {
		t.Fatal("execute faults must be confined")
	}
	// Figure 2 semantics: the faulty instruction takes an extra cycle. With
	// 10% of independent single-cycle ops delayed, throughput dips but only
	// mildly.
	free := mustRun(t, DefaultConfig(), allALU(), fault.VNominal, 20000)
	if st.IPC() >= free.IPC() {
		t.Fatal("execute-stage faults should cost something")
	}
}

func TestInjectMemoryStage(t *testing.T) {
	st := runInjected(t, core.ABS, isa.Memory, allLoads(), 20000)
	if st.FaultsByStage[isa.Memory] != st.Faults || st.Faults == 0 {
		t.Fatal("injection missed memory stage")
	}
	if st.ConfinedEvents == 0 || st.SlotFreezes == 0 {
		t.Fatal("memory faults must freeze the CAM slot (§3.3.4)")
	}
}

func TestInjectWritebackStage(t *testing.T) {
	st := runInjected(t, core.ABS, isa.Writeback, allALU(), 20000)
	if st.FaultsByStage[isa.Writeback] != st.Faults || st.Faults == 0 {
		t.Fatal("injection missed writeback stage")
	}
	if st.ConfinedEvents == 0 {
		t.Fatal("writeback faults must recirculate the slot (§3.3.5)")
	}
}

func TestInjectRegReadStage(t *testing.T) {
	st := runInjected(t, core.ABS, isa.RegRead, allALU(), 20000)
	if st.FaultsByStage[isa.RegRead] != st.Faults || st.Faults == 0 {
		t.Fatal("injection missed regread stage")
	}
	if st.ConfinedEvents == 0 || st.SlotFreezes == 0 {
		t.Fatal("regread faults must block the read port (§3.3.2)")
	}
}

func TestInjectInOrderStages(t *testing.T) {
	// Rename/dispatch/retire faults take the in-order stall path (§2.2)
	// under the proposed schemes.
	for _, stage := range []isa.Stage{isa.Rename, isa.Dispatch, isa.Retire} {
		st := runInjected(t, core.ABS, stage, allALU(), 10000)
		if st.Faults == 0 {
			t.Fatalf("injection missed %v", stage)
		}
		if st.FrontStalls == 0 {
			t.Fatalf("%v faults must use front-end stalls, got %+v", stage, st)
		}
		if st.ConfinedEvents != 0 {
			t.Fatalf("%v faults must not use OoO confinement", stage)
		}
	}
}

func TestInjectInOrderStagesUnderEP(t *testing.T) {
	for _, stage := range []isa.Stage{isa.Rename, isa.Retire} {
		st := runInjected(t, core.EP, stage, allALU(), 10000)
		if st.GlobalStalls == 0 {
			t.Fatalf("EP must stall globally for %v faults", stage)
		}
	}
}

func TestInjectFetchStage(t *testing.T) {
	// Fetch/decode violations are replay-only in every scheme (§2.2).
	st := runInjected(t, core.ABS, isa.Fetch, allALU(), 10000)
	if st.Faults == 0 || st.Replays == 0 {
		t.Fatalf("fetch faults must replay: %+v", st)
	}
	if st.PredictedFaults != 0 {
		t.Fatal("fetch faults cannot be handled predictively")
	}
}

func TestInjectRazorRepaysAll(t *testing.T) {
	st := runInjected(t, core.Razor, isa.Execute, allALU(), 20000)
	if st.Replays == 0 || st.PredictedFaults != 0 || st.ConfinedEvents != 0 {
		t.Fatalf("Razor must replay everything: %+v", st)
	}
	// Replays are bounded by faults (each instance replays at most once).
	if st.Replays > st.Faults {
		t.Fatalf("replays %d exceed faults %d", st.Replays, st.Faults)
	}
}

func TestInjectEveryInstructionFaulty(t *testing.T) {
	// Stress: 100% fault rate in the issue stage must still complete and
	// stay correct (forward progress with every slot frozen every cycle).
	cfg := DefaultConfig()
	cfg.Scheme = core.ABS
	p, err := New(cfg, allALU(), &injector{stage: isa.Issue, everyN: 1}, fault.VHighFault)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 5000 {
		t.Fatalf("committed %d", st.Committed)
	}
	if st.FaultRate() < 0.99 {
		t.Fatalf("fault rate %v, want ~1", st.FaultRate())
	}
}

func TestInjectedCoverageReachesOne(t *testing.T) {
	// A perfectly periodic faulty PC set is exactly what the TEP learns:
	// after warmup, coverage approaches 1 and replays stop.
	cfg := DefaultConfig()
	cfg.Scheme = core.ABS
	p, err := New(cfg, allALU(), &injector{stage: isa.Execute, everyN: 1}, fault.VHighFault)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warmup(2000); err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	if cov := st.Coverage(); cov < 0.999 {
		t.Fatalf("steady-state coverage %v for fully deterministic faults", cov)
	}
	if st.Replays != 0 {
		t.Fatalf("replays %d after warmup on deterministic faults", st.Replays)
	}
}
