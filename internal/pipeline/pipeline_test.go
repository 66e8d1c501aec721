package pipeline

import (
	"reflect"
	"testing"
	"unsafe"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/isa"
	"tvsched/internal/rng"
	"tvsched/internal/workload"
)

// sliceSource replays a fixed instruction slice, cycling if exhausted.
type sliceSource struct {
	insts []isa.Inst
	pos   int
}

func (s *sliceSource) Next() isa.Inst {
	in := s.insts[s.pos%len(s.insts)]
	s.pos++
	return in
}

// chainSource produces an infinite serial dependency chain of ALU ops.
func chainSource() *sliceSource {
	return &sliceSource{insts: []isa.Inst{
		{PC: 0x400000, Class: isa.IntALU, Dest: 1, Src1: 1, Src2: -1, NextPC: 0x400004},
		{PC: 0x400004, Class: isa.IntALU, Dest: 1, Src1: 1, Src2: -1, NextPC: 0x400000},
	}}
}

// independentSource produces fully independent ALU ops.
func independentSource() *sliceSource {
	insts := make([]isa.Inst, 8)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:    uint64(0x400000 + 4*i),
			Class: isa.IntALU,
			Dest:  int8(1 + i), Src1: 28, Src2: 29,
			NextPC: uint64(0x400000 + 4*((i+1)%8)),
		}
	}
	return &sliceSource{insts: insts}
}

func mustRun(t *testing.T, cfg Config, src Source, vdd float64, n uint64) Stats {
	t.Helper()
	m := fault.New(fault.DefaultConfig(cfg.Seed))
	p, err := New(cfg, src, m, vdd)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSerialChainIPC(t *testing.T) {
	// A strict dependency chain of single-cycle ALU ops commits at most one
	// instruction per cycle (back-to-back wakeup), so IPC ~= 1.
	cfg := DefaultConfig()
	st := mustRun(t, cfg, chainSource(), fault.VNominal, 20000)
	if ipc := st.IPC(); ipc < 0.85 || ipc > 1.02 {
		t.Fatalf("serial chain IPC = %v, want ~1", ipc)
	}
}

func TestIndependentOpsBoundByLanes(t *testing.T) {
	// Independent single-cycle ALU ops are bounded by the three simple-ALU
	// lanes, not by the 4-wide front end.
	cfg := DefaultConfig()
	st := mustRun(t, cfg, independentSource(), fault.VNominal, 20000)
	if ipc := st.IPC(); ipc < 2.7 || ipc > 3.05 {
		t.Fatalf("independent ALU IPC = %v, want ~3 (three simple lanes)", ipc)
	}
}

func TestMoreLanesRaiseThroughput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimpleALUs = 5
	st := mustRun(t, cfg, independentSource(), fault.VNominal, 20000)
	if ipc := st.IPC(); ipc < 3.3 {
		t.Fatalf("4 simple lanes IPC = %v, want ~4", ipc)
	}
}

func TestNominalVoltageNoFaults(t *testing.T) {
	cfg := DefaultConfig()
	gen, err := workload.NewGenerator(mustProfile(t, "bzip2"), 3)
	if err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, cfg, gen, fault.VNominal, 30000)
	if st.Faults != 0 || st.Replays != 0 || st.GlobalStalls != 0 {
		t.Fatalf("faults at nominal voltage: %+v", st)
	}
	if st.Committed != 30000 {
		t.Fatalf("committed %d", st.Committed)
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return p
}

func runBench(t *testing.T, name string, scheme core.Scheme, vdd float64, n uint64) Stats {
	t.Helper()
	prof := mustProfile(t, name)
	gen, err := workload.NewGenerator(prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.MispredictRate = prof.MispredictRate
	cfg.Seed = 7
	fc := fault.DefaultConfig(7)
	fc.Bias = prof.FaultBias
	p, err := New(cfg, gen, fault.New(fc), vdd)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFaultRatesAtFaultyVoltages(t *testing.T) {
	low := runBench(t, "bzip2", core.ABS, fault.VLowFault, 40000)
	high := runBench(t, "bzip2", core.ABS, fault.VHighFault, 40000)
	if low.Faults == 0 || high.Faults == 0 {
		t.Fatal("no faults in faulty environments")
	}
	if fr := low.FaultRate(); fr < 0.005 || fr > 0.05 {
		t.Fatalf("low-voltage fault rate %v out of band", fr)
	}
	if fr := high.FaultRate(); fr < 0.03 || fr > 0.16 {
		t.Fatalf("high-fault-rate %v out of band", fr)
	}
	if high.FaultRate() <= low.FaultRate() {
		t.Fatal("fault rate must rise as voltage drops")
	}
}

func TestTEPCoverageHigh(t *testing.T) {
	// The premise of the paper: PC-indexed prediction catches the vast
	// majority of violations after warmup.
	st := runBench(t, "bzip2", core.ABS, fault.VHighFault, 60000)
	if cov := st.Coverage(); cov < 0.80 {
		t.Fatalf("TEP coverage %v, want > 0.80 (predicted %d / faults %d, replays %d)",
			cov, st.PredictedFaults, st.Faults, st.Replays)
	}
}

func TestRazorRepaysEverything(t *testing.T) {
	st := runBench(t, "bzip2", core.Razor, fault.VHighFault, 30000)
	if st.PredictedFaults != 0 {
		t.Fatal("Razor must not predict")
	}
	if st.Replays == 0 {
		t.Fatal("Razor must replay on faults")
	}
	// Every non-averted fault replays; replay count should be near the
	// fault count (fetch/decode faults are bubbles counted as replays too).
	if st.Replays < st.Faults/2 {
		t.Fatalf("Razor replays %d << faults %d", st.Replays, st.Faults)
	}
}

func TestEPStallsGlobally(t *testing.T) {
	st := runBench(t, "bzip2", core.EP, fault.VHighFault, 30000)
	if st.GlobalStalls == 0 {
		t.Fatal("EP produced no global stalls")
	}
	if st.ConfinedEvents != 0 {
		t.Fatal("EP must not use confined handling")
	}
}

func TestVTEConfines(t *testing.T) {
	st := runBench(t, "bzip2", core.ABS, fault.VHighFault, 30000)
	if st.ConfinedEvents == 0 {
		t.Fatal("ABS produced no confined events")
	}
	// The only whole-pipeline stalls a confined scheme takes are replay
	// recovery bubbles for unpredicted violations — never per-fault padding.
	if st.GlobalStalls > st.Replays*uint64(DefaultConfig().ReplayBubble) {
		t.Fatalf("ABS global stalls %d exceed replay recovery bubbles (%d replays)",
			st.GlobalStalls, st.Replays)
	}
	if st.SlotFreezes == 0 {
		t.Fatal("VTE must freeze issue slots for faulty instructions")
	}
}

func TestSchemeOverheadOrdering(t *testing.T) {
	// The paper's headline: IPC(fault-free) >= IPC(VTE) > IPC(EP) > IPC(Razor)
	// in a faulty environment.
	n := uint64(60000)
	free := runBench(t, "bzip2", core.ABS, fault.VNominal, n)
	abs := runBench(t, "bzip2", core.ABS, fault.VHighFault, n)
	ep := runBench(t, "bzip2", core.EP, fault.VHighFault, n)
	razor := runBench(t, "bzip2", core.Razor, fault.VHighFault, n)

	if !(free.IPC() >= abs.IPC()*0.999) {
		t.Fatalf("fault-free IPC %v below ABS faulty IPC %v", free.IPC(), abs.IPC())
	}
	if !(abs.IPC() > ep.IPC()) {
		t.Fatalf("ABS IPC %v not above EP IPC %v", abs.IPC(), ep.IPC())
	}
	if !(ep.IPC() > razor.IPC()) {
		t.Fatalf("EP IPC %v not above Razor IPC %v", ep.IPC(), razor.IPC())
	}

	// And the headline magnitude: VTE eliminates most of EP's overhead.
	ovEP := free.IPC()/ep.IPC() - 1
	ovABS := free.IPC()/abs.IPC() - 1
	if ovABS > ovEP*0.6 {
		t.Fatalf("ABS overhead %v not well below EP overhead %v", ovABS, ovEP)
	}
}

func TestCDSMarksCriticality(t *testing.T) {
	st := runBench(t, "sjeng", core.CDS, fault.VHighFault, 40000)
	if st.CriticalMarks == 0 {
		t.Fatal("CDS never marked a critical instruction")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runBench(t, "gcc", core.FFS, fault.VLowFault, 20000)
	b := runBench(t, "gcc", core.FFS, fault.VLowFault, 20000)
	if a != b {
		t.Fatalf("simulation not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestBranchMispredictsCostCycles(t *testing.T) {
	prof := mustProfile(t, "bzip2")
	gen, _ := workload.NewGenerator(prof, 5)
	cfg := DefaultConfig()
	cfg.MispredictRate = 0
	base := mustRun(t, cfg, gen, fault.VNominal, 30000)

	gen2, _ := workload.NewGenerator(prof, 5)
	cfg2 := DefaultConfig()
	cfg2.MispredictRate = 0.05
	noisy := mustRun(t, cfg2, gen2, fault.VNominal, 30000)

	if noisy.BranchMispredicts == 0 {
		t.Fatal("no mispredicts recorded")
	}
	if noisy.IPC() >= base.IPC() {
		t.Fatalf("mispredicts did not cost cycles: %v vs %v", noisy.IPC(), base.IPC())
	}
}

func TestMemoryBoundWorkloadLowIPC(t *testing.T) {
	// mcf-like: cold pointer chasing must produce much lower IPC than a
	// cache-resident ILP-rich workload.
	mcf := runBench(t, "mcf", core.ABS, fault.VNominal, 30000)
	povray := runBench(t, "povray", core.ABS, fault.VNominal, 30000)
	if mcf.IPC() >= povray.IPC() {
		t.Fatalf("mcf IPC %v not below povray IPC %v", mcf.IPC(), povray.IPC())
	}
	if mcf.L1D.MissRate() <= povray.L1D.MissRate() {
		t.Fatalf("mcf L1D miss rate %v not above povray %v",
			mcf.L1D.MissRate(), povray.L1D.MissRate())
	}
}

func TestStatsInvariants(t *testing.T) {
	st := runBench(t, "astar", core.FFS, fault.VHighFault, 30000)
	if st.Committed != 30000 {
		t.Fatalf("committed %d", st.Committed)
	}
	if st.Fetched < st.Committed {
		t.Fatal("fetched fewer than committed")
	}
	if st.Dispatched < st.Committed {
		t.Fatal("dispatched fewer than committed")
	}
	if st.Selected < st.Committed {
		t.Fatal("selected fewer than committed")
	}
	if st.PredictedFaults+st.FalsePositives == 0 {
		t.Fatal("no TEP activity at high fault rate")
	}
	var sum uint64
	for _, c := range st.FaultsByStage {
		sum += c
	}
	if sum != st.Faults {
		t.Fatalf("per-stage fault counts %d != total %d", sum, st.Faults)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Width = 0
	if _, err := New(bad, chainSource(), fault.New(fault.DefaultConfig(1)), fault.VNominal); err == nil {
		t.Fatal("invalid config accepted")
	}
	bad2 := DefaultConfig()
	bad2.NumPhys = 16
	if err := bad2.Validate(); err == nil {
		t.Fatal("too-few physical registers accepted")
	}
}

func TestLoadLatencyVisible(t *testing.T) {
	// A chain of dependent loads (each missing to memory) must be far slower
	// than a chain of dependent ALU ops.
	loads := make([]isa.Inst, 64)
	for i := range loads {
		loads[i] = isa.Inst{
			PC:    uint64(0x400000 + 4*i),
			Class: isa.Load,
			Dest:  int8(1 + i%26), Src1: int8(1 + (i+25)%26), Src2: -1,
			Addr:   uint64(0x8000_0000 + i*1<<20), // all cold lines
			NextPC: uint64(0x400000 + 4*((i+1)%64)),
		}
	}
	cfg := DefaultConfig()
	st := mustRun(t, cfg, &sliceSource{insts: loads}, fault.VNominal, 2000)
	if ipc := st.IPC(); ipc > 0.2 {
		t.Fatalf("dependent cold loads IPC %v, expected memory-bound crawl", ipc)
	}
}

func BenchmarkPipelineFaultFree(b *testing.B) {
	prof, _ := workload.ByName("bzip2")
	gen, _ := workload.NewGenerator(prof, 1)
	cfg := DefaultConfig()
	cfg.MispredictRate = prof.MispredictRate
	p, _ := New(cfg, gen, fault.New(fault.DefaultConfig(1)), fault.VNominal)
	b.ResetTimer()
	if _, err := p.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPipelineFaulty(b *testing.B) {
	prof, _ := workload.ByName("bzip2")
	gen, _ := workload.NewGenerator(prof, 1)
	cfg := DefaultConfig()
	cfg.Scheme = core.ABS
	cfg.MispredictRate = prof.MispredictRate
	fc := fault.DefaultConfig(1)
	fc.Bias = prof.FaultBias
	p, _ := New(cfg, gen, fault.New(fc), fault.VHighFault)
	b.ResetTimer()
	if _, err := p.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func TestFullFlushReplayCostsMore(t *testing.T) {
	// The ablation behind DESIGN.md's replay decision: architectural
	// (flush-and-refetch) recovery costs clearly more than selective
	// replay under Razor, where every violation replays.
	run := func(fullFlush bool) Stats {
		prof := mustProfile(t, "bzip2")
		gen, _ := workload.NewGenerator(prof, 7)
		cfg := DefaultConfig()
		cfg.Scheme = core.Razor
		cfg.MispredictRate = prof.MispredictRate
		cfg.FullFlushReplay = fullFlush
		cfg.Seed = 7
		fc := fault.DefaultConfig(7)
		fc.Bias = prof.FaultBias
		p, err := New(cfg, gen, fault.New(fc), fault.VHighFault)
		if err != nil {
			t.Fatal(err)
		}
		p.PrefillData(gen.WarmRegion())
		if err := p.Warmup(15000); err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(40000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sel := run(false)
	full := run(true)
	if full.Replays == 0 || full.SquashedInsts == 0 {
		t.Fatalf("full flush did not squash: %+v", full)
	}
	if sel.SquashedInsts != 0 {
		t.Fatal("selective replay must not squash")
	}
	if full.IPC() >= sel.IPC() {
		t.Fatalf("full flush IPC %v not below selective %v", full.IPC(), sel.IPC())
	}
}

func TestFullFlushDeterministic(t *testing.T) {
	run := func() Stats {
		prof := mustProfile(t, "gcc")
		gen, _ := workload.NewGenerator(prof, 3)
		cfg := DefaultConfig()
		cfg.Scheme = core.ABS
		cfg.MispredictRate = prof.MispredictRate
		cfg.FullFlushReplay = true
		cfg.Seed = 3
		fc := fault.DefaultConfig(3)
		fc.Bias = prof.FaultBias
		p, _ := New(cfg, gen, fault.New(fc), fault.VHighFault)
		st, err := p.Run(30000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("full-flush runs diverge:\n%+v\n%+v", a, b)
	}
}

func TestFullFlushCommitsExactly(t *testing.T) {
	prof := mustProfile(t, "sjeng")
	gen, _ := workload.NewGenerator(prof, 9)
	cfg := DefaultConfig()
	cfg.Scheme = core.Razor
	cfg.MispredictRate = prof.MispredictRate
	cfg.FullFlushReplay = true
	cfg.Seed = 9
	fc := fault.DefaultConfig(9)
	fc.Bias = prof.FaultBias
	p, _ := New(cfg, gen, fault.New(fc), fault.VHighFault)
	st, err := p.Run(25000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 25000 {
		t.Fatalf("committed %d", st.Committed)
	}
	// Re-fetched instructions inflate Fetched beyond Committed.
	if st.Fetched <= st.Committed {
		t.Fatal("flush recovery must re-fetch squashed instructions")
	}
}

func TestConfigPresetsValid(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), LittleConfig(), BigConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestMachineWidthOrdersIPC(t *testing.T) {
	// Wider machines extract more ILP from the same trace.
	ipc := func(cfg Config) float64 {
		prof := mustProfile(t, "sjeng")
		gen, _ := workload.NewGenerator(prof, 11)
		cfg.MispredictRate = prof.MispredictRate
		p, err := New(cfg, gen, fault.New(fault.DefaultConfig(11)), fault.VNominal)
		if err != nil {
			t.Fatal(err)
		}
		p.PrefillData(gen.WarmRegion())
		if err := p.Warmup(15000); err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(40000)
		if err != nil {
			t.Fatal(err)
		}
		return st.IPC()
	}
	little, core1, big := ipc(LittleConfig()), ipc(DefaultConfig()), ipc(BigConfig())
	if !(little < core1 && core1 < big) {
		t.Fatalf("width scaling broken: little=%.3f core1=%.3f big=%.3f", little, core1, big)
	}
}

// TestRandomizedInvariants runs many small simulations across random
// (scheme, voltage, seed, benchmark) combinations and checks the invariants
// that must hold universally.
func TestRandomizedInvariants(t *testing.T) {
	src := rng.New(99)
	names := workload.Names()
	for trial := 0; trial < 24; trial++ {
		name := names[src.Intn(len(names))]
		prof := mustProfile(t, name)
		scheme := core.Scheme(src.Intn(int(core.NumSchemes)))
		vdd := []float64{fault.VNominal, fault.VLowFault, fault.VHighFault}[src.Intn(3)]
		seed := src.Uint64()

		gen, err := workload.NewGenerator(prof, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.MispredictRate = prof.MispredictRate
		cfg.Seed = seed
		cfg.FullFlushReplay = src.Bool(0.3)
		fc := fault.DefaultConfig(seed)
		fc.Bias = prof.FaultBias
		p, err := New(cfg, gen, fault.New(fc), vdd)
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(4000 + src.Intn(8000))
		st, err := p.Run(n)
		if err != nil {
			t.Fatalf("%s/%v@%.2f seed=%d: %v", name, scheme, vdd, seed, err)
		}

		if st.Committed != n {
			t.Fatalf("committed %d != %d", st.Committed, n)
		}
		if st.Cycles == 0 || st.IPC() <= 0 || st.IPC() > float64(cfg.Width) {
			t.Fatalf("IPC %v out of range", st.IPC())
		}
		if st.Fetched < st.Committed || st.Dispatched < st.Committed || st.Selected < st.Committed {
			t.Fatalf("pipeline stage counts below committed: %+v", st)
		}
		if c := st.Coverage(); c < 0 || c > 1 {
			t.Fatalf("coverage %v", c)
		}
		if vdd >= fault.VNominal && st.Faults != 0 {
			t.Fatalf("faults at nominal voltage: %d", st.Faults)
		}
		if scheme == core.Razor && st.PredictedFaults != 0 {
			t.Fatal("Razor predicted")
		}
		if !scheme.Confined() && st.ConfinedEvents != 0 {
			t.Fatalf("%v produced confined events", scheme)
		}
		var byStage uint64
		for _, c := range st.FaultsByStage {
			byStage += c
		}
		if byStage != st.Faults {
			t.Fatalf("stage fault counts inconsistent: %d vs %d", byStage, st.Faults)
		}
		if st.PredictedFaults+st.Mispredicted > st.Faults {
			t.Fatalf("handled faults %d exceed total %d",
				st.PredictedFaults+st.Mispredicted, st.Faults)
		}
	}
}

// TestDynInstInitSetsEveryField fills a record with nonzero garbage in every
// field, as a recycled one may hold, and requires init to leave exactly what
// a fresh record given the instruction's identity and reset would: init
// assigns field by field, so a field it forgets would leak from the record's
// previous instruction.
func TestDynInstInitSetsEveryField(t *testing.T) {
	in := isa.Inst{PC: 0x400010, Class: isa.Load, Dest: 3, Src1: 4, Src2: 5, Addr: 0x1000_0040,
		Taken: true, Target: 0x400100, NextPC: 0x400014}
	want := dynInst{seq: 77, PC: in.PC, Addr: in.Addr, Class: in.Class, Dest: in.Dest, Src1: in.Src1, Src2: in.Src2}
	want.resetPipelineState()

	var got dynInst
	v := reflect.ValueOf(&got).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := reflect.NewAt(v.Field(i).Type(), unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		fill(f)
	}
	got.init(77, &in)
	if got != want {
		t.Fatalf("init left\n%+v\nwant\n%+v", got, want)
	}
}

// fill sets v, and every element or field of it, to a nonzero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}
