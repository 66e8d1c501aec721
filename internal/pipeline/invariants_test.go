package pipeline

// Tests for the simulation-correctness harness: the per-cycle invariant
// checker (Config.Debug / CheckInvariants / CheckDrained), the obs.Auditor
// reconciliation of the event stream against Stats, and the accounting fixes
// this harness was built to catch — including deliberate re-introductions of
// the occupancy and warmup-residue bugs to prove the harness sees them.

import (
	"strings"
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/isa"
	"tvsched/internal/obs"
	"tvsched/internal/workload"
)

// debugRun simulates a faulty sjeng phase with the invariant checker enabled
// every cycle and the given observer attached from cycle zero.
func debugRun(t *testing.T, cfg Config, o obs.Observer, seed, n uint64) Stats {
	t.Helper()
	cfg.Debug = true
	return observedRun(t, cfg, o, seed, n)
}

// TestDebugInvariantsAllSchemes runs every scheme under both replay styles at
// the high-fault voltage with the per-cycle checker on: any bookkeeping drift
// anywhere in the machine fails the run immediately.
func TestDebugInvariantsAllSchemes(t *testing.T) {
	schemes := []core.Scheme{core.Razor, core.EP, core.ABS, core.FFS, core.CDS}
	for _, sch := range schemes {
		for _, flush := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Scheme = sch
			cfg.FullFlushReplay = flush
			st := debugRun(t, cfg, nil, 1, 5000)
			if st.Committed != 5000 {
				t.Errorf("%v flush=%v: committed %d", sch, flush, st.Committed)
			}
		}
	}
}

// TestCheckInvariantsCatchesCorruption corrupts one bookkeeping structure at
// a time and checks the checker names each violation: the resource counters
// on a drained machine, the event wakeup on one stepped into the middle of a
// load miss (midFlight).
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	drained := func() *Pipeline {
		p, err := New(DefaultConfig(), allALU(), &injector{stage: isa.Execute, everyN: 10}, fault.VNominal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(100); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mid := func() *Pipeline { return midFlight(t) }
	cases := []struct {
		name    string
		build   func() *Pipeline
		corrupt func(p *Pipeline)
		want    string
	}{
		{"phys leak", drained, func(p *Pipeline) { p.freePhys-- }, "phys conservation"},
		{"loads leak", drained, func(p *Pipeline) { p.loads++ }, "loads counter"},
		{"stores leak", drained, func(p *Pipeline) { p.stores++ }, "stores counter"},
		{"storeAt leak", drained, func(p *Pipeline) { p.storeAt = append(p.storeAt, 0x123) }, "storeAt"},
		{"replay credit", drained, func(p *Pipeline) { p.globalFreezeReplay = p.globalFreeze + 1 }, "freeze credit"},
		{"ghost ready entry", mid, func(p *Pipeline) {
			d := &dynInst{seq: 1 << 40}
			d.resetPipelineState()
			p.ready = append(p.ready, d)
		}, "not an unissued ROB entry"},
		{"iq occupancy leak", mid, func(p *Pipeline) { p.iqCount++ }, "unissued"},
		{"lost wakeup (wheel)", mid, func(p *Pipeline) {
			for i, e := range p.wheel {
				if e != nil {
					p.wheel[i] = e.wheelNext
					return
				}
			}
		}, "lost wakeup"},
		{"lost wakeup (chain)", mid, func(p *Pipeline) {
			for i := 0; i < p.robCount; i++ {
				if w := p.rob[(p.robHead+i)%p.cfg.ROBSize]; w.consumers != nil {
					w.consumers = nil
					return
				}
			}
		}, "lost wakeup"},
		{"stale ready entry", mid, func(p *Pipeline) {
			for i := 0; i < p.robCount; i++ {
				if w := p.rob[(p.robHead+i)%p.cfg.ROBSize]; w.consumers != nil {
					p.ready = append(p.ready, w.consumers)
					return
				}
			}
		}, "stale ready entry"},
	}
	for _, c := range cases {
		p := c.build()
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean machine fails: %v", c.name, err)
		}
		c.corrupt(p)
		err := p.CheckInvariants()
		if err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// missSource is a load that misses to memory, a consumer reading it on both
// operands, a second-level consumer, and an independent multiply, repeated.
// Later copies of the load hit the line the first one brought in.
func missSource() *sliceSource {
	insts := []isa.Inst{
		{Class: isa.Load, Dest: 1, Src1: 28, Src2: -1, Addr: 0x9000_0000},
		{Class: isa.IntALU, Dest: 2, Src1: 1, Src2: 1},
		{Class: isa.IntALU, Dest: 3, Src1: 2, Src2: 28},
		{Class: isa.IntMul, Dest: 4, Src1: 28, Src2: 29},
	}
	for i := range insts {
		insts[i].PC = uint64(0x400000 + 4*i)
		insts[i].NextPC = uint64(0x400000 + 4*((i+1)%len(insts)))
	}
	return &sliceSource{insts: insts}
}

// midFlight steps a machine until the first load's miss holds its consumers
// back: one waits on the timing wheel for the load's tag and another in the
// consumer chain of that still-unissued consumer.
func midFlight(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(DefaultConfig(), missSource(), &injector{stage: isa.Execute, everyN: 1 << 60}, fault.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	p.fetchLimit = 1 << 20
	for i := 0; i < 400; i++ {
		p.step()
		onWheel, chained := false, false
		for _, e := range p.wheel {
			onWheel = onWheel || e != nil
		}
		for j := 0; j < p.robCount; j++ {
			chained = chained || p.rob[(p.robHead+j)%p.cfg.ROBSize].consumers != nil
		}
		if onWheel && chained {
			return p
		}
	}
	t.Fatal("no cycle had both a wheel entry and a waiting consumer chain")
	return nil
}

// TestOccupancyStatsMatchEventSeries is the regression test for the
// occupancy-accounting fix: under EP at the high-fault voltage (stall-heavy
// by design) the SumIQOcc/SumROBOcc counters must agree exactly with the
// every-cycle KindSample series, because both now observe every cycle —
// stall cycles included.
func TestOccupancyStatsMatchEventSeries(t *testing.T) {
	var samples, sumIQ, sumROB uint64
	o := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindSample {
			samples++
			sumIQ += e.A
			sumROB += e.B
		}
	})
	cfg := DefaultConfig()
	cfg.Scheme = core.EP
	cfg.SamplePeriod = 1
	st := debugRun(t, cfg, o, 1, 20000)
	if st.GlobalStalls == 0 {
		t.Fatal("EP at the faulty voltage produced no global stalls; nothing exercised")
	}
	if samples != st.Cycles {
		t.Fatalf("%d samples for %d cycles at period 1", samples, st.Cycles)
	}
	if sumIQ != st.SumIQOcc {
		t.Fatalf("event-series IQ occupancy %d, Stats say %d", sumIQ, st.SumIQOcc)
	}
	if sumROB != st.SumROBOcc {
		t.Fatalf("event-series ROB occupancy %d, Stats say %d", sumROB, st.SumROBOcc)
	}
}

// TestAuditorReconcilesRealRuns drives real simulations through the Auditor
// and requires the full reconciliation to pass, across both replay styles and
// the scheme spectrum.
func TestAuditorReconcilesRealRuns(t *testing.T) {
	cases := []struct {
		scheme core.Scheme
		flush  bool
	}{
		{core.ABS, false},
		{core.EP, false},
		{core.Razor, true}, // exercises KindFlush payload reconciliation
		{core.CDS, false},
	}
	for _, c := range cases {
		aud := obs.NewAuditor()
		cfg := DefaultConfig()
		cfg.Scheme = c.scheme
		cfg.FullFlushReplay = c.flush
		cfg.SamplePeriod = 1
		st := debugRun(t, cfg, aud, 1, 20000)
		if err := aud.Reconcile(st.Expected(1)); err != nil {
			t.Errorf("%v flush=%v: %v", c.scheme, c.flush, err)
		}
		if c.flush && st.SquashedInsts == 0 {
			t.Errorf("%v flush=%v: no squashes; flush path not exercised", c.scheme, c.flush)
		}
	}
}

// TestOccupancyBugDetectedByAuditor re-introduces the occupancy bug the
// satellite fix removed — accumulation skipped on global-stall cycles — by
// recomputing the sum the old code would have produced, and checks the
// Auditor rejects it.
func TestOccupancyBugDetectedByAuditor(t *testing.T) {
	aud := obs.NewAuditor()
	robAt := map[uint64]uint64{} // cycle -> sampled ROB occupancy
	stall := map[uint64]bool{}   // cycles the old code skipped
	rec := obs.ObserverFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindSample:
			robAt[e.Cycle] = e.B
		case obs.KindGlobalStall:
			stall[e.Cycle] = true
		}
	})
	cfg := DefaultConfig()
	cfg.Scheme = core.EP
	cfg.SamplePeriod = 1
	st := debugRun(t, cfg, obs.Multi(aud, rec), 1, 20000)
	if st.GlobalStalls == 0 {
		t.Fatal("no global stalls; the old bug would not manifest")
	}

	// The old step() returned from the global-freeze path before accumulating.
	var buggySumROB uint64
	for cyc, occ := range robAt {
		if !stall[cyc] {
			buggySumROB += occ
		}
	}
	if buggySumROB >= st.SumROBOcc {
		t.Fatalf("buggy sum %d not below fixed sum %d; ROB empty through stalls?", buggySumROB, st.SumROBOcc)
	}
	exp := st.Expected(1)
	exp.SumROBOcc = buggySumROB
	if err := aud.Reconcile(exp); err == nil {
		t.Fatal("auditor accepted the stall-cycle-skipping occupancy sum")
	} else if !strings.Contains(err.Error(), "ROB occupancy") {
		t.Fatalf("auditor failed for the wrong reason: %v", err)
	}
}

// TestWarmupClearsPendingIFetch pins the warmup-residue fix directly: the
// icache-stall accumulator is observer-side residue and must not survive the
// stats reset.
func TestWarmupClearsPendingIFetch(t *testing.T) {
	prof := mustProfile(t, "gcc") // large code footprint: icache misses happen
	gen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MispredictRate = prof.MispredictRate
	cfg.Observer = obs.ObserverFunc(func(obs.Event) {})
	p, err := New(cfg, gen, fault.New(fault.DefaultConfig(1)), fault.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate warmup ending mid-icache-stall, then the reset.
	p.pendingIFetch = 42
	if err := p.Warmup(0); err != nil {
		t.Fatal(err)
	}
	if p.pendingIFetch != 0 {
		t.Fatalf("pendingIFetch %d leaked across the warmup reset", p.pendingIFetch)
	}
	// And after a real warmup with fetch traffic, nothing may linger either.
	if err := p.Warmup(20000); err != nil {
		t.Fatal(err)
	}
	if p.pendingIFetch != 0 {
		t.Fatalf("pendingIFetch %d nonzero after real warmup", p.pendingIFetch)
	}
}

// TestWarmupResidueBugDetectedByAuditor re-introduces the residue bug — stale
// pendingIFetch surviving into the measured run — and checks the Auditor's
// icache-stall bound rejects the stream.
func TestWarmupResidueBugDetectedByAuditor(t *testing.T) {
	prof := mustProfile(t, "sjeng")
	gen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MispredictRate = prof.MispredictRate
	cfg.SamplePeriod = 1
	p, err := New(cfg, gen, fault.New(fault.DefaultConfig(1)), fault.VHighFault)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warmup(5000); err != nil {
		t.Fatal(err)
	}
	// The bug: residue accumulated before the reset charged to the first
	// measured fetch. Make it large enough that the charge is unambiguous.
	p.pendingIFetch = 10_000_000
	aud := obs.NewAuditor()
	p.SetObserver(aud)
	st, err := p.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Reconcile(st.Expected(1)); err == nil {
		t.Fatal("auditor accepted stale icache-stall residue")
	} else if !strings.Contains(err.Error(), "icache stall") {
		t.Fatalf("auditor failed for the wrong reason: %v", err)
	}
}

// TestCDLCountsDistinctWaitingConsumers pins the CDS tag-match count of
// §3.5.2 by behaviour: when a producer is selected, the CDL counts the
// distinct consumers waiting in the issue queue on it. A consumer reading it
// on both operands counts once, and consumers renamed after it issued — or
// already granted — are not waiting and do not count.
func TestCDLCountsDistinctWaitingConsumers(t *testing.T) {
	marks := func(ct int, insts []isa.Inst) uint64 {
		t.Helper()
		for i := range insts {
			insts[i].PC = uint64(0x400000 + 4*i)
			insts[i].NextPC = uint64(0x400000 + 4*(i+1))
		}
		cfg := DefaultConfig()
		cfg.Scheme = core.CDS
		cfg.CT = ct
		cfg.Debug = true
		p, err := New(cfg, &sliceSource{insts: insts}, &injector{stage: isa.Execute, everyN: 1 << 60}, fault.VNominal)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(uint64(len(insts)))
		if err != nil {
			t.Fatal(err)
		}
		return st.CriticalMarks
	}

	// r2 waits behind a load miss while three consumers dispatch behind it:
	// one reads r2 on both operands, one on Src1, one on Src2. The load and
	// the consumers have one waiting consumer each, so only r2 can reach a
	// threshold of 3, and it does with three distinct consumers, not four.
	waiting := func() []isa.Inst {
		return []isa.Inst{
			{Class: isa.Load, Dest: 1, Src1: 28, Src2: -1, Addr: 0x9000_0000},
			{Class: isa.IntALU, Dest: 2, Src1: 1, Src2: 28},
			{Class: isa.IntALU, Dest: 3, Src1: 2, Src2: 2},
			{Class: isa.IntALU, Dest: 4, Src1: 2, Src2: 28},
			{Class: isa.IntALU, Dest: 5, Src1: 28, Src2: 2},
			{Class: isa.IntALU, Dest: 6, Src1: 3, Src2: 28},
		}
	}
	if n := marks(3, waiting()); n != 1 {
		t.Errorf("CT=3 with three distinct waiting consumers: %d critical marks, want 1", n)
	}
	if n := marks(4, waiting()); n != 0 {
		t.Errorf("CT=4: %d critical marks, want 0 (a both-operand consumer counts once)", n)
	}

	// A divide issues the cycle after it dispatches, ahead of its consumers
	// in the next dispatch group; they rename while its twelve-cycle result
	// is outstanding, but never waited in the queue for its issue.
	late := []isa.Inst{
		{Class: isa.IntDiv, Dest: 7, Src1: 28, Src2: 29},
		{Class: isa.IntALU, Dest: 20, Src1: 28, Src2: 29},
		{Class: isa.IntALU, Dest: 21, Src1: 28, Src2: 29},
		{Class: isa.IntALU, Dest: 22, Src1: 28, Src2: 29},
		{Class: isa.IntALU, Dest: 8, Src1: 7, Src2: 28},
		{Class: isa.IntALU, Dest: 9, Src1: 7, Src2: 7},
	}
	if n := marks(1, late); n != 0 {
		t.Errorf("consumers renamed after their producer issued counted: %d critical marks, want 0", n)
	}
}

// storeLoadSource mixes stores (with repeated addresses, so the forwarding
// CAM holds multiset counts above one) with loads and ALU work — the resource
// cocktail the flush-replay conservation test needs in flight.
func storeLoadSource() *sliceSource {
	var insts []isa.Inst
	pc := uint64(0x400000)
	add := func(in isa.Inst) {
		in.PC = pc
		pc += 4
		insts = append(insts, in)
	}
	for i := 0; i < 2; i++ {
		add(isa.Inst{Class: isa.Store, Src1: 28, Src2: 1, Addr: 0x1000_0000})
		add(isa.Inst{Class: isa.Store, Src1: 28, Src2: 2, Addr: 0x1000_0040})
		add(isa.Inst{Class: isa.Load, Dest: int8(1 + i), Src1: 28, Src2: -1, Addr: 0x1000_0000})
		add(isa.Inst{Class: isa.IntALU, Dest: int8(3 + i), Src1: 28, Src2: 29})
		add(isa.Inst{Class: isa.IntALU, Dest: int8(5 + i), Src1: 28, Src2: 29})
		add(isa.Inst{Class: isa.Load, Dest: int8(7 + i), Src1: 28, Src2: -1, Addr: 0x1000_0040})
	}
	for i := range insts {
		insts[i].NextPC = insts[(i+1)%len(insts)].PC
	}
	return &sliceSource{insts: insts}
}

// TestFlushReplayResourceConservation is the focused satellite test: under
// full-flush replay every squash must return freePhys, the LSQ counters and
// the storeAt CAM to their pre-dispatch values. The per-cycle checker
// (Debug) validates conservation at every intermediate cycle; the explicit
// checks pin the drained end state.
func TestFlushReplayResourceConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = core.Razor // no TEP: every injected fault replays via flush
	cfg.FullFlushReplay = true
	cfg.Debug = true
	p, err := New(cfg, storeLoadSource(), &injector{stage: isa.Execute, everyN: 7}, fault.VHighFault)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg.NumPhys - isa.NumArchRegs
	if p.freePhys != full || p.loads != 0 || p.stores != 0 || len(p.storeAt) != 0 {
		t.Fatalf("pre-dispatch state not clean: freePhys %d loads %d stores %d storeAt %d",
			p.freePhys, p.loads, p.stores, len(p.storeAt))
	}
	st, err := p.Run(8000)
	if err != nil {
		t.Fatal(err) // Debug: any mid-run conservation break lands here
	}
	if st.Replays == 0 || st.SquashedInsts == 0 {
		t.Fatalf("flush path not exercised: %d replays, %d squashed", st.Replays, st.SquashedInsts)
	}
	if p.freePhys != full {
		t.Errorf("freePhys %d, want %d after drain", p.freePhys, full)
	}
	if p.loads != 0 || p.stores != 0 {
		t.Errorf("LSQ counters not restored: %d loads, %d stores", p.loads, p.stores)
	}
	if len(p.storeAt) != 0 {
		t.Errorf("storeAt CAM holds %d addresses after drain", len(p.storeAt))
	}
	if err := p.CheckDrained(); err != nil {
		t.Errorf("drain check: %v", err)
	}
}

// TestRunContextNoProgressReportsCumulativeTarget pins the error-message fix:
// Committed is cumulative across runs, so the hang diagnostic must report the
// cumulative target, not the current call's n.
func TestRunContextNoProgressReportsCumulativeTarget(t *testing.T) {
	p, err := New(DefaultConfig(), allALU(), &injector{stage: isa.Execute, everyN: 10}, fault.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	// Wedge the machine: a freeze budget far past the no-progress horizon.
	p.globalFreeze = 1 << 30
	_, err = p.Run(5)
	if err == nil {
		t.Fatal("wedged pipeline reported no error")
	}
	if !strings.Contains(err.Error(), "(10/15 committed)") {
		t.Fatalf("error %q does not report progress against the cumulative target 15", err)
	}
}

// TestStoreForwardingTwoStoresOneAddress runs two stores to one address per
// iteration: the first independent, so it leaves the window early, the
// second behind a divide chain, so it stays in flight past the load to that
// address that follows it. The CAM is a multiset: the first store's leaving
// must not take the address out while the second is still in flight, so
// every load forwards and none reaches the D-cache, whose only accesses are
// the stores' commits. The invariant checker compares the CAM with the ROB
// every cycle.
func TestStoreForwardingTwoStoresOneAddress(t *testing.T) {
	const x = 0x1000_0000
	insts := []isa.Inst{
		{Class: isa.Store, Dest: -1, Src1: 28, Src2: -1, Addr: x},
		{Class: isa.IntDiv, Dest: 9, Src1: 9, Src2: -1},
		{Class: isa.Store, Dest: -1, Src1: 28, Src2: 9, Addr: x},
		{Class: isa.Load, Dest: 10, Src1: 28, Src2: -1, Addr: x},
	}
	for i := range insts {
		insts[i].PC = uint64(0x400000 + 4*i)
		insts[i].NextPC = uint64(0x400000 + 4*((i+1)%len(insts)))
	}
	p, err := New(DefaultConfig(), &sliceSource{insts: insts}, fault.New(fault.DefaultConfig(1)), fault.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	p.fetchLimit = 4000
	for p.stats.Committed < p.fetchLimit {
		p.step()
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", p.cycle, err)
		}
		n := 0
		for i := 0; i < p.robCount; i++ {
			if e := p.robAt(i); e.Class == isa.Store && e.Addr == x {
				n++
			}
		}
		most = max(most, n)
	}
	if most < 2 {
		t.Fatalf("at most %d stores to the address were in flight at once, want 2 or more", most)
	}
	st := p.stats
	if acc := p.hier.L1D.Stats.Accesses; acc != st.StoresRetired || st.StoresRetired < 1000 {
		t.Fatalf("D-cache accesses %d, stores retired %d: some of %d loads missed forwarding",
			acc, st.StoresRetired, st.ExecByClass[isa.Load])
	}
}
