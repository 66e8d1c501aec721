package pipeline

// End-to-end tests of the graceful-degradation supervisor and the hazard
// plumbing: bit-exactness of the disabled paths, worst-window CPI bounding
// under a droop-storm, watchdog recovery from hazard-induced livelock, and
// the obs payload-code mirror.

import (
	"strings"
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/hazard"
	"tvsched/internal/isa"
	"tvsched/internal/obs"
	"tvsched/internal/workload"
)

// TestSupReasonMirrorsCore pins the numeric correspondence between the
// obs.SupReason* payload codes of KindSupervisor.C and core.SupReason (obs
// cannot import core, so the mirror is by convention only).
func TestSupReasonMirrorsCore(t *testing.T) {
	pairs := []struct {
		code uint64
		r    core.SupReason
	}{
		{obs.SupReasonNone, core.SupReasonNone},
		{obs.SupReasonUnpredRate, core.SupReasonUnpredRate},
		{obs.SupReasonPrecision, core.SupReasonPrecision},
		{obs.SupReasonWatchdog, core.SupReasonWatchdog},
		{obs.SupReasonQuiet, core.SupReasonQuiet},
	}
	for _, p := range pairs {
		if p.code != uint64(p.r) {
			t.Errorf("obs payload %d != core.%v (%d)", p.code, p.r, uint64(p.r))
		}
	}
}

func benchPipeline(t *testing.T, bench string, scheme core.Scheme, vdd float64, mutate func(*Config)) *Pipeline {
	t.Helper()
	prof, err := workload.Lookup(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.MispredictRate = prof.MispredictRate
	if mutate != nil {
		mutate(&cfg)
	}
	fc := fault.DefaultConfig(cfg.Seed)
	fc.Bias = prof.FaultBias
	p, err := New(cfg, gen, fault.New(fc), vdd)
	if err != nil {
		t.Fatal(err)
	}
	p.PrefillData(gen.WarmRegion())
	return p
}

// TestEmptyTimelineBitExact: attaching an empty hazard timeline (and,
// separately, enabling the supervisor over a quiet run) must leave every
// statistic bit-identical to the plain machine — the acceptance criterion
// that the whole layer is invisible until a hazard actually fires.
func TestEmptyTimelineBitExact(t *testing.T) {
	run := func(mutate func(*Config), h fault.Hazard) Stats {
		p := benchPipeline(t, "bzip2", core.ABS, fault.VHighFault, mutate)
		if h != nil {
			p.SetHazard(h)
		}
		st, err := p.Run(30000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(nil, nil)
	withEmpty := run(nil, hazard.MustNew(99))
	if base != withEmpty {
		t.Fatalf("empty timeline perturbed the run:\nbase %+v\nwith %+v", base, withEmpty)
	}
	pol := core.DefaultSupervisorPolicy()
	supervised := run(func(c *Config) { c.Supervisor = &pol }, hazard.MustNew(99))
	if supervised.SupEscalations+supervised.SupWatchdogFires != 0 {
		t.Fatalf("supervisor escalated on a quiet run: %+v", supervised)
	}
	// The supervised quiet run must match except for (zero) sup counters.
	if base != supervised {
		t.Fatalf("idle supervisor perturbed the run:\nbase %+v\nsup  %+v", base, supervised)
	}
}

// worstWindowCPI runs n instructions and tracks the worst cycles-per-retire
// ratio over fixed windows via the observer, so the supervised and
// unsupervised machines are measured identically.
func worstWindowCPI(t *testing.T, p *Pipeline, n, window uint64) (worst float64, st Stats) {
	t.Helper()
	var winStart, retires, lastCycle uint64
	started := false
	flush := func(end uint64) {
		cycles := end - winStart
		if cycles == 0 {
			return
		}
		cpi := float64(cycles) / float64(max(retires, 1))
		if cpi > worst {
			worst = cpi
		}
		winStart, retires = end, 0
	}
	p.SetObserver(obs.ObserverFunc(func(e obs.Event) {
		if e.Cycle == 0 {
			return // component-level events (TEP) carry no cycle
		}
		if !started {
			winStart, started = e.Cycle, true
		}
		// Event cycles are not monotone (retire-side events carry earlier
		// stage cycles), so window boundaries track the high-water mark.
		if e.Cycle > lastCycle {
			lastCycle = e.Cycle
		}
		if e.Kind == obs.KindRetire {
			retires++
		}
		if lastCycle-winStart >= window {
			flush(lastCycle)
		}
	}))
	st, err := p.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	flush(lastCycle)
	return worst, st
}

// TestSupervisorBoundsStormCPI is the headline acceptance test: under the
// droop-storm scenario the supervised machine escalates and keeps the worst
// window materially cheaper than the unsupervised machine on the same seed,
// then de-escalates back to the base scheme once the storm passes.
func TestSupervisorBoundsStormCPI(t *testing.T) {
	const n = 170000
	// Storm onset ~cycle 19k (after warmup), peak ~56k-81k, sensor back at
	// ~94k; the ~140k-cycle run leaves room for full de-escalation.
	const horizon = 150000
	sc, err := hazard.Lookup("droop-storm")
	if err != nil {
		t.Fatal(err)
	}
	build := func(mutate func(*Config)) *Pipeline {
		p := benchPipeline(t, "bzip2", core.ABS, fault.VHighFault, mutate)
		p.SetHazard(sc.Build(1, horizon))
		// Warm caches and predictors before the storm arrives, so the worst
		// window reflects hazard handling rather than shared cold-start cost.
		if err := p.Warmup(20000); err != nil {
			t.Fatal(err)
		}
		return p
	}
	worstOff, _ := worstWindowCPI(t, build(nil), n, 5000)
	pol := core.DefaultSupervisorPolicy()
	sup := build(func(c *Config) { c.Supervisor = &pol })
	worstOn, stOn := worstWindowCPI(t, sup, n, 5000)

	if stOn.SupEscalations == 0 {
		t.Fatalf("supervisor never escalated under the droop-storm: %+v", stOn)
	}
	if stOn.SupDeescalations == 0 {
		t.Fatalf("supervisor never de-escalated after the storm passed: %+v", stOn)
	}
	if sup.Supervisor().Level() != 0 {
		t.Fatalf("supervisor still at level %d at run end", sup.Supervisor().Level())
	}
	if got := sup.Env().VDD(); got != fault.VHighFault {
		t.Fatalf("supply not restored after de-escalation: %v", got)
	}
	if worstOn >= 0.75*worstOff {
		t.Fatalf("supervision did not bound worst-window CPI: on=%.3f off=%.3f", worstOn, worstOff)
	}
	t.Logf("worst-window CPI: unsupervised %.3f, supervised %.3f (escalations=%d, deescalations=%d)",
		worstOff, worstOn, stOn.SupEscalations, stOn.SupDeescalations)
}

// retireInjector violates at retire for every everyN-th instruction while
// the supply is below nominal (mirroring the fault model's voltage gate).
type retireInjector struct{ everyN uint64 }

func (in *retireInjector) Violates(pc uint64, stage isa.Stage, env *fault.Env, seq uint64) bool {
	return stage == isa.Retire && env.VDD() < fault.VNominal && seq%in.everyN == 0
}

func (in *retireInjector) Margin(uint64, isa.Stage) float64 { return 0.95 }

func (in *retireInjector) Stages(uint64, float64) fault.StageMask { return fault.AllStages }

// blackoutTimeline is a blackout-class droop shaped for these short unit
// runs: it arrives early and outlasts both the watchdog period and the hard
// 200k no-commit limit, so the only way out below nominal VDD is a supply
// boost. (The curated "blackout" scenario has the same +40% magnitude but
// campaign-scale geometry.)
func blackoutTimeline() *hazard.Timeline {
	return hazard.MustNew(1, hazard.Event{
		Kind: hazard.Droop, Start: 2000, Attack: 100, Hold: 500000, Release: 100,
		Mag: 0.40,
	})
}

// TestWatchdogRecoversFromBlackout: under a blackout droop replay is
// unreliable at 0.97 V, so a retire-stage violation blocks commit forever
// and the unsupervised machine returns the no-progress error. The
// supervised machine's watchdog must fire, boost the supply to VSafe (where
// replay works again), and complete the run.
func TestWatchdogRecoversFromBlackout(t *testing.T) {
	const n = 40000
	build := func(pol *core.SupervisorPolicy) *Pipeline {
		cfg := DefaultConfig()
		cfg.Scheme = core.Razor
		cfg.Supervisor = pol
		p, err := New(cfg, allALU(), &retireInjector{everyN: 400}, fault.VHighFault)
		if err != nil {
			t.Fatal(err)
		}
		p.SetHazard(blackoutTimeline())
		return p
	}

	if _, err := build(nil).Run(n); err == nil {
		t.Fatal("unsupervised blackout run completed; expected the no-progress error")
	} else if !strings.Contains(err.Error(), "no commit") {
		t.Fatalf("unsupervised blackout run failed differently: %v", err)
	}

	pol := core.DefaultSupervisorPolicy()
	// Neutralize the window monitor so the watchdog path is what recovers
	// (otherwise the unpredicted-rate monitor climbs the ladder first).
	pol.EscalateUnpred = 10
	p := build(&pol)
	aud := obs.NewAuditor()
	p.SetObserver(aud)
	st, err := p.Run(n)
	if err != nil {
		t.Fatalf("supervised blackout run did not recover: %v", err)
	}
	if st.Committed < n {
		t.Fatalf("short run: %d/%d committed", st.Committed, n)
	}
	if st.SupWatchdogFires == 0 {
		t.Fatalf("run completed without the watchdog firing: %+v", st)
	}
	if got := p.Env().VDD(); got != pol.VSafe {
		t.Fatalf("watchdog recovery should hold VSafe %v, at %v", pol.VSafe, got)
	}
	if err := aud.Reconcile(st.Expected(64)); err != nil {
		t.Fatalf("auditor reconciliation after watchdog recovery: %v", err)
	}
}

// TestWatchdogBudgetFallsBackToError: with a zero watchdog budget the
// supervised machine degrades to today's behaviour — a hard error.
func TestWatchdogBudgetFallsBackToError(t *testing.T) {
	pol := core.DefaultSupervisorPolicy()
	pol.WatchdogBudget = 0
	pol.EscalateUnpred = 10 // window monitor off: the watchdog is the only recourse
	cfg := DefaultConfig()
	cfg.Scheme = core.Razor
	cfg.Supervisor = &pol
	p, err := New(cfg, allALU(), &retireInjector{everyN: 400}, fault.VHighFault)
	if err != nil {
		t.Fatal(err)
	}
	p.SetHazard(blackoutTimeline())
	if _, err := p.Run(40000); err == nil {
		t.Fatal("zero-budget watchdog run completed")
	} else if !strings.Contains(err.Error(), "watchdog exhausted") {
		t.Fatalf("unexpected failure: %v", err)
	}
}

// TestSupervisorEventChain: every supervisor transition emits a chained
// KindSupervisor event that the Auditor accepts and counts.
func TestSupervisorEventChain(t *testing.T) {
	sc, err := hazard.Lookup("droop-storm")
	if err != nil {
		t.Fatal(err)
	}
	pol := core.DefaultSupervisorPolicy()
	p := benchPipeline(t, "bzip2", core.ABS, fault.VHighFault,
		func(c *Config) { c.Supervisor = &pol })
	p.SetHazard(sc.Build(1, 60000))
	aud := obs.NewAuditor()
	p.SetObserver(aud)
	st, err := p.Run(120000)
	if err != nil {
		t.Fatal(err)
	}
	if st.SupEscalations == 0 {
		t.Fatal("no escalations to audit")
	}
	if err := aud.Reconcile(st.Expected(64)); err != nil {
		t.Fatalf("auditor rejected the supervised stream: %v", err)
	}
	if got := aud.Count(obs.KindSupervisor); got != st.SupEscalations+st.SupDeescalations+st.SupWatchdogFires {
		t.Fatalf("supervisor events %d vs transitions %d", got,
			st.SupEscalations+st.SupDeescalations+st.SupWatchdogFires)
	}
}

// TestWarmupResetsSupervision: escalations during warmup must not leak into
// the measured phase — after warmup the machine is back at the base rung
// with zeroed supervisor counters.
func TestWarmupResetsSupervision(t *testing.T) {
	sc, err := hazard.Lookup("droop-storm")
	if err != nil {
		t.Fatal(err)
	}
	pol := core.DefaultSupervisorPolicy()
	p := benchPipeline(t, "bzip2", core.ABS, fault.VHighFault,
		func(c *Config) { c.Supervisor = &pol })
	// Storm early so warmup absorbs it.
	p.SetHazard(sc.Build(1, 30000))
	if err := p.Warmup(60000); err != nil {
		t.Fatal(err)
	}
	if p.Supervisor().Transitions() != 0 || p.Supervisor().Level() != 0 {
		t.Fatalf("supervision leaked across warmup: level=%d transitions=%d",
			p.Supervisor().Level(), p.Supervisor().Transitions())
	}
	if p.Scheme() != core.ABS {
		t.Fatalf("scheme %v after warmup reset, want ABS", p.Scheme())
	}
	st, err := p.Run(30000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 30000 {
		t.Fatalf("measured run short: %+v", st.Committed)
	}
}
