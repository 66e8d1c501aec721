// Command tvfuzz is a seeded differential fuzzer for the simulator itself.
// It sweeps randomized machine configurations (widths, queue and window
// sizes, lane counts, replay styles, all five handling schemes, all three
// studied voltages) crossed with randomized workload profiles, and runs each
// with the pipeline's invariant checker (Config.Debug) and the event-stream
// auditor (obs.Auditor) enabled. Per case it checks:
//
//   - the run completes: every per-cycle invariant holds and the machine
//     drains at the end (Config.Debug)
//   - the event stream reconciles against the Stats counters (obs.Auditor)
//   - bit-exact determinism: rebuilding the same case and rerunning yields
//     identical Stats
//   - scheme confinement: Razor never predicts or freezes, only EP pads the
//     whole pipeline, only confined schemes (ABS/FFS/CDS) pad the in-order
//     engine or confine violations, only CDS marks criticality
//
// A third of the cases additionally attach a random survivable hazard
// timeline (hazard.Random: droops, storms, sensor faults whose combined delay
// stays under the replay limit), and a subset of those enable the
// graceful-degradation supervisor; both must still complete, reconcile and
// rerun bit-identically. Scheme-confinement checks are skipped only for
// supervised cases, whose scheme legitimately changes at runtime.
//
// A rotating subset of cases additionally checks cross-scheme properties:
//
//   - at the fault-free nominal voltage all five schemes produce identical
//     Stats (modulo CDS's criticality marks, which fire without faults)
//   - a warm snapshot round-trips: a machine restored from SnapshotState
//     bytes runs on to Stats bit-identical to the donor that produced them
//   - across the whole sweep, ABS spends no more aggregate cycles than EP on
//     the same work at the same faulty voltage (the paper's headline
//     ordering; per-case ordering is not guaranteed, the aggregate is)
//   - attaching an empty hazard timeline (with the supervisor disabled) is
//     bit-identical to attaching none — the hazard hook costs nothing when
//     quiet
//
// Everything is derived deterministically from -seed, so a reported failure
// reproduces with -seed <s> -only <index>.
//
// Usage:
//
//	tvfuzz -n 200 -seed 1          # the CI smoke sweep
//	tvfuzz -n 5000 -insts 20000    # a longer soak
//	tvfuzz -seed 1 -only 137 -v    # reproduce one failing case
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/hazard"
	"tvsched/internal/obs"
	"tvsched/internal/pipeline"
	"tvsched/internal/rng"
	"tvsched/internal/workload"
)

func main() {
	var (
		n     = flag.Int("n", 200, "number of fuzz cases")
		seed  = flag.Uint64("seed", 1, "sweep seed; every case derives from it")
		insts = flag.Uint64("insts", 6000, "nominal committed instructions per run (cases draw 1/2x..3/2x)")
		only  = flag.Int("only", -1, "run a single case index (for reproducing failures)")
		verb  = flag.Bool("v", false, "print every case as it runs")
	)
	flag.Parse()

	start := time.Now()
	indices := make(chan int)
	var (
		mu       sync.Mutex
		failures []string
		runs     int
		sweeps   int
		pairs    int
		idents   int
		trips    int
		hazarded int
		absCyc   uint64
		epCyc    uint64
	)
	report := func(idx int, spec caseSpec, err error) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, fmt.Sprintf(
			"case %d (seed %d): %v\n  scheme=%v vdd=%.2f insts=%d warmup=%d profile=%s hazardSeed=%d supervised=%v\n  config: %+v",
			idx, *seed, err, spec.cfg.Scheme, spec.vdd, spec.insts, spec.warmup, spec.prof.Name,
			spec.hazardSeed, spec.supervised, spec.cfg))
	}

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range indices {
				spec := randomCase(rng.New(*seed).Derive(uint64(idx)), *insts)
				if *verb {
					fmt.Printf("case %4d: %-5v vdd=%.2f W=%d rob=%d iq=%d phys=%d flush=%v hz=%v sup=%v %s\n",
						idx, spec.cfg.Scheme, spec.vdd, spec.cfg.Width, spec.cfg.ROBSize,
						spec.cfg.IQSize, spec.cfg.NumPhys, spec.cfg.FullFlushReplay,
						spec.hazardSeed != 0, spec.supervised, spec.prof.Name)
				}
				if err := runCase(spec); err != nil {
					report(idx, spec, err)
					continue
				}
				mu.Lock()
				runs++
				if spec.hazardSeed != 0 {
					hazarded++
				}
				mu.Unlock()

				// Rotating extras: a fault-free cross-scheme sweep every
				// 8th case, a snapshot round-trip every 8th, an
				// empty-timeline identity check every 8th, an ABS-vs-EP
				// pair at a faulty voltage every 4th (offsets chosen so a
				// case never runs two).
				switch {
				case idx%8 == 0:
					if err := nominalSweep(spec); err != nil {
						report(idx, spec, err)
						continue
					}
					mu.Lock()
					sweeps++
					mu.Unlock()
				case idx%8 == 1:
					if err := snapshotRoundTrip(spec); err != nil {
						report(idx, spec, err)
						continue
					}
					mu.Lock()
					trips++
					mu.Unlock()
				case idx%8 == 4:
					if err := emptyTimelineIdentity(spec); err != nil {
						report(idx, spec, err)
						continue
					}
					mu.Lock()
					idents++
					mu.Unlock()
				case idx%4 == 2:
					a, e, err := overheadPair(spec)
					if err != nil {
						report(idx, spec, err)
						continue
					}
					mu.Lock()
					pairs++
					absCyc += a
					epCyc += e
					mu.Unlock()
				}
			}
		}()
	}
	if *only >= 0 {
		indices <- *only
	} else {
		for i := 0; i < *n; i++ {
			indices <- i
		}
	}
	close(indices)
	wg.Wait()

	if pairs > 0 && absCyc > epCyc {
		failures = append(failures, fmt.Sprintf(
			"aggregate over %d ABS/EP pairs: ABS spent %d cycles, EP %d — ABS must not cost more than global padding",
			pairs, absCyc, epCyc))
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL: "+f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "tvfuzz: %d failure(s) in %v\n", len(failures), time.Since(start).Round(time.Millisecond))
		os.Exit(1)
	}
	fmt.Printf("tvfuzz: %d cases ok (%d hazarded, %d nominal sweeps, %d snapshot round-trips, %d empty-timeline identities, %d ABS/EP pairs, ABS/EP cycles %d/%d) in %v\n",
		runs, hazarded, sweeps, trips, idents, pairs, absCyc, epCyc, time.Since(start).Round(time.Millisecond))
}

// caseSpec is one point in the fuzzed configuration space. Everything needed
// to rebuild the exact same machine twice.
type caseSpec struct {
	cfg    pipeline.Config
	prof   workload.Profile
	vdd    float64
	insts  uint64
	warmup uint64 // 0 means no warmup phase
	seed   uint64

	// hazardSeed, when nonzero, attaches hazard.Random(hazardSeed, horizon)
	// — a survivable transient timeline rebuilt identically on the
	// determinism rerun. supervised additionally enables the
	// graceful-degradation supervisor with the default policy.
	hazardSeed uint64
	horizon    uint64
	supervised bool
}

// randomCase draws a machine configuration, workload and operating point
// from r. Every knob stays inside Config.Validate's bounds; the ranges
// deliberately include degenerate machines (1-wide, 33 physical registers,
// 2-entry issue queue) the curated experiments never build.
func randomCase(r *rng.Source, insts uint64) caseSpec {
	cfg := pipeline.DefaultConfig()
	cfg.Width = 1 + r.Intn(6)
	cfg.FrontDepth = 1 + r.Intn(8)
	cfg.FrontQ = cfg.Width + r.Intn(3*cfg.Width+1)
	cfg.ROBSize = 8 + r.Intn(185)
	cfg.IQSize = 2 + r.Intn(63) // ≤ 64: the 6-bit age counter's window
	cfg.LQSize = 2 + r.Intn(31)
	cfg.SQSize = 2 + r.Intn(23)
	cfg.NumPhys = 33 + r.Intn(160)
	cfg.SimpleALUs = 1 + r.Intn(4)
	cfg.ComplexALUs = 1 + r.Intn(2)
	cfg.MemPorts = 1 + r.Intn(2)
	cfg.ReplayBubble = r.Intn(6)
	cfg.ReplayLatency = 1 + r.Intn(12)
	cfg.FullFlushReplay = r.Bool(0.3)
	cfg.Scheme = core.Scheme(r.Intn(int(core.NumSchemes)))
	cfg.CT = 1 + r.Intn(16)
	cfg.SamplePeriod = 1 // exact occupancy reconciliation
	cfg.Seed = r.Uint64()

	var prof workload.Profile
	if names := workload.Names(); r.Bool(0.5) {
		prof, _ = workload.Lookup(names[r.Intn(len(names))])
	} else {
		prof = workload.RandomProfile(r)
	}
	cfg.MispredictRate = prof.MispredictRate

	vdd := [...]float64{fault.VNominal, fault.VLowFault, fault.VHighFault}[r.Intn(3)]
	spec := caseSpec{
		cfg:   cfg,
		prof:  prof,
		vdd:   vdd,
		insts: insts/2 + r.Uint64n(insts),
		seed:  r.Uint64(),
	}
	if r.Bool(0.4) {
		spec.warmup = spec.insts / 4
	}
	if r.Bool(0.35) {
		spec.hazardSeed = r.Uint64() | 1 // nonzero marks the hazard on
		spec.horizon = 4 * spec.insts    // covers the run at any plausible CPI
		spec.supervised = r.Bool(0.4)
	}
	return spec
}

// build constructs the pipeline for spec, with the given debug setting and
// observer. The construction is a pure function of spec, which is what makes
// the determinism check meaningful.
func build(spec caseSpec, debug bool, o obs.Observer) (*pipeline.Pipeline, error) {
	gen, err := workload.NewGenerator(spec.prof, spec.seed)
	if err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	fc := fault.DefaultConfig(spec.seed)
	fc.Bias = spec.prof.FaultBias
	cfg := spec.cfg
	cfg.Debug = debug
	cfg.Observer = o
	if spec.supervised {
		pol := core.DefaultSupervisorPolicy()
		cfg.Supervisor = &pol
	}
	p, err := pipeline.New(cfg, gen, fault.New(fc), spec.vdd)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if spec.hazardSeed != 0 {
		p.SetHazard(hazard.Random(rng.New(spec.hazardSeed), spec.horizon))
	}
	p.PrefillData(gen.WarmRegion())
	return p, nil
}

// execute runs spec on p, honoring its warmup phase; aud (may be nil) is
// reset at the warmup boundary so it covers exactly the measured cycles.
func execute(p *pipeline.Pipeline, spec caseSpec, aud *obs.Auditor) (pipeline.Stats, error) {
	if spec.warmup > 0 {
		if err := p.Warmup(spec.warmup); err != nil {
			return pipeline.Stats{}, fmt.Errorf("warmup: %w", err)
		}
		if aud != nil {
			aud.Reset()
		}
	}
	return p.Run(spec.insts)
}

// runCase runs one fuzz case end to end: an audited debug run, counter
// reconciliation, the scheme-confinement properties, and a determinism rerun.
func runCase(spec caseSpec) error {
	aud := obs.NewAuditor()
	p, err := build(spec, true, aud)
	if err != nil {
		return err
	}
	st, err := execute(p, spec, aud)
	if err != nil {
		return err
	}
	if err := aud.Reconcile(st.Expected(spec.cfg.SamplePeriod)); err != nil {
		return err
	}
	// Confinement is a property of a fixed scheme; a supervised machine
	// escalates through other schemes at runtime, so only the completion,
	// reconciliation and determinism contracts apply to it.
	if !spec.supervised {
		if err := schemeProperties(spec, st, aud); err != nil {
			return err
		}
	}

	// Determinism: rebuild from the same spec (debug off — invariant checks
	// read but never write machine state, and the rerun must reproduce the
	// fast path users actually run) and require bit-identical Stats.
	p2, err := build(spec, false, nil)
	if err != nil {
		return err
	}
	st2, err := execute(p2, spec, nil)
	if err != nil {
		return fmt.Errorf("determinism rerun: %w", err)
	}
	if st != st2 {
		return fmt.Errorf("nondeterministic: same spec, different stats\n  first:  %+v\n  second: %+v", st, st2)
	}
	return nil
}

// schemeProperties asserts the confinement contract of each handling scheme
// against both the counters and the auditor's stall-cause split.
func schemeProperties(spec caseSpec, st pipeline.Stats, aud *obs.Auditor) error {
	s := spec.cfg.Scheme
	padGlobal, _ := aud.GlobalStallCauses()
	padFront, _ := aud.FrontStallCauses()

	if s == core.Razor {
		if v := st.PredictedFaults + st.FalsePositives; v != 0 {
			return fmt.Errorf("razor predicted %d violations: razor has no TEP", v)
		}
		// Razor slot freezes exist (the errant instruction holds its lane
		// while replaying through the faulty stage) but only ride on
		// replays, at most one per replay.
		if st.SlotFreezes > st.Replays {
			return fmt.Errorf("razor froze %d slots for %d replays: razor freezes only to replay", st.SlotFreezes, st.Replays)
		}
	}
	if s != core.EP && padGlobal != 0 {
		return fmt.Errorf("%v padded the whole pipeline %d cycles: only EP stalls globally on predictions", s, padGlobal)
	}
	if !s.Confined() {
		if padFront != 0 {
			return fmt.Errorf("%v padded the in-order engine %d cycles: only confined schemes do", s, padFront)
		}
		if st.ConfinedEvents != 0 {
			return fmt.Errorf("%v confined %d violations: only ABS/FFS/CDS confine", s, st.ConfinedEvents)
		}
	}
	if s != core.CDS && st.CriticalMarks != 0 {
		return fmt.Errorf("%v stored %d criticality marks: only CDS runs the CDL", s, st.CriticalMarks)
	}
	// A hazard's delay stretch or tail inflation can push even the nominal
	// supply into violation; the fault-free-baseline property only applies
	// to the stationary environment.
	if spec.vdd >= fault.VNominal && spec.hazardSeed == 0 && st.Faults != 0 {
		return fmt.Errorf("%d faults at the nominal %.2f V: the baseline must be fault-free", st.Faults, spec.vdd)
	}
	return nil
}

// nominalSweep runs spec's machine and workload at the fault-free nominal
// voltage under all five schemes and requires identical Stats. With zero
// faults no handling machinery may engage, so the scheme must be perfectly
// transparent — except CDS's criticality marks, which fire on issue-queue
// fan-out alone and are zeroed before comparison.
func nominalSweep(spec caseSpec) error {
	spec.vdd = fault.VNominal
	spec.hazardSeed, spec.supervised = 0, false // stationary environment only
	var base pipeline.Stats
	var baseScheme core.Scheme
	for s := core.Scheme(0); s < core.NumSchemes; s++ {
		spec.cfg.Scheme = s
		p, err := build(spec, false, nil)
		if err != nil {
			return err
		}
		st, err := execute(p, spec, nil)
		if err != nil {
			return fmt.Errorf("nominal sweep %v: %w", s, err)
		}
		st.CriticalMarks = 0
		if s == 0 {
			base, baseScheme = st, s
			continue
		}
		if st != base {
			return fmt.Errorf("fault-free run differs between %v and %v:\n  %v: %+v\n  %v: %+v",
				baseScheme, s, baseScheme, base, s, st)
		}
	}
	return nil
}

// snapshotRoundTrip is the checkpoint/restore property: warm a machine,
// serialize it with SnapshotState, restore the bytes into a freshly built
// twin, and run both to completion — the restored machine must reach Stats
// bit-identical to its donor. Hazards and the supervisor are stripped
// (snapshots refuse both) and a warmup phase is forced so the snapshot
// captures genuinely warm state across the whole randomized geometry space.
func snapshotRoundTrip(spec caseSpec) error {
	spec.hazardSeed, spec.supervised = 0, false
	if spec.warmup == 0 {
		spec.warmup = spec.insts / 4
	}
	donor, err := build(spec, false, nil)
	if err != nil {
		return err
	}
	if err := donor.Warmup(spec.warmup); err != nil {
		return fmt.Errorf("snapshot round-trip: warmup: %w", err)
	}
	blob, err := donor.SnapshotState()
	if err != nil {
		return fmt.Errorf("snapshot round-trip: snapshot: %w", err)
	}
	if len(blob) != cap(blob) {
		return fmt.Errorf("snapshot round-trip: %d snapshot bytes in a buffer of %d: a component's StateLen is off", len(blob), cap(blob))
	}
	stDonor, err := donor.Run(spec.insts)
	if err != nil {
		return fmt.Errorf("snapshot round-trip: donor run: %w", err)
	}
	restored, err := build(spec, false, nil)
	if err != nil {
		return err
	}
	if err := restored.RestoreState(blob); err != nil {
		return fmt.Errorf("snapshot round-trip: restore: %w", err)
	}
	stRestored, err := restored.Run(spec.insts)
	if err != nil {
		return fmt.Errorf("snapshot round-trip: restored run: %w", err)
	}
	if stDonor != stRestored {
		return fmt.Errorf("restored machine diverged from its donor:\n  donor:    %+v\n  restored: %+v", stDonor, stRestored)
	}
	return nil
}

// emptyTimelineIdentity pins the zero-cost contract of the hazard hook: a
// machine with an explicitly attached empty timeline (and the supervisor
// disabled) must produce Stats bit-identical to one with no hazard attached
// at all.
func emptyTimelineIdentity(spec caseSpec) error {
	spec.hazardSeed, spec.supervised = 0, false
	bare, err := build(spec, false, nil)
	if err != nil {
		return err
	}
	stBare, err := execute(bare, spec, nil)
	if err != nil {
		return fmt.Errorf("empty-timeline identity (bare): %w", err)
	}
	hooked, err := build(spec, false, nil)
	if err != nil {
		return err
	}
	hooked.SetHazard(hazard.MustNew(spec.seed))
	stHooked, err := execute(hooked, spec, nil)
	if err != nil {
		return fmt.Errorf("empty-timeline identity (hooked): %w", err)
	}
	if stBare != stHooked {
		return fmt.Errorf("empty hazard timeline perturbed the run:\n  bare:   %+v\n  hooked: %+v", stBare, stHooked)
	}
	return nil
}

// overheadPair runs spec's machine and workload under ABS and EP at a faulty
// voltage and returns both cycle counts. The caller accumulates them: the
// paper's ordering (ABS overhead ≤ EP overhead) holds in aggregate, not
// necessarily per case.
func overheadPair(spec caseSpec) (absCycles, epCycles uint64, err error) {
	if spec.vdd >= fault.VNominal {
		spec.vdd = fault.VHighFault
	}
	spec.hazardSeed, spec.supervised = 0, false // the ordering is stationary
	for _, s := range [...]core.Scheme{core.ABS, core.EP} {
		spec.cfg.Scheme = s
		p, err := build(spec, false, nil)
		if err != nil {
			return 0, 0, err
		}
		st, err := execute(p, spec, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("overhead pair %v: %w", s, err)
		}
		if s == core.ABS {
			absCycles = st.Cycles
		} else {
			epCycles = st.Cycles
		}
	}
	return absCycles, epCycles, nil
}
