// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and the supplement): Table 1 (fault rates and Razor/EP
// overheads), Figures 4/5 (performance and ED overhead of ABS/FFS/CDS
// normalized to EP at 1.04 V), Figures 8/9 (the same at 0.97 V), Table 2
// (VTE area/power overhead), Table 3 (synthesized component characteristics)
// and Figure 7 (sensitized-path commonality). It is the engine behind
// cmd/tvbench and the root bench_test.go.
package experiments

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"tvsched/internal/core"
	"tvsched/internal/energy"
	"tvsched/internal/fault"
	"tvsched/internal/obs"
	"tvsched/internal/pipeline"
	"tvsched/internal/sim"
	"tvsched/internal/workload"
)

// Config parameterizes a reproduction run.
type Config struct {
	// Insts is the committed-instruction count per simulated phase. The
	// paper uses 1M-instruction SimPoint phases; smaller counts run faster
	// with slightly noisier averages.
	Insts uint64
	// Warmup is the number of committed instructions simulated (after an L2
	// working-set prefill) before measurement begins.
	Warmup uint64
	// Seed drives all deterministic randomness.
	Seed uint64
	// Parallel runs independent simulations across CPUs. Results are
	// identical either way.
	Parallel bool
	// Observer, when non-nil, receives the event stream of every simulation
	// this config drives (warmup included). With Parallel set, simulations
	// run concurrently and all share this observer, so it must be safe for
	// concurrent use — obs.Metrics is; obs.ChromeTracer is too, though
	// interleaved-run traces are rarely what you want. Observers that also
	// implement obs.Sharder (Metrics, CPIStack, and Multi over them) get a
	// private lock-free shard per simulation, flushed into the parent when
	// the simulation ends — the hot Event path then never contends. Excluded
	// from JSON reports (it is machinery, not a result parameter).
	Observer obs.Observer `json:"-"`
	// Debug enables the pipeline's per-cycle invariant checker and end-of-run
	// drain check (pipeline.Config.Debug) on every simulation this config
	// drives. Roughly an order of magnitude slower; meant for correctness
	// sweeps (cmd/tvfuzz), not measurement runs.
	Debug bool
}

// DefaultConfig returns a configuration sized for interactive use: 300k
// measured instructions per phase. Pass Insts: 1e6 for paper-scale phases.
func DefaultConfig() Config {
	return Config{Insts: 300000, Warmup: 50000, Seed: 1, Parallel: true}
}

// Run is one simulation outcome.
type Run struct {
	Bench  string
	Scheme core.Scheme
	VDD    float64
	Stats  pipeline.Stats
	Energy energy.Result
}

// PerfOverhead returns r's relative IPC degradation versus base.
func (r *Run) PerfOverhead(base *Run) float64 {
	if r.Stats.IPC() == 0 {
		return 0
	}
	ov := base.Stats.IPC()/r.Stats.IPC() - 1
	if ov < 0 {
		return 0 // measurement noise on sub-permille overheads
	}
	return ov
}

// EDOverhead returns r's relative energy-delay degradation versus base.
func (r *Run) EDOverhead(base *Run) float64 {
	ov := energy.Overhead(r.Energy, base.Energy)
	if ov < 0 {
		return 0
	}
	return ov
}

// Simulate runs one (benchmark, scheme, voltage) combination as a single
// measured phase.
func Simulate(bench string, scheme core.Scheme, vdd float64, cfg Config) (Run, error) {
	return SimulateContext(context.Background(), bench, scheme, vdd, cfg)
}

// SimulateContext is Simulate with cancellation: the simulation stops within
// 256 simulated cycles of ctx being done and returns the context's error.
func SimulateContext(ctx context.Context, bench string, scheme core.Scheme, vdd float64, cfg Config) (Run, error) {
	observer := cfg.Observer
	if s, ok := cfg.Observer.(obs.Sharder); ok {
		sh := s.Shard()
		observer = sh
		defer sh.Flush()
	}
	sess, err := sim.New(sim.Config{
		Benchmark: bench,
		Scheme:    scheme,
		VDD:       vdd,
		Warmup:    cfg.Warmup,
		Seed:      cfg.Seed,
		Observer:  observer,
		Debug:     cfg.Debug,
	})
	if err != nil {
		return Run{}, err
	}
	if err := sess.Warmup(ctx); err != nil {
		return Run{}, err
	}
	st, err := sess.Run(ctx, cfg.Insts)
	if err != nil {
		return Run{}, err
	}
	return Run{
		Bench:  bench,
		Scheme: scheme,
		VDD:    vdd,
		Stats:  st,
		Energy: energy.Compute(energy.Default45nm(), &st),
	}, nil
}

type runKey struct {
	bench  string
	scheme core.Scheme
	vdd    float64
}

// Suite memoizes simulation runs so Table 1 and the four figures share them.
type Suite struct {
	cfg  Config
	ctx  context.Context
	mu   sync.Mutex
	runs map[runKey]Run
}

// NewSuite builds an empty suite.
func NewSuite(cfg Config) *Suite {
	return NewSuiteContext(context.Background(), cfg)
}

// NewSuiteContext builds an empty suite whose simulations run under ctx:
// cancel it and every in-flight and future simulation returns the context's
// error. The context is stored because the suite memoizes lazily — table and
// figure methods simulate on first use, long after construction.
func NewSuiteContext(ctx context.Context, cfg Config) *Suite {
	return &Suite{cfg: cfg, ctx: ctx, runs: make(map[runKey]Run)}
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// get returns the memoized run for key, simulating on first use.
func (s *Suite) get(k runKey) (Run, error) {
	s.mu.Lock()
	r, ok := s.runs[k]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := SimulateContext(s.ctx, k.bench, k.scheme, k.vdd, s.cfg)
	if err != nil {
		return Run{}, err
	}
	s.mu.Lock()
	s.runs[k] = r
	s.mu.Unlock()
	return r, nil
}

// prefetch simulates the given combinations, in parallel when configured.
func (s *Suite) prefetch(keys []runKey) error {
	// Drop already-memoized keys.
	s.mu.Lock()
	var todo []runKey
	for _, k := range keys {
		if _, ok := s.runs[k]; !ok {
			todo = append(todo, k)
		}
	}
	s.mu.Unlock()
	if len(todo) == 0 {
		return nil
	}
	workers := 1
	if s.cfg.Parallel {
		workers = runtime.GOMAXPROCS(0)
		if workers > len(todo) {
			workers = len(todo)
		}
	}
	var (
		wg   sync.WaitGroup
		next int
		nmu  sync.Mutex
		errs []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := s.ctx.Err(); err != nil {
					nmu.Lock()
					errs = append(errs, err)
					nmu.Unlock()
					return
				}
				nmu.Lock()
				if next >= len(todo) {
					nmu.Unlock()
					return
				}
				k := todo[next]
				next++
				nmu.Unlock()
				if _, err := s.get(k); err != nil {
					nmu.Lock()
					errs = append(errs, err)
					nmu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// faultFree returns the fault-free baseline run for bench (age-based
// selection at the nominal supply, §4.2).
func (s *Suite) faultFree(bench string) (Run, error) {
	return s.get(runKey{bench, core.ABS, fault.VNominal})
}

// benches returns the Table 1 benchmark list.
func benches() []string { return workload.Names() }

// keysFor enumerates the combinations the full evaluation needs.
func keysFor(schemes []core.Scheme, vdds []float64) []runKey {
	var keys []runKey
	for _, b := range benches() {
		keys = append(keys, runKey{b, core.ABS, fault.VNominal})
		for _, v := range vdds {
			for _, sch := range schemes {
				keys = append(keys, runKey{b, sch, v})
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bench != keys[j].bench {
			return keys[i].bench < keys[j].bench
		}
		if keys[i].scheme != keys[j].scheme {
			return keys[i].scheme < keys[j].scheme
		}
		return keys[i].vdd < keys[j].vdd
	})
	return keys
}
