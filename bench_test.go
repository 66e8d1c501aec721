package tvsched_test

// One benchmark per table and figure of the paper. Each bench regenerates
// its artifact end-to-end (workload generation, pipeline simulation, energy
// accounting, or gate-level analysis) and reports the headline quantity as a
// custom metric, so `go test -bench=.` doubles as a compact reproduction
// run. cmd/tvbench prints the full rows; EXPERIMENTS.md records the
// paper-vs-measured comparison at full scale.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tvsched"
	"tvsched/internal/core"
	"tvsched/internal/experiments"
	"tvsched/internal/fault"
	"tvsched/internal/pipeline"
	"tvsched/internal/sensitize"
	"tvsched/internal/ssta"
	"tvsched/internal/tep"
	"tvsched/internal/workload"
)

// benchCfg sizes the architectural benches: large enough for stable shapes,
// small enough that the full bench suite completes in minutes.
func benchCfg() experiments.Config {
	return experiments.Config{Insts: 60000, Warmup: 20000, Seed: 1, Parallel: true}
}

// BenchmarkTable1 regenerates Table 1: per-benchmark fault rates and
// Razor/EP overheads in both faulty environments.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg())
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		var avgEP float64
		for _, r := range rows {
			avgEP += r.EPHigh.Perf
		}
		b.ReportMetric(avgEP/float64(len(rows)), "avg-EP-ov-%@0.97V")
	}
}

func benchFigure(b *testing.B, fn func(*experiments.Suite) (experiments.FigureData, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg())
		fig, err := fn(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Reduction(), "overhead-reduction-%")
	}
}

// BenchmarkFigure4 regenerates Figure 4: performance overhead of ABS/FFS/CDS
// normalized to EP at 1.04 V (paper: 87% average reduction).
func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, (*experiments.Suite).Figure4)
}

// BenchmarkFigure5 regenerates Figure 5: ED overhead normalized to EP at
// 1.04 V (paper: 82% average reduction).
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, (*experiments.Suite).Figure5)
}

// BenchmarkFigure8 regenerates Figure 8: performance overhead normalized to
// EP at 0.97 V (paper: 88% average reduction).
func BenchmarkFigure8(b *testing.B) {
	benchFigure(b, (*experiments.Suite).Figure8)
}

// BenchmarkFigure9 regenerates Figure 9: ED overhead normalized to EP at
// 0.97 V (paper: 83% average reduction).
func BenchmarkFigure9(b *testing.B) {
	benchFigure(b, (*experiments.Suite).Figure9)
}

// BenchmarkTable2 regenerates Table 2: area/power overhead of the VTE from
// the structural scheduler and core model.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		b.ReportMetric(rows[2].SchedArea, "CDS-sched-area-%")
	}
}

// BenchmarkTable3 regenerates Table 3: gate counts and logic depths of the
// four synthesized components.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		b.ReportMetric(float64(rows[1].Gates), "alu-gates")
	}
}

// BenchmarkFigure7 regenerates Figure 7: sensitized-path commonality of the
// six SPEC2000 benchmarks on the four components (paper averages
// 87.4/89/92.4/90%).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure7(1)
		b.ReportMetric(100*d.Averages[sensitize.CompALU], "ALU-commonality-%")
	}
}

// BenchmarkAblationCT sweeps the CDL criticality threshold around the
// paper's best value (CT=8, §3.5.2) on the CDS scheme.
func BenchmarkAblationCT(b *testing.B) {
	prof, _ := workload.ByName("sjeng")
	for _, ct := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("CT%d", ct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewGenerator(prof, 1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Scheme = core.CDS
				cfg.CT = ct
				cfg.MispredictRate = prof.MispredictRate
				fc := fault.DefaultConfig(1)
				fc.Bias = prof.FaultBias
				p, err := pipeline.New(cfg, gen, fault.New(fc), fault.VHighFault)
				if err != nil {
					b.Fatal(err)
				}
				p.PrefillData(gen.WarmRegion())
				if err := p.Warmup(15000); err != nil {
					b.Fatal(err)
				}
				st, err := p.Run(50000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(st.IPC(), "IPC")
				b.ReportMetric(float64(st.CriticalMarks), "critical-marks")
			}
		})
	}
}

// BenchmarkAblationTEP sweeps the TEP geometry: coverage is what the
// violation-aware schemes live on, and both capacity (aliasing) and history
// bits (contexts per PC) move it.
func BenchmarkAblationTEP(b *testing.B) {
	prof, _ := workload.ByName("gcc")
	cases := []struct {
		name string
		cfg  tep.Config
	}{
		{"256x2", tep.Config{Entries: 256, HistoryBits: 2}},
		{"1024x4", tep.Config{Entries: 1024, HistoryBits: 4}},
		{"4096x2", tep.Config{Entries: 4096, HistoryBits: 2}},
		{"4096x8", tep.Config{Entries: 4096, HistoryBits: 8}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewGenerator(prof, 1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Scheme = core.ABS
				cfg.TEP = tc.cfg
				cfg.MispredictRate = prof.MispredictRate
				fc := fault.DefaultConfig(1)
				fc.Bias = prof.FaultBias
				p, err := pipeline.New(cfg, gen, fault.New(fc), fault.VHighFault)
				if err != nil {
					b.Fatal(err)
				}
				p.PrefillData(gen.WarmRegion())
				if err := p.Warmup(15000); err != nil {
					b.Fatal(err)
				}
				st, err := p.Run(50000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*st.Coverage(), "coverage-%")
			}
		})
	}
}

// BenchmarkPipelineThroughput measures raw simulator speed (instructions
// per wall-clock second drive how large a phase is practical).
func BenchmarkPipelineThroughput(b *testing.B) {
	prof, _ := workload.ByName("bzip2")
	gen, _ := workload.NewGenerator(prof, 1)
	cfg := pipeline.DefaultConfig()
	cfg.MispredictRate = prof.MispredictRate
	p, _ := pipeline.New(cfg, gen, fault.New(fault.DefaultConfig(1)), fault.VHighFault)
	b.ResetTimer()
	if _, err := p.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObserverOverhead quantifies the observability layer's cost on the
// simulator hot loop in a fault-heavy run: "disabled" is the shipping
// default (nil observer, the fast path every emission site guards with),
// "noop" pays event construction and an indirect call per event, "metrics"
// additionally aggregates into the registry, and "chrometrace" records for
// export.
func BenchmarkObserverOverhead(b *testing.B) {
	cases := []struct {
		name string
		mk   func() tvsched.Observer
	}{
		{"disabled", func() tvsched.Observer { return nil }},
		{"noop", func() tvsched.Observer { return tvsched.ObserverFunc(func(tvsched.Event) {}) }},
		{"metrics", func() tvsched.Observer { return tvsched.NewMetrics() }},
		{"chrometrace", func() tvsched.Observer { return tvsched.NewChromeTracer() }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.Observer = tc.mk()
			p, _ := productionPipeline(b, cfg, "bzip2")
			b.ResetTimer()
			if _, err := p.Run(uint64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestObserverDisabledOverheadGuard pins the zero-overhead-when-disabled
// contract of internal/obs: a run with no observer must cost no more than
// the same run with a no-op observer attached, which executes a strict
// superset of its work (every emission site constructs an Event and makes
// an indirect call). If the nil fast path ever stops short-circuiting that
// work, the two times converge and the budget below trips. Min-of-trials
// filters scheduler noise; 2% is the design budget (DESIGN.md).
func TestObserverDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive in -short mode")
	}
	prof, _ := workload.ByName("bzip2")
	once := func(o tvsched.Observer) time.Duration {
		gen, err := workload.NewGenerator(prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := pipeline.DefaultConfig()
		cfg.MispredictRate = prof.MispredictRate
		cfg.Observer = o
		fc := fault.DefaultConfig(1)
		fc.Bias = prof.FaultBias
		p, err := pipeline.New(cfg, gen, fault.New(fc), fault.VHighFault)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Warmup(5000); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := p.Run(40000); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	noop := tvsched.ObserverFunc(func(tvsched.Event) {})
	disabled, attached := time.Duration(1<<62), time.Duration(1<<62)
	for trial := 0; trial < 5; trial++ {
		if d := once(nil); d < disabled {
			disabled = d
		}
		if d := once(noop); d < attached {
			attached = d
		}
	}
	if float64(disabled) > 1.02*float64(attached)+float64(2*time.Millisecond) {
		t.Errorf("disabled observer run %v slower than instrumented run %v: nil fast path broken",
			disabled, attached)
	}
}

// BenchmarkSSTA measures the Monte-Carlo timing analysis on the largest
// component.
func BenchmarkSSTA(b *testing.B) {
	nl := sensitize.CompALU.Netlist()
	for i := 0; i < b.N; i++ {
		r := ssta.Analyze(nl, ssta.DefaultVariation(), fault.VHighFault, 10, uint64(i))
		_ = r.MuPlus2Sigma()
	}
}

// BenchmarkAblationReplay compares the two unpredicted-violation recovery
// mechanisms (DESIGN.md §7): selective RazorII-style in-place replay vs
// architectural flush-and-refetch, under Razor where every violation
// replays.
func BenchmarkAblationReplay(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "selective"
		if full {
			name = "fullflush"
		}
		b.Run(name, func(b *testing.B) {
			prof, _ := workload.ByName("bzip2")
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewGenerator(prof, 1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Scheme = core.Razor
				cfg.MispredictRate = prof.MispredictRate
				cfg.FullFlushReplay = full
				fc := fault.DefaultConfig(1)
				fc.Bias = prof.FaultBias
				p, err := pipeline.New(cfg, gen, fault.New(fc), fault.VHighFault)
				if err != nil {
					b.Fatal(err)
				}
				p.PrefillData(gen.WarmRegion())
				if err := p.Warmup(15000); err != nil {
					b.Fatal(err)
				}
				st, err := p.Run(50000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(st.IPC(), "IPC")
				b.ReportMetric(float64(st.SquashedInsts), "squashed")
			}
		})
	}
}

// BenchmarkAblationWidth measures how the VTE's overhead reduction scales
// with machine width: narrower machines have less architectural slack to
// absorb confined violations, so the ABS-vs-EP gap should narrow on the
// little core and widen on the big one.
func BenchmarkAblationWidth(b *testing.B) {
	prof, _ := workload.ByName("bzip2")
	cfgs := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"little2wide", pipeline.LittleConfig()},
		{"core1-4wide", pipeline.DefaultConfig()},
		{"big6wide", pipeline.BigConfig()},
	}
	for _, tc := range cfgs {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := func(scheme core.Scheme, vdd float64) float64 {
					gen, err := workload.NewGenerator(prof, 1)
					if err != nil {
						b.Fatal(err)
					}
					cfg := tc.cfg
					cfg.Scheme = scheme
					cfg.MispredictRate = prof.MispredictRate
					fc := fault.DefaultConfig(1)
					fc.Bias = prof.FaultBias
					p, err := pipeline.New(cfg, gen, fault.New(fc), vdd)
					if err != nil {
						b.Fatal(err)
					}
					p.PrefillData(gen.WarmRegion())
					if err := p.Warmup(15000); err != nil {
						b.Fatal(err)
					}
					st, err := p.Run(50000)
					if err != nil {
						b.Fatal(err)
					}
					return st.IPC()
				}
				free := ipc(core.ABS, fault.VNominal)
				ep := free/ipc(core.EP, fault.VHighFault) - 1
				abs := free/ipc(core.ABS, fault.VHighFault) - 1
				if ep > 0 {
					b.ReportMetric(100*(1-abs/ep), "overhead-reduction-%")
				}
			}
		})
	}
}

// BenchmarkAblationPredictor compares the paper's table TEP against the
// perceptron extension inside the full pipeline, reporting end-to-end
// violation coverage.
func BenchmarkAblationPredictor(b *testing.B) {
	prof, _ := workload.ByName("gcc")
	cases := []struct {
		name string
		mk   func() tep.Predictor
	}{
		{"tableTEP", nil},
		{"perceptron", func() tep.Predictor { return tep.NewPerceptron(tep.DefaultPerceptronConfig()) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewGenerator(prof, 1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Scheme = core.ABS
				cfg.MispredictRate = prof.MispredictRate
				if tc.mk != nil {
					cfg.NewPredictor = tc.mk
				}
				fc := fault.DefaultConfig(1)
				fc.Bias = prof.FaultBias
				p, err := pipeline.New(cfg, gen, fault.New(fc), fault.VHighFault)
				if err != nil {
					b.Fatal(err)
				}
				p.PrefillData(gen.WarmRegion())
				if err := p.Warmup(15000); err != nil {
					b.Fatal(err)
				}
				st, err := p.Run(50000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*st.Coverage(), "coverage-%")
				b.ReportMetric(st.IPC(), "IPC")
			}
		})
	}
}

// sweepBenchCells is the cell grid of the checkpointed-sweep benches below:
// all five handling schemes at both faulty supplies over one benchmark and
// seed — the same geometry the served campaign bench (cmd/tvload
// -campaignbench) times at full scale, shrunk so the pair completes in seconds.
// Every cell shares one warm state, which is what makes a single checkpoint
// serve all ten.
func sweepBenchCells() []tvsched.Config {
	var cells []tvsched.Config
	for _, scheme := range []tvsched.Scheme{tvsched.Razor, tvsched.EP, tvsched.ABS, tvsched.FFS, tvsched.CDS} {
		for _, vdd := range []float64{tvsched.VLowFault, tvsched.VHighFault} {
			cells = append(cells, tvsched.Config{
				Benchmark:    "bzip2",
				Scheme:       scheme,
				VDD:          vdd,
				Warmup:       60000,
				Instructions: 4000,
				Seed:         1,
			})
		}
	}
	return cells
}

// BenchmarkSweepCold times a scheme×voltage sweep the pre-Session way: every
// cell pays its own neutral warmup before measuring. The warmup dominates by
// construction (60k warm / 4k measured), so this is the denominator of the
// checkpoint speedup EXPERIMENTS.md records.
func BenchmarkSweepCold(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, cfg := range sweepBenchCells() {
			sess, err := tvsched.NewSession(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := sess.WarmupNeutral(ctx); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Run(ctx, tvsched.RunOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepWarm times the same sweep checkpointed: one donor session
// pays the neutral warmup and snapshots it, and every cell restores those
// bytes instead of warming — the served sweep path in miniature.
func BenchmarkSweepWarm(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		cells := sweepBenchCells()
		donor, err := tvsched.NewSession(cells[0])
		if err != nil {
			b.Fatal(err)
		}
		if err := donor.WarmupNeutral(ctx); err != nil {
			b.Fatal(err)
		}
		snap, err := donor.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cells {
			sess, err := tvsched.NewSession(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := sess.Restore(snap); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Run(ctx, tvsched.RunOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCycleLoop times the observer-off simulator hot loop per committed
// instruction and reports per-cycle cost and the allocation count — the
// zero-alloc contract internal/pipeline/alloc_test.go pins shows up here as
// 0 allocs/op.
func BenchmarkCycleLoop(b *testing.B) {
	p, gen := productionPipeline(b, pipeline.DefaultConfig(), "bzip2")
	p.PrefillData(gen.WarmRegion())
	if err := p.Warmup(10000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	st, err := p.Run(uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed())/float64(st.Cycles), "ns/cycle")
}

// BenchmarkDonor times one warm group's donor: NewSession, a 20k-instruction
// WarmupNeutral and Snapshot on mcf, whose program image is cached before
// the timer starts, as a sweep's or a served miss's donor finds it. Its B/op
// and snapshot-KB, the snapshot's length, are what TestDonorAllocBytes
// bounds: about 0.48 MB and 118 KB, since the snapshot records the L2's
// prefill rule and only the sets the warmup changed, and a set is a word per
// way (1.02 MB and 240 KB while a way was a 24-byte line record).
func BenchmarkDonor(b *testing.B) {
	ctx := context.Background()
	cfg := tvsched.Config{Benchmark: "mcf", Scheme: tvsched.ABS, VDD: tvsched.VHighFault,
		Instructions: 8000, Warmup: 20000, Seed: 1}
	if _, err := tvsched.NewSession(cfg); err != nil { // caches the image
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var snap *tvsched.Snapshot
	for i := 0; i < b.N; i++ {
		donor, err := tvsched.NewSession(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := donor.WarmupNeutral(ctx); err != nil {
			b.Fatal(err)
		}
		if snap, err = donor.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(snap.Data))/1024, "snapshot-KB")
}

// productionPipeline builds a 0.97 V pipeline over bench at seed 1 the way
// sessions do: a generator over the shared program image, and a fault model
// whose per-PC tail masks are tabulated over that program's code, so fetch
// reads the table instead of hashing.
func productionPipeline(b *testing.B, cfg pipeline.Config, bench string) (*pipeline.Pipeline, *workload.Generator) {
	b.Helper()
	prof, _ := workload.ByName(bench)
	prog, err := workload.NewProgram(prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := prog.NewGenerator()
	cfg.MispredictRate = prof.MispredictRate
	fc := fault.DefaultConfig(1)
	fc.Bias = prof.FaultBias
	p, err := pipeline.New(cfg, gen, fault.NewWithTable(fc, workload.CodeBase, prog.StaticFootprint()), fault.VHighFault)
	if err != nil {
		b.Fatal(err)
	}
	return p, gen
}
