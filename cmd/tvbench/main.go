// Command tvbench regenerates the paper's tables and figures.
//
// Usage:
//
//	tvbench                    # everything
//	tvbench -exp table1        # one experiment
//	tvbench -n 1000000         # paper-scale 1M-instruction phases
//	tvbench -pprof :8080       # live /metrics + pprof while running
//	tvbench -exp table1 -json out.json   # artifacts + BENCH_table1.json
//
// Experiments: table1, fig4, fig5, fig8, fig9, table2, table3, fig7, all.
//
// With -json, besides the artifact file, a cycle-accounting RunReport
// (obs.RunReportSchema) is written as BENCH_<exp>.json next to it; cmd/tvgate
// compares such reports to gate performance regressions in CI.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"

	"tvsched/internal/experiments"
	"tvsched/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: table1 fig4 fig5 fig8 fig9 table2 table3 fig7 all")
		n       = flag.Uint64("n", 300000, "committed instructions per phase")
		warmup  = flag.Uint64("warmup", 50000, "warmup instructions per phase")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		serial  = flag.Bool("serial", false, "disable parallel simulation")
		plot    = flag.Bool("plot", false, "render figures as ASCII bar charts")
		jsonOut = flag.String("json", "", "also write all computed artifacts as JSON to this file")
		csvDir  = flag.String("csvdir", "", "also write CSVs (table1.csv, fig*.csv) into this directory")
		svgDir  = flag.String("svgdir", "", "also write figures as SVG bar charts into this directory")
		seeds   = flag.Int("seeds", 0, "rerun figures across N seeds and report mean±sigma of the reduction")
		pprofA  = flag.String("pprof", "", "serve /metrics and /debug/pprof on this address while running (e.g. :8080)")
	)
	flag.Parse()

	cfg := experiments.Config{Insts: *n, Warmup: *warmup, Seed: *seed, Parallel: !*serial}
	var (
		metrics *obs.Metrics
		stack   *obs.CPIStack
	)
	if *pprofA != "" || *jsonOut != "" {
		// Aggregate observability across every simulation the suite runs.
		// Both observers implement obs.Sharder, so the suite gives each
		// parallel simulation a private lock-free shard and merges at run
		// end — the hot Event path never contends on a shared mutex.
		metrics = obs.NewMetrics()
		stack = experiments.NewRunCPIStack()
		cfg.Observer = obs.Multi(metrics, stack)
	}
	if *pprofA != "" {
		// Published while running: the Prometheus text format at /metrics,
		// pprof at /debug/pprof.
		http.Handle("/metrics", obs.NewExposition("tvbench", metrics, stack).Handler())
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tvbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "tvbench: serving http://%s/metrics and /debug/pprof\n", *pprofA)
	}
	suite := experiments.NewSuite(cfg)

	want := func(id string) bool { return *exp == "all" || *exp == id }
	ran := false
	report := experiments.Report{Config: cfg}

	writeCSV := func(name string, fn func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		check(os.MkdirAll(*csvDir, 0o755))
		f, err := os.Create(filepath.Join(*csvDir, name))
		check(err)
		defer f.Close()
		check(fn(f))
	}

	if want("table1") {
		rows, err := suite.Table1()
		check(err)
		fmt.Println(experiments.FormatTable1(rows))
		report.Table1 = rows
		writeCSV("table1.csv", func(f *os.File) error { return experiments.WriteTable1CSV(f, rows) })
		ran = true
	}
	figs := []struct {
		id   string
		fn   func() (experiments.FigureData, error)
		slot **experiments.FigureData
	}{
		{"fig4", suite.Figure4, &report.Figure4},
		{"fig5", suite.Figure5, &report.Figure5},
		{"fig8", suite.Figure8, &report.Figure8},
		{"fig9", suite.Figure9, &report.Figure9},
	}
	for _, f := range figs {
		if want(f.id) {
			data, err := f.fn()
			check(err)
			if *plot {
				fmt.Println(experiments.PlotFigure(data))
			} else {
				fmt.Println(experiments.FormatFigure(data))
			}
			d := data
			*f.slot = &d
			writeCSV(f.id+".csv", func(file *os.File) error { return experiments.WriteFigureCSV(file, d) })
			if *svgDir != "" {
				check(os.MkdirAll(*svgDir, 0o755))
				sf, err := os.Create(filepath.Join(*svgDir, f.id+".svg"))
				check(err)
				check(experiments.WriteFigureSVG(sf, d))
				check(sf.Close())
			}
			if *seeds > 1 {
				var seedList []uint64
				for s := uint64(1); s <= uint64(*seeds); s++ {
					seedList = append(seedList, s)
				}
				vals, mean, sigma, err := experiments.ReductionCI(f.id, cfg, seedList)
				check(err)
				fmt.Printf("%s reduction across %d seeds: %.1f%% ± %.1f%% %v\n\n",
					f.id, *seeds, mean, sigma, fmtVals(vals))
			}
			ran = true
		}
	}
	if want("table3") {
		rows := experiments.Table3()
		fmt.Println(experiments.FormatTable3(rows))
		report.Table3 = rows
		ran = true
	}
	if want("table2") {
		rows := experiments.Table2()
		fmt.Println(experiments.FormatTable2(rows))
		report.Table2 = rows
		ran = true
	}
	if want("fig7") {
		d := experiments.Figure7(*seed)
		fmt.Println(experiments.FormatFigure7(d))
		report.Figure7 = experiments.Figure7ToJSON(d)
		ran = true
	}
	if ran && *jsonOut != "" {
		report.RunReport = buildRunReport(suite, *exp, *seed, metrics, stack)
		f, err := os.Create(*jsonOut)
		check(err)
		check(report.WriteJSON(f))
		check(f.Close())

		// The standalone BENCH_<exp>.json next to the artifact file is what
		// cmd/tvgate and the CI perf gate consume.
		benchOut := filepath.Join(filepath.Dir(*jsonOut), "BENCH_"+*exp+".json")
		bf, err := os.Create(benchOut)
		check(err)
		check(report.RunReport.WriteJSON(bf))
		check(bf.Close())
		fmt.Fprintf(os.Stderr, "tvbench: run report written to %s\n", benchOut)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "tvbench: unknown experiment %q (want %s)\n",
			*exp, strings.Join([]string{"table1", "fig4", "fig5", "fig8", "fig9", "table2", "table3", "fig7", "all"}, "|"))
		os.Exit(2)
	}
}

// buildRunReport aggregates the suite's runs into the RunReport artifact:
// throughput and the CPI stack from the shared observers, TEP accuracy from
// the metrics registry, and per-scheme overheads versus the fault-free
// baseline (simulated now if the chosen experiment did not already need
// them; suite memoization makes repeats free).
func buildRunReport(suite *experiments.Suite, exp string, seed uint64,
	metrics *obs.Metrics, stack *obs.CPIStack) *obs.RunReport {
	rep := &obs.RunReport{
		Tool:       "tvbench",
		Experiment: exp,
		Benchmark:  "all",
		Seed:       seed,
	}
	// Overheads first: any simulations they trigger feed the shared
	// observers, so the stack/accuracy snapshots below cover them too.
	ov, err := suite.SchemeOverheads(nil, experiments.EvalVoltages())
	check(err)
	rep.SchemeOverheads = ov
	sr := stack.Report()
	rep.CPIStack = &sr
	rep.Instructions = sr.Committed
	rep.Cycles = sr.Cycles
	if sr.Cycles > 0 {
		rep.IPC = float64(sr.Committed) / float64(sr.Cycles)
	}
	tp, fp := metrics.Accuracy()
	unpred := metrics.Counts()[obs.KindReplay]
	acc := &obs.TEPAccuracy{TruePositives: tp, FalsePositives: fp, Unpredicted: unpred}
	if actual := tp + unpred; actual > 0 {
		acc.Coverage = float64(tp) / float64(actual)
	}
	if pos := tp + fp; pos > 0 {
		acc.Precision = float64(tp) / float64(pos)
	}
	rep.TEP = acc
	return rep
}

func fmtVals(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%.1f", v)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvbench:", err)
		os.Exit(1)
	}
}
