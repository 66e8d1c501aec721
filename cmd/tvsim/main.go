// Command tvsim runs one benchmark under one timing-error handling scheme at
// one supply voltage and prints the resulting statistics. It is the
// single-experiment entry point; cmd/tvbench regenerates the paper's full
// tables and figures.
//
// Usage:
//
//	tvsim -bench bzip2 -scheme ABS -vdd 0.97 -n 1000000
//	tvsim -all -vdd 1.10           # fault-free IPC for every benchmark
//	tvsim -bench sjeng -vdd 0.97 -trace out.json   # Perfetto trace
//	tvsim -bench sjeng -vdd 0.97 -cpistack         # CPI-stack table
//	tvsim -bench sjeng -vdd 0.97 -report run.json  # RunReport JSON
//	tvsim -bench sjeng -pprof :8080                # /metrics + /debug/pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"tvsched/internal/asm"
	"tvsched/internal/core"
	"tvsched/internal/experiments"
	"tvsched/internal/fault"
	"tvsched/internal/obs"
	"tvsched/internal/pipeline"
	"tvsched/internal/sim"
	"tvsched/internal/workload"
)

func main() {
	var scheme = core.ABS
	flag.TextVar(&scheme, "scheme", core.ABS, "Razor | EP | ABS | FFS | CDS")
	var (
		bench   = flag.String("bench", "bzip2", "benchmark name (see -list)")
		vdd     = flag.Float64("vdd", fault.VLowFault, "supply voltage (1.10 fault-free, 1.04 low FR, 0.97 high FR)")
		n       = flag.Uint64("n", 300000, "committed instructions to simulate")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		all     = flag.Bool("all", false, "run every benchmark")
		list    = flag.Bool("list", false, "list benchmark names and exit")
		flush   = flag.Bool("fullflush", false, "use architectural (flush) replay instead of selective")
		ct      = flag.Int("ct", 8, "CDL criticality threshold (paper best: 8)")
		tepN    = flag.Int("tep-entries", 4096, "TEP table entries (power of two)")
		tepH    = flag.Int("tep-history", 2, "branch-history bits folded into the TEP index")
		asmF    = flag.String("asm", "", "run the assembly kernel in this file instead of a benchmark profile")
		bias    = flag.Float64("bias", 1.0, "fault susceptibility multiplier for -asm kernels")
		traceF  = flag.String("trace", "", "write the measured run as Chrome trace-event JSON (open at ui.perfetto.dev)")
		metricF = flag.Bool("metrics", false, "print the observability metrics summary after each run")
		stackF  = flag.Bool("cpistack", false, "print the cycle-accounting CPI stack after each run")
		reportF = flag.String("report", "", "write the run as RunReport JSON (schema "+obs.RunReportSchema+") to this file")
		pprofA  = flag.String("pprof", "", "serve /metrics and /debug/pprof on this address while running (e.g. :8080)")
	)
	flag.Parse()

	if *list {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		return
	}
	if *all && *traceF != "" {
		fatal(fmt.Errorf("-trace records a single run; drop -all or -trace"))
	}
	if *all && *reportF != "" {
		fatal(fmt.Errorf("-report records a single run; drop -all or -report"))
	}

	if *asmF != "" {
		if err := runAsm(*asmF, scheme, *vdd, *n, *seed, *bias, *traceF, *metricF, *stackF); err != nil {
			fatal(err)
		}
		return
	}

	// With -pprof one observer set is shared across all runs and scraped
	// live; otherwise each run gets (and reports) its own.
	shared := (*pprofA != "")
	var sharedSet *observers
	if shared {
		sharedSet = newObservers(*traceF != "", true, true)
		http.Handle("/metrics", obs.NewExposition("tvsim", sharedSet.metrics, sharedSet.stack).Handler())
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tvsim: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "tvsim: serving http://%s/metrics and /debug/pprof\n", *pprofA)
	}

	benches := []string{*bench}
	if *all {
		benches = workload.Names()
	}
	fmt.Printf("%-12s %-6s vdd=%.2f n=%d\n", "benchmark", scheme, *vdd, *n)
	fmt.Printf("%-12s %7s %7s %8s %8s %8s %8s %8s\n",
		"", "IPC", "FR%", "cover%", "replays", "gstall", "confined", "cycles")
	o := options{flush: *flush, ct: *ct, tepEntries: *tepN, tepHistory: *tepH}
	for _, name := range benches {
		oset := sharedSet
		if oset == nil {
			oset = newObservers(*traceF != "", *metricF, *stackF || *reportF != "")
		}
		o.obs = oset.combined()
		st, err := run(name, scheme, *vdd, *n, *seed, o)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-12s %7.3f %7.2f %8.1f %8d %8d %8d %8d\n",
			name, st.IPC(), 100*st.FaultRate(), 100*st.Coverage(),
			st.Replays, st.GlobalStalls, st.ConfinedEvents, st.Cycles)
		if *reportF != "" {
			if err := writeReport(*reportF, name, scheme, *vdd, *seed, &st, oset.stack); err != nil {
				fatal(err)
			}
			fmt.Printf("run report written to %s\n", *reportF)
		}
		if !shared {
			if err := oset.finish(*traceF, *metricF, *stackF); err != nil {
				fatal(err)
			}
		}
	}
	if shared {
		if err := sharedSet.finish(*traceF, *metricF, *stackF); err != nil {
			fatal(err)
		}
	}
}

// options carries the machine-configuration flags.
type options struct {
	flush                  bool
	ct                     int
	tepEntries, tepHistory int
	obs                    obs.Observer
}

// observers is the per-run (or, with -pprof, shared) observer set.
type observers struct {
	tracer  *obs.ChromeTracer
	metrics *obs.Metrics
	stack   *obs.CPIStack
}

// newObservers builds the requested observer set.
func newObservers(trace, metrics, stack bool) *observers {
	o := &observers{}
	if trace {
		o.tracer = obs.NewChromeTracer()
	}
	if metrics {
		o.metrics = obs.NewMetrics()
	}
	if stack {
		o.stack = experiments.NewRunCPIStack()
	}
	return o
}

// combined fans out to the non-nil observers; nil when none is requested.
// (obs.Multi drops nil interfaces, but a typed-nil *ChromeTracer inside an
// interface is not nil — hence the explicit checks here.)
func (o *observers) combined() obs.Observer {
	var os []obs.Observer
	if o.tracer != nil {
		os = append(os, o.tracer)
	}
	if o.metrics != nil {
		os = append(os, o.metrics)
	}
	if o.stack != nil {
		os = append(os, o.stack)
	}
	return obs.Multi(os...)
}

// finish writes the trace file and prints the requested summaries.
func (o *observers) finish(path string, metrics, stack bool) error {
	if o.tracer != nil {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := o.tracer.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := o.tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "tvsim: trace hit its record cap; %d events dropped (shorten -n)\n", d)
		}
		fmt.Printf("trace written to %s (open at ui.perfetto.dev)\n", path)
	}
	if o.metrics != nil && metrics {
		fmt.Print(o.metrics.Summary())
	}
	if o.stack != nil && stack {
		rep := o.stack.Report()
		fmt.Print(rep.Format())
	}
	return nil
}

// writeReport emits the single-run RunReport JSON.
func writeReport(path, bench string, sch core.Scheme, vdd float64, seed uint64,
	st *pipeline.Stats, stack *obs.CPIStack) error {
	rep := &obs.RunReport{
		Tool:         "tvsim",
		Benchmark:    bench,
		Scheme:       sch.String(),
		VDD:          vdd,
		Seed:         seed,
		Instructions: st.Committed,
		Cycles:       st.Cycles,
		IPC:          st.IPC(),
		TEP:          experiments.TEPAccuracyFrom(st),
	}
	if stack != nil {
		sr := stack.Report()
		rep.CPIStack = &sr
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(name string, sch core.Scheme, vdd float64, n, seed uint64, opts options) (pipeline.Stats, error) {
	mcfg := pipeline.DefaultConfig()
	mcfg.FullFlushReplay = opts.flush
	mcfg.CT = opts.ct
	mcfg.TEP.Entries = opts.tepEntries
	mcfg.TEP.HistoryBits = opts.tepHistory
	sess, err := sim.New(sim.Config{
		Benchmark: name,
		Scheme:    sch,
		VDD:       vdd,
		Warmup:    n / 4,
		Seed:      seed,
		Machine:   &mcfg,
	})
	if err != nil {
		return pipeline.Stats{}, err
	}
	ctx := context.Background()
	if err := sess.Warmup(ctx); err != nil {
		return pipeline.Stats{}, err
	}
	// Attach after warmup so the trace/metrics cover only the measured run.
	sess.SetObserver(opts.obs)
	return sess.Run(ctx, n)
}

// runAsm simulates a kernel file through the mini-ISA interpreter.
func runAsm(path string, sch core.Scheme, vdd float64, n, seed uint64, bias float64, traceF string, metricF, stackF bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Assemble once up front for the static-instruction count; the session
	// assembles its own copy (assembly is deterministic and cheap).
	prog, err := asm.Assemble(string(src))
	if err != nil {
		return err
	}
	var m *asm.Machine
	sess, err := sim.NewAsm(sim.Config{
		Scheme:    sch,
		VDD:       vdd,
		Warmup:    n / 4,
		Seed:      seed,
		FaultBias: bias,
	}, string(src), func(mm *asm.Machine) { m = mm })
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := sess.Warmup(ctx); err != nil {
		return err
	}
	oset := newObservers(traceF != "", metricF, stackF)
	sess.SetObserver(oset.combined())
	st, err := sess.Run(ctx, n)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%d static insts, %d restarts) under %v at %.2fV:\n",
		path, prog.Len(), m.Restarts(), sch, vdd)
	fmt.Printf("  IPC %.3f  FR %.2f%%  coverage %.1f%%  replays %d\n",
		st.IPC(), 100*st.FaultRate(), 100*st.Coverage(), st.Replays)
	return oset.finish(traceF, metricF, stackF)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvsim:", err)
	os.Exit(1)
}
