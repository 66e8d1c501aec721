// Command bench is the repository's wall-clock benchmark. One invocation
// runs one workload for a fixed time and prints its metrics:
//
//	cold-cells   closed loop of full cold simulations through the Session API
//	sweep-warm   closed loop of checkpointed campaigns (campaign.Execute)
//	serve-mixed  open loop of /v1/run requests to an in-process server
//
// Run it from the repository root, where bench/run.sh builds it first:
//
//	bash bench/run.sh --workload cold-cells --seed 1 --seconds 30 --trace 0
//
// The untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records spans around every call into a layer and reports the
// per-layer metrics, writing a Perfetto-loadable trace and the per-layer
// table beside the result JSON. Every output is checked against the golden
// file for the workload and seed when one exists (bench/golden), and for
// self-consistency always. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics; the exit
// status is 0 only when every operation's output was correct.
//
// README.md lists the metrics, their bounds and why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// setupReps is how many times a run builds its fixtures before the timed
// run and, when untraced, again after it. setup_s is the median of all of
// them: the host's speed drifts over seconds, and set-ups on both sides of
// the run sample more of it than a burst at process start.
const setupReps = 5

func main() {
	start := time.Now()
	runtime.GOMAXPROCS(procs)
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples records how a percentile was taken.
type samples struct {
	N        int     `json:"n"`
	Quantile float64 `json:"quantile,omitempty"`
	Beyond   int     `json:"beyond"`
}

// result is the full artifact (-out); its last four fields are also the
// final line of standard output.
type result struct {
	Schema   string             `json:"schema"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Verified bool               `json:"verified"`
	Golden   string             `json:"golden"`
	Env      environment        `json:"env"`
	ElapsedS float64            `json:"elapsed_s"`
	SetupS   []float64          `json:"setup_s"`
	Samples  map[string]samples `json:"samples"`
	// LatencyMs summarizes the operation latencies at a few quantiles.
	LatencyMs    map[string]float64 `json:"latency_ms,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
	LatencyLimit *latencyLimit      `json:"latency_limit,omitempty"`
	Layers       *layerTable        `json:"layers,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Metrics      map[string]value   `json:"metrics"`
	Sizes        map[string]any     `json:"sizes"`
	// MaxRSSMB is the process's peak resident set; rss_mb, the metric, is
	// the median of samples over the timed run, which GC timing moves less.
	MaxRSSMB float64 `json:"max_rss_mb"`
}

// latencyLimit is serve-mixed's service objective: at the offered rate, the
// request latency at Quantile must stay within LimitMs, and a failed request
// misses it.
type latencyLimit struct {
	Quantile float64 `json:"quantile"`
	LimitMs  float64 `json:"limit_ms"`
	Ms       float64 `json:"ms"`
	Met      bool    `json:"met"`
}

const serveLimitMs = 500

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "cold-cells | sweep-warm | serve-mixed")
		seed      = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 30, "length of the timed run in seconds")
		traceF    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced, end-to-end metrics")
		outF      = fs.String("out", "", "result JSON path (default .bench_build/results/<workload>-seed<N>-trace<T>.json)")
		traceOut  = fs.String("trace-out", "", "Chrome trace path of a traced run (default .bench_build/results/<workload>-seed<N>.trace.json)")
		goldenDir = fs.String("golden-dir", "bench/golden", "directory holding the golden files")
		writeG    = fs.Bool("write-golden", false, "run every distinct operation once and write the golden file instead of measuring")
		tmpRoot   = fs.String("tmp", ".bench_build/tmp", "parent of the run's scratch directory (journals, stores)")
		tiny      = fs.Bool("tiny", false, "shrink the workload to a size that runs in seconds (tests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "bench:", msg)
		fs.Usage()
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments")
	case *traceF != 0 && *traceF != 1:
		return usage("-trace takes 0 or 1")
	case *seconds <= 0:
		return usage("-seconds must be positive")
	case *seed == 0 || *seed > 1e15:
		return usage("-seed must be in [1, 1e15]")
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	c := &config{workload: *name, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		sz: sizeFor(*name, *tiny), traced: *traceF == 1}
	if _, err := newScenario(c); err != nil {
		return usage(err.Error())
	}
	gpath := goldenPath(*goldenDir, *name, *seed)
	golden, err := loadGolden(gpath)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		return fail(err)
	}
	if c.tmp, err = os.MkdirTemp(*tmpRoot, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(c.tmp)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if *writeG {
		return writeGoldenFile(ctx, c, gpath, stdout, stderr)
	}

	// No run may outlive its budget, whatever hangs.
	watchdog := time.AfterFunc(c.window+2*time.Minute, func() {
		fmt.Fprintln(stderr, "bench: watchdog: the run overran its budget")
		os.Exit(3)
	})
	defer watchdog.Stop()

	d, setups, err := setUp(ctx, c, start)
	if err != nil {
		return fail(err)
	}
	defer d.close()

	if c.traced {
		c.tr = newTracer(time.Now())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := sampleRSS()
	ops, elapsed, err := d.run(ctx)
	rssMedian := rss()
	runtime.ReadMemStats(&after)
	if err != nil {
		return fail(err)
	}
	if !c.traced {
		spare, post, err := setUp(ctx, c, time.Now())
		if err != nil {
			return fail(err)
		}
		spare.close()
		setups = append(setups, post...)
	}
	failed, msgs := verify(ops, golden)
	attempted := len(ops)
	timed := ops[:0:0]
	for i := range ops {
		if !ops[i].warmup {
			timed = append(timed, ops[i])
		}
	}
	ops = timed

	res := result{
		Schema:    "tvsched/bench-wall/v1",
		Workload:  *name,
		Seed:      *seed,
		Seconds:   *seconds,
		Traced:    c.traced,
		Verified:  golden != nil,
		Golden:    gpath,
		Env:       readEnvironment(c.tmp),
		ElapsedS:  elapsed.Seconds(),
		Samples:   map[string]samples{},
		Failures:  msgs,
		Attempted: attempted,
		Failed:    failed,
		Correct:   failed == 0 && len(ops) > 0,
		Metrics:   map[string]value{},
		Sizes:     sizeDoc(c.sz),
		MaxRSSMB:  maxRSSMB(),
	}
	for _, s := range setups {
		res.SetupS = append(res.SetupS, s.Seconds())
	}
	set, m := endToEnd, map[string]float64{}
	if !c.traced {
		endToEndMetrics(&res, ops, elapsed, setups, rssMedian, m)
	} else {
		set = perLayer
		res.TraceFile = *traceOut
		if res.TraceFile == "" {
			res.TraceFile = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d.trace.json", *name, *seed))
		}
		if err := layerMetrics(ctx, c, d, &res, ops, elapsed, &before, &after, m); err != nil {
			return fail(err)
		}
		printTable(stderr, res.Layers)
	}
	for _, mt := range set {
		res.Metrics[mt.name] = value{Value: m[mt.name], Unit: mt.unit}
		fmt.Fprintf(stdout, "%s %s %s\n", mt.name, strconv.FormatFloat(m[mt.name], 'g', -1, 64), mt.unit)
	}
	fmt.Fprintf(stdout, "verified=%t attempted=%d failed=%d\n", res.Verified, res.Attempted, res.Failed)
	for _, msg := range msgs {
		fmt.Fprintln(stderr, "bench: failed:", msg)
	}

	outPath := *outF
	if outPath == "" {
		outPath = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *traceF))
	}
	if err := writeJSON(outPath, &res); err != nil {
		return fail(err)
	}
	final, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(final))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload's fixtures setupReps times and returns the last
// set open; the first repetition is timed from start.
func setUp(ctx context.Context, c *config, start time.Time) (scenario, []time.Duration, error) {
	var setups []time.Duration
	var d scenario
	for r := 0; r < setupReps; r++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		if r == 0 {
			t0 = start
		}
		d, _ = newScenario(c)
		if err := d.setup(ctx); err != nil {
			d.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	return d, setups, nil
}

// endToEndMetrics computes the untraced run's metrics from the timed
// operations and records how each percentile was taken.
func endToEndMetrics(res *result, ops []op, elapsed time.Duration, setups []time.Duration, rssMedian float64, m map[string]float64) {
	var lat []time.Duration
	for i := range ops {
		if ops[i].err == nil {
			lat = append(lat, ops[i].lat)
		}
	}
	q := tailQuantile(res.Workload)
	p50, b50 := quantile(lat, 0.50)
	tail, bTail := quantile(lat, q)
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	m["setup_s"] = setups[len(setups)/2].Seconds()
	if res.Workload == "serve-mixed" {
		// An open loop completes what arrives unless it falls behind, which
		// stretches elapsed past the window.
		m["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	} else {
		m["ops_per_s"] = closedLoopRate(ops, elapsed)
	}
	m["op_p50_ms"] = ms(p50)
	m["op_tail_ms"] = ms(tail)
	m["rss_mb"] = rssMedian
	res.Samples["op_p50_ms"] = samples{N: len(lat), Quantile: 0.5, Beyond: b50}
	res.Samples["op_tail_ms"] = samples{N: len(lat), Quantile: q, Beyond: bTail}
	res.Samples["setup_s"] = samples{N: len(setups), Quantile: 0.5, Beyond: len(setups) / 2}
	res.LatencyMs = map[string]float64{}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		v, _ := quantile(lat, q)
		res.LatencyMs[fmt.Sprintf("p%g", q*100)] = ms(v)
	}
	if res.Workload == "serve-mixed" {
		p99 := res.LatencyMs["p99"]
		res.LatencyLimit = &latencyLimit{Quantile: 0.99, LimitMs: serveLimitMs, Ms: p99,
			Met: p99 <= serveLimitMs && res.Failed == 0}
	}
}

// layerMetrics computes the traced run's per-layer metrics — every one,
// zero where the workload has no such layer — and writes the trace.
func layerMetrics(ctx context.Context, c *config, d scenario, res *result, ops []op, elapsed time.Duration,
	before, after *runtime.MemStats, m map[string]float64) error {
	for _, mt := range perLayer {
		m[mt.name] = 0
	}
	tr := c.tr
	recorded := len(tr.spans) - tr.imported
	tr.nest()
	lt := tr.table(workers, elapsed)
	commonLayers(ops, lt, m)
	runtimeLayers(before, after, len(ops), m)
	m["trace.overhead_pct"] = 100 * float64(recorded) * float64(spanCost()) / (procs * float64(elapsed))
	if err := d.layers(ctx, ops, lt, m); err != nil {
		return err
	}
	res.Layers = lt
	keys := map[int]string{}
	for i := range ops {
		keys[ops[i].id] = ops[i].key
	}
	if err := os.MkdirAll(filepath.Dir(res.TraceFile), 0o755); err != nil {
		return err
	}
	return tr.writeChrome(res.TraceFile, func(id int) string { return keys[id] }, d.laneName)
}

func writeGoldenFile(ctx context.Context, c *config, path string, stdout, stderr io.Writer) int {
	d, _ := newScenario(c)
	defer d.close()
	if err := d.setup(ctx); err != nil {
		fmt.Fprintln(stderr, "bench: set-up:", err)
		return 1
	}
	ops, err := d.exhaustive(ctx)
	if err == nil {
		if failed, msgs := verify(ops, nil); failed > 0 {
			err = fmt.Errorf("%d operations failed, first: %s", failed, msgs[0])
		}
	}
	if err == nil {
		err = writeGolden(path, c.workload, c.seed, ops)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: golden:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d operations\n", path, len(ops))
	return 0
}

func sizeDoc(sz size) map[string]any {
	schemes := make([]string, len(sz.schemes))
	for i, s := range sz.schemes {
		schemes[i] = s.String()
	}
	return map[string]any{"benchmarks": sz.benchmarks, "schemes": schemes, "vdds": sz.vdds,
		"sim_seeds": sz.simSeeds, "instructions": sz.insts, "warmup": sz.warmup,
		"rate_per_s": sz.rate, "zipf": sz.zipf, "serve_warmup_s": sz.serveWarmup.Seconds(),
		"workers": workers, "connections": conns, "gomaxprocs": procs}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printTable(w io.Writer, lt *layerTable) {
	fmt.Fprintf(w, "%-26s %8s %12s %12s %10s\n", "layer", "count", "total_ms", "self_ms", "mean_ms")
	for _, r := range lt.Rows {
		fmt.Fprintf(w, "%-26s %8d %12.1f %12.1f %10.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.MeanMs)
	}
	fmt.Fprintf(w, "busy %.1f ms, idle %.1f ms, residual (root self time) %.2f%% of busy\n",
		lt.BusyMs, lt.IdleMs, lt.ResidualPct)
}
