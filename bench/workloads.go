package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tvsched"
	"tvsched/internal/campaign"
	"tvsched/internal/experiments"
	"tvsched/internal/obs"
	"tvsched/internal/serve"
	"tvsched/internal/store"
)

// Load comes from this one process: GOMAXPROCS, simulation workers and
// client connections are fixed here, never derived from the host, so runs
// on different machines drive the same concurrency.
const (
	procs   = 2
	workers = 2
	conns   = 2
)

// size is the fixed work of one workload. Everything is a function of the
// workload and the seed; only the run's length comes from the clock.
type size struct {
	benchmarks    []string
	schemes       []tvsched.Scheme
	vdds          []float64
	simSeeds      int // simulation seeds per (benchmark, scheme, vdd)
	insts, warmup uint64
	// serve-mixed: Poisson arrivals per second and the Zipf exponent of
	// cell popularity.
	rate, zipf float64
	// serveWarmup is how long serve-mixed sends load before its timed
	// window opens.
	serveWarmup time.Duration
	// replayInsts is the instruction count of each profile's component
	// replay (traced cold-cells runs).
	replayInsts int
}

func sizeFor(workload string, tiny bool) size {
	all := []tvsched.Scheme{tvsched.Razor, tvsched.EP, tvsched.ABS, tvsched.FFS, tvsched.CDS}
	sz := size{benchmarks: tvsched.Benchmarks(), schemes: all, replayInsts: 50000}
	switch workload {
	case "cold-cells":
		sz.vdds, sz.simSeeds, sz.insts, sz.warmup = []float64{tvsched.VLowFault, tvsched.VHighFault}, 2, 300000, 75000
	case "sweep-warm":
		sz.vdds, sz.simSeeds, sz.insts, sz.warmup = []float64{tvsched.VLowFault, tvsched.VHighFault}, 2, 8000, 120000
	case "serve-mixed":
		sz.vdds, sz.simSeeds, sz.insts, sz.warmup = []float64{tvsched.VHighFault}, 7, 20000, 20000
		sz.rate, sz.zipf, sz.serveWarmup = 40, 1.1, 5*time.Second
	}
	if tiny {
		sz.benchmarks = []string{"bzip2", "mcf"}
		sz.schemes = []tvsched.Scheme{tvsched.Razor, tvsched.CDS}
		sz.vdds = sz.vdds[len(sz.vdds)-1:]
		sz.simSeeds = 2
		sz.insts, sz.warmup = 2000, 3000
		sz.rate = 60
		sz.serveWarmup = sz.serveWarmup / 20
		sz.replayInsts = 2000
	}
	return sz
}

// simSeed maps the benchmark's --seed to the k-th simulation seed of its
// cells.
func simSeed(seed uint64, k int) uint64 { return seed*100 + uint64(k) }

// throwawaySeed is the simulation seed of the set-up's throwaway cell: no
// workload's cells use it (theirs start at 101), and it is the same for every
// --seed, so every run's set-up does the same work.
const throwawaySeed = 99

// grid is the cross product benchmark × scheme × vdd × simulation seed, in
// that order (seeds fastest, as campaign plans enumerate).
func grid(sz size, seed uint64) []tvsched.Config {
	var cells []tvsched.Config
	for _, b := range sz.benchmarks {
		for _, s := range sz.schemes {
			for _, v := range sz.vdds {
				for k := 1; k <= sz.simSeeds; k++ {
					cells = append(cells, tvsched.Config{Benchmark: b, Scheme: s, VDD: v,
						Instructions: sz.insts, Warmup: sz.warmup, Seed: simSeed(seed, k)}.Normalized())
				}
			}
		}
	}
	return cells
}

// renderReport renders a finished cell as the repository's run-report/v1,
// the body cold-cells and sweep-warm check against the golden files. When
// the config carries a PhaseHook (traced sweep-warm cells) the rendering is
// reported to it as one more phase.
func renderReport(cfg tvsched.Config, res tvsched.Result) ([]byte, error) {
	start := time.Now()
	st := res.Stats
	b, err := json.Marshal(&obs.RunReport{
		Schema:       obs.RunReportSchema,
		Tool:         "bench",
		Benchmark:    cfg.Benchmark,
		Scheme:       cfg.Scheme.String(),
		VDD:          cfg.VDD,
		Seed:         cfg.Seed,
		Instructions: st.Committed,
		Cycles:       st.Cycles,
		IPC:          st.IPC(),
		TEP:          experiments.TEPAccuracyFrom(&st),
	})
	if cfg.PhaseHook != nil {
		cfg.PhaseHook("render", time.Since(start))
	}
	return b, err
}

// op is one timed operation: a cell on cold-cells and sweep-warm, a request
// on serve-mixed.
type op struct {
	id   int // trace identity: spans of this operation carry it
	key  string
	cfg  tvsched.Config
	lat  time.Duration
	done time.Duration // completion, as an offset from the run's start
	// class is the provenance: cold | restored (cells), hit | shared | miss
	// (requests); source is where a request's bytes came from.
	class, source string
	body          []byte
	err           error
	lane          int
	late          time.Duration // serve-mixed: how late the generator sent it
	reqID         string        // serve-mixed: X-Request-Id, keys the server's spans
	// warmup marks serve-mixed's untimed cache-filling requests: verified,
	// never measured.
	warmup bool

	// Filled by verify from the body: the measured phase's counts.
	insts, cycles, violations, replays uint64
	// ready sums the issue candidates over the measured cycles (cold-cells).
	ready uint64
}

// config is what every workload shares.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	tmp      string
	sz       size
	traced   bool
	tr       *tracer // set for the measured run of a traced invocation
}

// scenario is one workload's fixtures and load: cold-cells, sweep-warm or
// serve-mixed.
type scenario interface {
	// setup builds the fixtures and runs one throwaway operation on an
	// unused seed, so the timed run starts on warm code paths.
	setup(ctx context.Context) error
	// run drives the load for the window and returns every completed
	// operation, plus the time from the start to the last completion.
	run(ctx context.Context) ([]op, time.Duration, error)
	// exhaustive runs every distinct operation once (golden files).
	exhaustive(ctx context.Context) ([]op, error)
	// layers adds the workload's own per-layer metrics after a traced run.
	layers(ctx context.Context, ops []op, lt *layerTable, m map[string]float64) error
	// laneName labels a Perfetto track.
	laneName(lane int) string
	close()
}

func newScenario(c *config) (scenario, error) {
	switch c.workload {
	case "cold-cells":
		return &coldCells{c: c}, nil
	case "sweep-warm":
		return &sweepWarm{c: c}, nil
	case "serve-mixed":
		return &serveMixed{c: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-cells, sweep-warm or serve-mixed)", c.workload)
}

// tailQuantile is the percentile op_tail_ms reports: a high one that keeps
// well over ten samples beyond it at the default sizes and repeats from run
// to run. Cold-cells completes about 250 cells in 30 s on two cores, so its
// tail is p90. On sweep-warm the slowest ~11% of cells are those that pay for
// their group's donor warmup or wait for its snapshot; p95 is the middle of
// them (~130 of ~2800 cells beyond), while p99 rests on the two leaders a
// round gives each of the costliest benchmarks and spread a quarter to a
// third more between runs. On serve-mixed the few slowest requests are
// queueing episodes whose size varies run to run by half or more, so its
// tail is p95 too (60 requests beyond).
func tailQuantile(workload string) float64 {
	if workload == "cold-cells" {
		return 0.90
	}
	return 0.95
}

// ---------------------------------------------------------------- cold-cells

// coldCells is a closed loop of full cold simulations through the Session
// API — NewSession → WarmupNeutral → Run — with no checkpoint, cache or
// store: the cycle loop takes most of every cell, and every layer above the
// session is bypassed.
type coldCells struct {
	c     *config
	cells []tvsched.Config
}

func (w *coldCells) setup(ctx context.Context) error {
	cells := grid(w.c.sz, w.c.seed)
	w.cells = interleave(cells, len(w.c.sz.benchmarks), w.c.seed)
	cfg := cells[0]
	cfg.Seed = throwawaySeed
	return w.cell(ctx, cfg, nil, 0, 0).err
}

// interleave orders a benchmark-major grid round-robin across benchmarks,
// each benchmark's cells in a seeded order. Benchmarks differ in cost by up
// to 2x, and a run finishes only the cells its window allows: round-robin
// gives every prefix of the list the same benchmark mix, so the cells a run
// reaches, and its latency percentiles, do not depend on where it stops.
func interleave(cells []tvsched.Config, benchmarks int, seed uint64) []tvsched.Config {
	per := len(cells) / benchmarks
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([]tvsched.Config, 0, len(cells))
	orders := make([][]int, benchmarks)
	for b := range orders {
		orders[b] = rng.Perm(per)
	}
	for k := 0; k < per; k++ {
		for b := 0; b < benchmarks; b++ {
			out = append(out, cells[b*per+orders[b][k]])
		}
	}
	return out
}

// cell runs one cold cell and, when traced and successful, records a span
// around each call.
func (w *coldCells) cell(ctx context.Context, cfg tvsched.Config, tr *tracer, id, lane int) op {
	o := op{id: id, key: cellKey(cfg), cfg: cfg, class: "cold", lane: lane}
	t0 := time.Now()
	sess, err := tvsched.NewSession(cfg)
	t1 := time.Now()
	if err == nil {
		err = sess.WarmupNeutral(ctx)
	}
	t2 := time.Now()
	var res tvsched.Result
	if err == nil {
		res, err = sess.Run(ctx, tvsched.RunOpts{})
	}
	t3 := time.Now()
	if err == nil {
		o.body, err = renderReport(cfg, res)
		o.ready = res.Stats.SumReadyCands
	}
	t4 := time.Now()
	o.err, o.lat = err, t4.Sub(t0)
	if err == nil {
		tr.add("cell", id, lane, t0, t4)
		tr.add("sim.new", id, lane, t0, t1)
		tr.add("sim.warmup", id, lane, t1, t2)
		tr.add("sim.run", id, lane, t2, t3)
		tr.add("sim.render", id, lane, t3, t4)
	}
	return o
}

func (w *coldCells) run(ctx context.Context) ([]op, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, w.c.window)
	defer cancel()
	ops, last := w.loop(ctx, 0, w.c.tr)
	return ops, last, nil
}

// exhaustive runs each cell of the list once.
func (w *coldCells) exhaustive(ctx context.Context) ([]op, error) {
	ops, _ := w.loop(ctx, len(w.cells), nil)
	return ops, nil
}

// loop runs the cell list on the workers, cycling through it, until the
// context ends or, with limit > 0, limit cells have run. It returns the
// cells in list order and the time from its start to the last completion.
func (w *coldCells) loop(ctx context.Context, limit int, tr *tracer) ([]op, time.Duration) {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	byID := map[int]op{}
	var last time.Duration
	var wg sync.WaitGroup
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for ctx.Err() == nil {
				id := int(next.Add(1) - 1)
				if limit > 0 && id >= limit {
					return
				}
				o := w.cell(ctx, w.cells[id%len(w.cells)], tr, id, lane)
				if o.err != nil && ctx.Err() != nil {
					return // cut off by the end of the window: not attempted
				}
				o.done = time.Since(start)
				mu.Lock()
				byID[id] = o
				last = max(last, o.done)
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ops := make([]op, len(ids))
	for i, id := range ids {
		ops[i] = byID[id]
	}
	return ops, last
}

func (w *coldCells) layers(_ context.Context, ops []op, lt *layerTable, m map[string]float64) error {
	var insts, cycles, ready uint64
	for i := range ops {
		insts += ops[i].insts
		cycles += ops[i].cycles
		ready += ops[i].ready
	}
	replayComponents(w.c.sz, w.c.seed, m, ratio(float64(cycles), float64(insts)), ratio(float64(ready), float64(cycles)))
	return nil
}

func (w *coldCells) laneName(lane int) string { return fmt.Sprintf("worker %d", lane) }
func (w *coldCells) close()                   {}

// ---------------------------------------------------------------- sweep-warm

// sweepWarm runs consecutive campaigns through campaign.Execute with a
// checkpointing LocalRunner and a journal, until the window has passed. Each
// round is a fresh campaign — new plan tag, journal and runner — over the
// same cells: 24 warm groups whose first cell pays one neutral warmup that
// the group's other cells restore. The measured phase is short, so session
// construction, snapshot restore, rendering and journaling carry most of a
// cell, and the cycle loop is a minority.
type sweepWarm struct {
	c *config
	// firstLines keeps the first round's report lines for the journal
	// replay; warmGroups, busy and wall account for the run's rounds.
	firstLines [][]byte
	warmGroups int
	busy, wall time.Duration
	start      time.Time // operations' completion times count from here
}

// executorLane is the Perfetto track of the campaign-level spans.
const executorLane = workers

func (w *sweepWarm) spec(tag string, seeds []uint64, checkpoint bool) campaign.Spec {
	sz := w.c.sz
	spec := campaign.Spec{Tag: tag, Benchmarks: sz.benchmarks, VDDs: sz.vdds, Seeds: seeds,
		Instructions: sz.insts, Warmup: sz.warmup, Checkpoint: &checkpoint}
	for _, s := range sz.schemes {
		spec.Schemes = append(spec.Schemes, s.String())
	}
	return spec
}

func (w *sweepWarm) seeds() []uint64 {
	var seeds []uint64
	for k := 1; k <= w.c.sz.simSeeds; k++ {
		seeds = append(seeds, simSeed(w.c.seed, k))
	}
	return seeds
}

func (w *sweepWarm) setup(ctx context.Context) error {
	spec := w.spec("setup", []uint64{throwawaySeed}, true)
	spec.Benchmarks, spec.Schemes, spec.VDDs = spec.Benchmarks[:1], spec.Schemes[:1], spec.VDDs[:1]
	ops, err := w.round(ctx, spec, 0, nil)
	if err == nil && ops[0].err != nil {
		err = ops[0].err
	}
	return err
}

// lineSink collects the report stream Execute writes, one record per Write.
type lineSink struct{ lines [][]byte }

func (s *lineSink) Write(p []byte) (int, error) {
	s.lines = append(s.lines, bytes.TrimSuffix(bytes.Clone(p), []byte("\n")))
	return len(p), nil
}

// round executes one campaign to completion and returns its cells as ops,
// their ids starting at base.
func (w *sweepWarm) round(ctx context.Context, spec campaign.Spec, base int, tr *tracer) ([]op, error) {
	plan, err := campaign.NewPlan(spec)
	if err != nil {
		return nil, err
	}
	jpath := filepath.Join(w.c.tmp, plan.Hash()+".tvcj")
	j, err := campaign.OpenJournal(jpath, plan)
	if err != nil {
		return nil, err
	}
	defer os.Remove(jpath)
	defer j.Close()
	lr := &campaign.LocalRunner{Checkpoint: plan.Checkpoint(), Render: renderReport}
	run := lr.Run
	if tr != nil {
		run = tracedCells(tr, lr, base)
	}
	durs := make([]time.Duration, plan.Total())
	dones := make([]time.Duration, plan.Total())
	var sink lineSink
	start := time.Now()
	_, err = campaign.Execute(ctx, plan, j, run, &sink, campaign.Options{
		Workers: workers,
		// Each call writes its own cell's slot, and Execute returns only
		// after every cell's OnCell has run.
		OnCell: func(cell campaign.Cell, _ campaign.CellResult, d time.Duration) {
			durs[cell.Index], dones[cell.Index] = d, time.Since(w.start)
		},
	})
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("campaign round %s: %w", spec.Tag, err)
	}
	tr.add("campaign.execute", -1, executorLane, start, end)
	w.wall += end.Sub(start)
	w.warmGroups += plan.WarmGroups()
	if w.firstLines == nil {
		w.firstLines = sink.lines
	}
	ops := make([]op, len(sink.lines))
	for i, raw := range sink.lines {
		var line campaign.Line
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("campaign round %s: line %d: %w", spec.Tag, i, err)
		}
		cfg := plan.Cell(i).Config
		o := op{id: base + i, key: cellKey(cfg), cfg: cfg, class: line.Cache, body: line.Report,
			lat: durs[i], done: dones[i]}
		switch {
		case line.Error != "":
			o.err = errors.New(line.Error)
		case line.Index != i || line.Digest != cfg.Digest():
			o.err = fmt.Errorf("line %d carries index %d digest %.12s, want digest %.12s", i, line.Index, line.Digest, cfg.Digest())
		}
		w.busy += durs[i]
		ops[i] = o
	}
	return ops, nil
}

// phase is one PhaseHook report: the phase ended at end and took d.
type phase struct {
	name string
	end  time.Time
	d    time.Duration
}

var phaseSpan = map[string]string{
	"warmup_neutral": "sim.warmup",
	"restore":        "sim.restore",
	"run":            "sim.run",
	"render":         "sim.render",
}

// tracedCells wraps the LocalRunner so each cell's session reports its
// phases through Config.PhaseHook. The gaps between phases are named by what
// the runner does there: before the first phase it constructs the cell's
// session (and a group leader the donor's too), and after a donor's warmup it
// serializes the snapshot.
func tracedCells(tr *tracer, lr *campaign.LocalRunner, base int) campaign.Runner {
	lanes := make(chan int, workers)
	for l := 0; l < workers; l++ {
		lanes <- l
	}
	return func(ctx context.Context, cell campaign.Cell) campaign.CellResult {
		lane := <-lanes
		defer func() { lanes <- lane }()
		var phases []phase
		cell.Config.PhaseHook = func(name string, d time.Duration) {
			phases = append(phases, phase{name, time.Now(), d})
		}
		start := time.Now()
		res := lr.Run(ctx, cell)
		end := time.Now()
		if res.Err != nil {
			return res
		}
		id := base + cell.Index
		tr.add("campaign.cell", id, lane, start, end)
		prevEnd, prevName := start, ""
		for _, p := range phases {
			pStart := p.end.Add(-p.d)
			switch {
			case prevName == "":
				tr.add("sim.new", id, lane, prevEnd, pStart)
			case prevName == "warmup_neutral":
				tr.add("sim.snapshot", id, lane, prevEnd, pStart)
			}
			tr.add(phaseSpan[p.name], id, lane, pStart, p.end)
			prevEnd, prevName = p.end, p.name
		}
		return res
	}
}

func (w *sweepWarm) run(ctx context.Context) ([]op, time.Duration, error) {
	// Forget the set-up round.
	w.firstLines, w.warmGroups, w.busy, w.wall = nil, 0, 0, 0
	w.start = time.Now()
	var ops []op
	for r := 0; r == 0 || time.Since(w.start) < w.c.window; r++ {
		round, err := w.round(ctx, w.spec(fmt.Sprintf("round-%d", r), w.seeds(), true), len(ops), w.c.tr)
		if err != nil {
			return nil, 0, err
		}
		ops = append(ops, round...)
	}
	return ops, time.Since(w.start), nil
}

// exhaustive runs one round without checkpoints: every cell warms up on its
// own, so the golden files also pin that restoring a shared snapshot changes
// no output byte.
func (w *sweepWarm) exhaustive(ctx context.Context) ([]op, error) {
	return w.round(ctx, w.spec("golden", w.seeds(), false), 0, nil)
}

func (w *sweepWarm) layers(ctx context.Context, ops []op, lt *layerTable, m map[string]float64) error {
	restored, executed := 0, 0
	for i := range ops {
		switch ops[i].class {
		case "restored":
			restored++
			executed++
		case "cold":
			executed++
		}
	}
	cells := lt.count("campaign.cell")
	m["sim.new_ms"] = ms(meanOf(lt.total("sim.new"), cells+lt.count("sim.warmup")))
	m["campaign.cell_ms"] = ms(meanOf(w.busy, len(ops)))
	m["campaign.restored_ratio"] = ratio(float64(restored), float64(executed))
	m["campaign.executor_idle_pct"] = 100 * (1 - ratio(float64(w.busy), float64(workers*w.wall)))
	m["campaign.warm_groups"] = float64(w.warmGroups)

	kb, err := w.snapshotKB(ctx)
	if err != nil {
		return err
	}
	m["sim.snapshot_kb"] = kb
	appendUs, err := w.journalReplay()
	if err != nil {
		return err
	}
	m["campaign.journal_append_us"] = appendUs
	return nil
}

// snapshotKB is the mean warm-snapshot size over the benchmarks, from one
// donor per benchmark on the first simulation seed.
func (w *sweepWarm) snapshotKB(ctx context.Context) (float64, error) {
	var total int
	for _, b := range w.c.sz.benchmarks {
		sess, err := tvsched.NewSession(tvsched.Config{Benchmark: b, VDD: tvsched.VHighFault,
			Instructions: w.c.sz.insts, Warmup: w.c.sz.warmup, Seed: simSeed(w.c.seed, 1)})
		if err != nil {
			return 0, err
		}
		if err := sess.WarmupNeutral(ctx); err != nil {
			return 0, err
		}
		snap, err := sess.Snapshot()
		if err != nil {
			return 0, err
		}
		total += len(snap.Data)
	}
	return float64(total) / 1024 / float64(len(w.c.sz.benchmarks)), nil
}

// journalReplay appends the first round's lines into a fresh journal, alone,
// and returns the mean microseconds per Append.
func (w *sweepWarm) journalReplay() (float64, error) {
	plan, err := campaign.NewPlan(w.spec("journal-replay", w.seeds(), true))
	if err != nil {
		return 0, err
	}
	jpath := filepath.Join(w.c.tmp, plan.Hash()+".tvcj")
	j, err := campaign.OpenJournal(jpath, plan)
	if err != nil {
		return 0, err
	}
	defer os.Remove(jpath)
	start := time.Now()
	for i, line := range w.firstLines {
		if err := j.Append(i, campaign.ClassRestored, line); err != nil {
			j.Close()
			return 0, err
		}
	}
	d := time.Since(start)
	if err := j.Close(); err != nil {
		return 0, err
	}
	return us(meanOf(d, len(w.firstLines))), nil
}

func (w *sweepWarm) laneName(lane int) string {
	if lane == executorLane {
		return "campaign executor"
	}
	return fmt.Sprintf("cell worker %d", lane)
}

func (w *sweepWarm) close() {}

// --------------------------------------------------------------- serve-mixed

// serveMixed is an open loop of /v1/run requests over loopback HTTP to an
// in-process serve.Server backed by a store.Store on disk. Popular cells are
// answered from the LRU or the store (the HTTP and cache path); the rest
// simulate, restore shared snapshots and fsync store records. Requests are
// timed from when they were due, so a stall also charges the requests
// queued behind it.
type serveMixed struct {
	c      *config
	cells  []tvsched.Config
	st     *store.Store
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client

	before, after obs.ServeSnapshot
	// restored of simulated runs restored a warm snapshot (traced runs).
	restored, simulated int
}

func (w *serveMixed) setup(ctx context.Context) error {
	w.cells = grid(w.c.sz, w.c.seed)
	dir, err := os.MkdirTemp(w.c.tmp, "store-")
	if err != nil {
		return err
	}
	if w.st, err = store.Open(dir, 0); err != nil {
		return err
	}
	traceSpans := 0 // the server's default flight recorder
	if w.c.traced {
		// Room for every span of the run, so each request's server-side
		// spans can be read back after it.
		traceSpans = 1 << 14
	}
	w.srv = serve.New(serve.Config{Workers: workers, CacheEntries: 64, Store: w.st, TraceSpans: traceSpans})
	w.hs = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	cfg := w.cells[0]
	cfg.Seed = throwawaySeed
	ex := post(ctx, w.client, w.url(), requestBody(cfg))
	return ex.err
}

func (w *serveMixed) url() string { return w.hs.URL + "/v1/run" }

func requestBody(cfg tvsched.Config) []byte {
	b, _ := json.Marshal(serve.RunRequest{Schema: serve.RunRequestSchema, Benchmark: cfg.Benchmark,
		Scheme: cfg.Scheme.String(), VDD: cfg.VDD, Instructions: cfg.Instructions,
		Warmup: cfg.Warmup, Seed: cfg.Seed})
	return b
}

// schedule draws the open loop's arrivals: n = rate × window Poisson
// arrivals in the window (uniform times, sorted — a Poisson process
// conditioned on its count, so every seed offers the same load), each
// picking a cell by Zipf popularity over a seeded ranking of the cells.
func schedule(sz size, seed uint64, window time.Duration, ncells int) (due []time.Duration, pick []int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(sz.rate*window.Seconds() + 0.5)
	due = make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	rank := rng.Perm(ncells)
	zipf := rand.NewZipf(rng, sz.zipf, 1, uint64(ncells-1))
	pick = make([]int, n)
	for i := range pick {
		pick[i] = rank[zipf.Uint64()]
	}
	return due, pick
}

func (w *serveMixed) run(ctx context.Context) ([]op, time.Duration, error) {
	warm := w.c.sz.serveWarmup
	due, pick := schedule(w.c.sz, w.c.seed, warm+w.c.window, len(w.cells))
	bodies := make([][]byte, len(due))
	for i, c := range pick {
		bodies[i] = requestBody(w.cells[c])
	}
	// The arrivals of the first warm seconds fill the empty cache and store
	// untimed: a restarted server meets that transient once, not on every
	// request. Their answers are still checked.
	split := sort.Search(len(due), func(i int) bool { return due[i] >= warm })
	var ops []op
	for i, ex := range openLoop(ctx, w.client, w.url(), time.Now(), due[:split], bodies[:split]) {
		o := w.opFor(w.cells[pick[i]], &ex)
		o.warmup = true
		ops = append(ops, o)
	}
	for i := split; i < len(due); i++ {
		due[i] -= warm
	}
	w.before = w.srv.Metrics().Snapshot()
	start := time.Now()
	exs := openLoop(ctx, w.client, w.url(), start, due[split:], bodies[split:])
	w.after = w.srv.Metrics().Snapshot()
	var last time.Duration
	for i := range exs {
		o := w.opFor(w.cells[pick[split+i]], &exs[i])
		o.id = i
		ops = append(ops, o)
		last = max(last, exs[i].done)
		w.c.tr.add("request", i, exs[i].lane, start.Add(due[split+i]), start.Add(exs[i].done))
		w.c.tr.add("http", i, exs[i].lane, start.Add(exs[i].sent), start.Add(exs[i].done))
	}
	if w.c.tr != nil {
		w.importServerSpans(ops[split:])
	}
	return ops, last, nil
}

func (w *serveMixed) opFor(cfg tvsched.Config, ex *exchange) op {
	o := op{key: cellKey(cfg), cfg: cfg, lat: ex.latency, done: ex.done, class: ex.cache, source: ex.source,
		body: ex.body, err: ex.err, lane: ex.lane, late: ex.late, reqID: ex.reqID}
	if o.err == nil && ex.digest != cfg.Digest() {
		o.err = fmt.Errorf("X-Tvsched-Digest %.12s, want %.12s", ex.digest, cfg.Digest())
	}
	return o
}

func (w *serveMixed) exhaustive(ctx context.Context) ([]op, error) {
	ops := make([]op, len(w.cells))
	for i, cfg := range w.cells {
		ex := post(ctx, w.client, w.url(), requestBody(cfg))
		ops[i] = w.opFor(cfg, &ex)
	}
	return ops, nil
}

func (w *serveMixed) laneName(lane int) string { return fmt.Sprintf("connection %d", lane) }

func (w *serveMixed) close() {
	if w.hs != nil {
		w.hs.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.st != nil {
		w.st.Close()
	}
}
