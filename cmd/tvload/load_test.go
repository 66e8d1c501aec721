package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tvsched"
	"tvsched/internal/cluster"
	"tvsched/internal/resil/chaos"
	"tvsched/internal/resolve"
	"tvsched/internal/serve"
)

const gatesFile = "../../.github/gates.json"

// stubRunner fakes a simulation from the config, counting runs. skew shifts
// the cycle count of seed-1 bzip2 cells, so two nodes with different skews
// answer exactly those digests with different bytes.
func stubRunner(runs *atomic.Int64, skew uint64) serve.Runner {
	return func(ctx context.Context, cfg tvsched.Config, checkpoint bool) (tvsched.Result, resolve.Source, error) {
		runs.Add(1)
		st := tvsched.PipeStats{Committed: cfg.Instructions, Cycles: cfg.Instructions*2 + cfg.Seed}
		if cfg.Benchmark == "bzip2" && cfg.Seed == 1 {
			st.Cycles += skew
		}
		return tvsched.Result{IPC: st.IPC(), Stats: st}, resolve.Cold, nil
	}
}

type node struct {
	srv  *serve.Server
	url  string
	runs *atomic.Int64
}

// newNode serves cfg over a test listener, with a stub runner of the given
// skew unless cfg brings its own runner.
func newNode(t *testing.T, cfg serve.Config, skew uint64) node {
	t.Helper()
	runs := &atomic.Int64{}
	if cfg.Runner == nil {
		cfg.Runner = stubRunner(runs, skew)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return node{srv: s, url: ts.URL, runs: runs}
}

// newCluster builds two nodes and joins them into each other's rings.
func newCluster(t *testing.T, cfgA, cfgB serve.Config) (a, b node) {
	t.Helper()
	a, b = newNode(t, cfgA, 0), newNode(t, cfgB, 0)
	if err := a.srv.SetPeers("a", []cluster.Peer{{ID: "b", URL: b.url}}); err != nil {
		t.Fatal(err)
	}
	if err := b.srv.SetPeers("b", []cluster.Peer{{ID: "a", URL: a.url}}); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// testConfig is a small stub-sized load against urls.
func testConfig(urls ...string) loadConfig {
	cfg := defaultConfig()
	cfg.URLs = urls
	cfg.Concurrency = 4
	cfg.Instructions = 1000
	return cfg
}

var (
	tvgateOnce sync.Once
	tvgateBin  string
	tvgateErr  error
)

// gate runs the real tvgate binary on an artifact against the checked-in
// gates file and returns its exit code.
func gate(t *testing.T, name, artifact string) int {
	t.Helper()
	tvgateOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tvgate")
		if err != nil {
			tvgateErr = err
			return
		}
		tvgateBin = filepath.Join(dir, "tvgate")
		out, err := exec.Command("go", "build", "-o", tvgateBin, "tvsched/cmd/tvgate").CombinedOutput()
		if err != nil {
			tvgateErr = errors.New(string(out))
		}
	})
	if tvgateErr != nil {
		t.Fatalf("building tvgate: %v", tvgateErr)
	}
	cmd := exec.Command(tvgateBin, "-gates", gatesFile, name, artifact)
	out, err := cmd.CombinedOutput()
	t.Logf("tvgate %s: %s", name, out)
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// writeReport renders a report as tvload -out does and returns the path.
func writeReport(t *testing.T, rep any) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeJSON(rep, path, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunLoadAccounting drives the load against a stub-backed server and
// checks the books balance: every request accounted for exactly once, the
// Zipf mix repeat-heavy enough that the cache absorbs most of it, and
// percentiles ordered.
func TestRunLoadAccounting(t *testing.T) {
	n := newNode(t, serve.Config{Workers: 4}, 0)
	cfg := testConfig(n.url)
	cfg.Requests, cfg.Population, cfg.Instructions = 300, 16, 20000
	rep, err := runLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total := rep.Hits + rep.Shared + rep.Misses + rep.Rejected + rep.Errors; total != 300 || rep.Sent != 300 {
		t.Fatalf("accounted %d (sent %d) of 300 requests: %+v", total, rep.Sent, rep)
	}
	if rep.Errors != 0 || rep.Rejected != 0 || rep.Availability != 1 {
		t.Fatalf("errors=%d rejected=%d availability=%v against an idle stub server", rep.Errors, rep.Rejected, rep.Availability)
	}
	// The population bounds distinct simulations; the Zipf mix must revisit.
	if rep.Misses > uint64(rep.Population) {
		t.Fatalf("%d misses for a population of %d: cache not engaged", rep.Misses, rep.Population)
	}
	if n.runs.Load() > int64(rep.Population) {
		t.Fatalf("%d simulations for %d distinct cells", n.runs.Load(), rep.Population)
	}
	if rep.HitRate <= 0.5 {
		t.Fatalf("hit rate %.2f too low for a Zipf 1.3 mix over 16 cells", rep.HitRate)
	}
	if l := rep.latency; !(l.P50US <= l.P90US && l.P90US <= l.P99US && l.P99US <= l.MaxUS) || l.MeanUS <= 0 {
		t.Fatalf("percentiles out of order: %+v", l)
	}
	if rep.ThroughputRPS <= 0 || rep.DurationSec <= 0 {
		t.Fatalf("degenerate throughput: %+v", rep)
	}
	if rep.Schema != loadReportSchema || rep.repairPhase != nil || len(rep.Nodes) != 1 || rep.Nodes[0].Sent != 300 {
		t.Fatalf("schema %q, repair phase %v, nodes %+v", rep.Schema, rep.repairPhase, rep.Nodes)
	}
}

// TestLoadPopulationDeterminism pins that the population derivation depends
// only on the config, so a load run names the same simulations on every
// machine.
func TestLoadPopulationDeterminism(t *testing.T) {
	cfg := defaultConfig()
	cfg.Population, cfg.Benchmarks, cfg.Schemes = 8, []string{"bzip2", "sjeng"}, []string{"ABS", "EP"}
	a, b := cfg.population(), cfg.population()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("population not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Benchmarks and schemes cycle independently; seeds advance per
	// benchmark cycle so every cell is distinct.
	seen := map[string]bool{}
	for _, cell := range a {
		c, err := cell.Config()
		if err != nil {
			t.Fatal(err)
		}
		d := c.Digest()
		if seen[d] {
			t.Fatalf("duplicate digest in population: %+v", cell)
		}
		seen[d] = true
	}
}

// TestRunClusterLoad sprays a seeded mix at two peered nodes: every request
// lands, no divergences, the per-node breakdown sums to the aggregate,
// cross-node traffic on a shared digest population produces stolen
// responses, and the cluster gate passes the report.
func TestRunClusterLoad(t *testing.T) {
	a, b := newCluster(t, serve.Config{}, serve.Config{})
	cfg := testConfig(a.url, b.url)
	cfg.Requests, cfg.Population = 60, 8
	rep, err := runLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Rejected != 0 || rep.Divergences != 0 {
		t.Fatalf("errors=%d rejected=%d divergences=%d, want a clean run", rep.Errors, rep.Rejected, rep.Divergences)
	}
	if got := rep.Hits + rep.Shared + rep.Misses; got != 60 {
		t.Fatalf("classified %d responses, want all 60", got)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("%d node entries, want 2", len(rep.Nodes))
	}
	var sent, stolen uint64
	for _, n := range rep.Nodes {
		sent += n.Sent
		stolen += n.Stolen
		if n.Sent == 0 {
			t.Fatalf("node %s saw no traffic", n.URL)
		}
	}
	if sent != 60 || stolen != rep.Stolen {
		t.Fatalf("per-node sums sent=%d stolen=%d, want 60 and %d", sent, stolen, rep.Stolen)
	}
	// 8 digests sprayed over 2 nodes: some first touches must land at the
	// non-owner and come back forwarded.
	if rep.Stolen == 0 || rep.Stolen > rep.Misses {
		t.Fatalf("stolen=%d misses=%d, want 0 < stolen <= misses", rep.Stolen, rep.Misses)
	}
	// At most one simulation per digest cluster-wide.
	if total := a.runs.Load() + b.runs.Load(); total < 1 || total > 8 {
		t.Fatalf("cluster simulated %d times over 8 distinct digests", total)
	}
	if code := gate(t, "cluster", writeReport(t, rep)); code != 0 {
		t.Fatalf("cluster gate exit %d on a clean cluster run", code)
	}
}

// TestUnreadableBodyIsAnError answers 200 with a body shorter than its
// Content-Length. Such an answer carries no usable bytes, so it is an error
// whether the load targets one node or sprays several.
func TestUnreadableBodyIsAnError(t *testing.T) {
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Header().Set("X-Tvsched-Cache", "miss")
		io.WriteString(w, "short")
	}))
	defer short.Close()
	for _, urls := range [][]string{{short.URL}, {short.URL, short.URL}} {
		cfg := testConfig(urls...)
		cfg.Requests, cfg.Population = 5, 4
		rep, err := runLoad(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 5 || rep.OK != 0 || rep.Misses != 0 || !rep.failed() {
			t.Fatalf("%d node(s): errors=%d ok=%d misses=%d, want 5 errors", len(urls), rep.Errors, rep.OK, rep.Misses)
		}
	}
}

// TestDivergentNodesFail proves the byte check can fire: two unpeered nodes
// answer one digest with different bytes, so the report counts divergences,
// tvload exits nonzero and the cluster gate fails the report.
func TestDivergentNodesFail(t *testing.T) {
	a, b := newNode(t, serve.Config{}, 0), newNode(t, serve.Config{}, 1)
	out := filepath.Join(t.TempDir(), "cluster.json")
	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-url", a.url + "," + b.url, "-c", "2", "-n", "40",
		"-pop", "4", "-benchmarks", "bzip2,sjeng", "-insts", "1000", "-out", out}, io.Discard, &stderr)
	if code != 1 {
		t.Fatalf("tvload exit %d over divergent nodes, want 1; stderr:\n%s", code, &stderr)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct{ Divergences, Errors uint64 }
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Divergences == 0 || rep.Errors != 0 {
		t.Fatalf("divergences=%d errors=%d, want divergences > 0 and no errors", rep.Divergences, rep.Errors)
	}
	if code := gate(t, "cluster", out); code != 1 {
		t.Fatalf("cluster gate exit %d on a divergent report, want 1", code)
	}
}

// TestChaosDrill runs the drill against two peered nodes while a chaos
// transport blacks out node a's first calls to b: clients stay answered,
// some answers are degraded, no replica diverges after anti-entropy, and
// the chaos gate passes the report.
func TestChaosDrill(t *testing.T) {
	tr := chaos.NewTransport(chaos.Plan{Seed: 42, Blackouts: []chaos.Blackout{{Host: "*", From: 0, To: 20}}}, nil)
	a, b := newCluster(t, serve.Config{
		PeerTransport:      tr,
		Repair:             true,
		ResilSeed:          7,
		BreakerCooldown:    10 * time.Millisecond,
		BreakerCooldownMax: 50 * time.Millisecond,
	}, serve.Config{Repair: true, ResilSeed: 8})
	cfg := testConfig(a.url, b.url)
	cfg.Requests, cfg.Population, cfg.ZipfS, cfg.Seed, cfg.Chaos = 120, 24, 1.2, 5, true
	rep, err := runLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph := rep.repairPhase
	if ph == nil || rep.Errors != 0 || rep.Degraded < 1 || ph.PostRepairDivergences != 0 || rep.Divergences != 0 {
		t.Fatalf("errors=%d degraded=%d divergences=%d repair=%+v, want a clean drill with degraded answers",
			rep.Errors, rep.Degraded, rep.Divergences, ph)
	}
	if ph.PostRepairDigests == 0 || ph.RepairChecked == 0 || ph.BreakerOpens == 0 {
		t.Fatalf("repair phase %+v: audit, anti-entropy or breaker never engaged", ph)
	}
	if a.runs.Load()+b.runs.Load() == 0 {
		t.Fatal("no simulation ran")
	}
	if code := gate(t, "chaos", writeReport(t, rep)); code != 0 {
		t.Fatalf("chaos gate exit %d on a clean drill", code)
	}
}

// TestChaosAuditSkipsUnheldDigests evicts almost every result (one-entry
// caches, no store), so the audit meets digests no node holds any more. A
// digest nobody holds is skipped like a node that never held it.
func TestChaosAuditSkipsUnheldDigests(t *testing.T) {
	a, b := newCluster(t, serve.Config{CacheEntries: 1}, serve.Config{CacheEntries: 1})
	cfg := testConfig(a.url, b.url)
	cfg.Requests, cfg.Population, cfg.Chaos = 40, 16, true
	rep, err := runLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ph := rep.repairPhase; ph == nil || ph.PostRepairDigests < 3 || ph.PostRepairDivergences != 0 || rep.Errors != 0 {
		t.Fatalf("errors=%d repair=%+v, want a clean audit over every touched digest", rep.Errors, ph)
	}
}

// TestGateFieldsExist checks every field a load-report/v2 or
// campaign-bench/v1 gate names against a report the driver produced, so a
// renamed field cannot make a gate pass vacuously.
func TestGateFieldsExist(t *testing.T) {
	blob, err := os.ReadFile(gatesFile)
	if err != nil {
		t.Fatal(err)
	}
	var gates map[string]struct {
		Schema   string
		Min, Max map[string]float64
		Equal    map[string]string
	}
	if err := json.Unmarshal(blob, &gates); err != nil {
		t.Fatal(err)
	}

	a, b := newCluster(t, serve.Config{}, serve.Config{})
	cfg := testConfig(a.url, b.url)
	cfg.Requests, cfg.Population, cfg.Chaos = 20, 4, true
	load, err := runLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp := newNode(t, serve.Config{CampaignDir: t.TempDir()}, 0)
	bench, err := runCampaignBench(context.Background(), benchConfig{
		URL: camp.url, Benchmark: "bzip2", Warmup: 1000, Instructions: 1000, Seed: 1, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if bench.CachedSkipRatio != 1 || bench.Cells != 10 {
		t.Fatalf("campaign bench over a stub server: %+v", bench)
	}
	reports := map[string]map[string]any{}
	for _, rep := range []any{load, bench} {
		var doc map[string]any
		blob, err := json.Marshal(rep)
		if err == nil {
			err = json.Unmarshal(blob, &doc)
		}
		if err != nil {
			t.Fatal(err)
		}
		reports[doc["schema"].(string)] = doc
	}

	checked := map[string]int{}
	for name, g := range gates {
		doc, ok := reports[g.Schema]
		if !ok {
			continue
		}
		var fields []string
		for f := range g.Min {
			fields = append(fields, f)
		}
		for f := range g.Max {
			fields = append(fields, f)
		}
		for f, other := range g.Equal {
			fields = append(fields, f, other)
		}
		for _, f := range fields {
			if _, ok := doc[f].(float64); !ok {
				t.Errorf("gate %q names %q, which no %s report carries as a number", name, f, g.Schema)
			}
			checked[g.Schema]++
		}
	}
	if checked[loadReportSchema] == 0 || checked[campaignBenchSchema] == 0 {
		t.Fatalf("gates file names no fields of both report schemas: %v", checked)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tvgateBin != "" {
		os.RemoveAll(filepath.Dir(tvgateBin))
	}
	os.Exit(code)
}
