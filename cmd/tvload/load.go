package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tvsched"
	"tvsched/internal/serve"
)

// loadReportSchema tags the report of every load mode.
const loadReportSchema = "tvsched/load-report/v2"

// loadConfig parameterizes one closed-loop load run: each of Concurrency
// workers keeps exactly one request in flight, drawing from a fixed
// population of distinct request cells with a Zipf-skewed popularity, and
// sends it to a node drawn from URLs. The mix and the node sequence are
// seeded per worker (Seed+worker), so the same config issues the same
// requests regardless of scheduling.
type loadConfig struct {
	URLs        []string
	Concurrency int
	Requests    int
	Seed        uint64
	Population  int
	// ZipfS > 1 skews popularity toward the head of the population; values
	// in (0, 1] request a uniform mix.
	ZipfS        float64
	Instructions uint64
	Warmup       uint64
	VDD          float64
	// Benchmarks and Schemes cycle independently to build the population.
	Benchmarks []string
	Schemes    []string
	// Timeout bounds one HTTP request.
	Timeout time.Duration
	// Chaos adds the post-load phase: anti-entropy rounds on every node,
	// the cross-node replica audit and the breaker scrape.
	Chaos bool
}

// defaultConfig is the configuration tvload's flags default to.
func defaultConfig() loadConfig {
	return loadConfig{
		Concurrency:  8,
		Requests:     200,
		Seed:         1,
		Population:   64,
		ZipfS:        1.3,
		Instructions: 20000,
		VDD:          tvsched.VHighFault,
		Benchmarks:   tvsched.Benchmarks(),
		Schemes:      []string{"ABS"},
		Timeout:      2 * time.Minute,
	}
}

// population expands the config into its distinct request cells, in
// popularity-rank order (cell 0 is the Zipf head). The seed advances once
// per benchmark cycle, so every cell is a distinct simulation.
func (c *loadConfig) population() []serve.RunRequest {
	cells := make([]serve.RunRequest, c.Population)
	for i := range cells {
		cells[i] = serve.RunRequest{
			Schema:       serve.RunRequestSchema,
			Benchmark:    c.Benchmarks[i%len(c.Benchmarks)],
			Scheme:       c.Schemes[i%len(c.Schemes)],
			VDD:          c.VDD,
			Instructions: c.Instructions,
			Warmup:       c.Warmup,
			Seed:         c.Seed + uint64(i/len(c.Benchmarks)),
		}
	}
	return cells
}

// counts classifies responses as the client saw them. Workers keep one per
// node; the report and each node entry carry their sums.
type counts struct {
	Sent uint64 `json:"sent"`
	// OK counts 200 answers with a fully read body; Hits, Shared and Misses
	// split them by X-Tvsched-Cache.
	OK     uint64 `json:"ok"`
	Hits   uint64 `json:"hits"`
	Shared uint64 `json:"shared"`
	Misses uint64 `json:"misses"`
	// Stolen and Degraded are subsets of Misses by X-Tvsched-Source: bytes
	// another node produced (forward or peer), and answers computed for an
	// unreachable owner (compute-degraded).
	Stolen   uint64 `json:"stolen"`
	Degraded uint64 `json:"degraded"`
	// Rejected counts 429s; Errors counts everything else, including a 200
	// whose body could not be read.
	Rejected uint64 `json:"rejected"`
	Errors   uint64 `json:"errors"`

	lat []float64 // µs, one sample per answered request
}

func (c *counts) add(o *counts) {
	c.Sent += o.Sent
	c.OK += o.OK
	c.Hits += o.Hits
	c.Shared += o.Shared
	c.Misses += o.Misses
	c.Stolen += o.Stolen
	c.Degraded += o.Degraded
	c.Rejected += o.Rejected
	c.Errors += o.Errors
	c.lat = append(c.lat, o.lat...)
}

// latency condenses a set of latency samples.
type latency struct {
	MeanUS float64 `json:"latency_mean_us"`
	P50US  float64 `json:"latency_p50_us"`
	P90US  float64 `json:"latency_p90_us"`
	P99US  float64 `json:"latency_p99_us"`
	MaxUS  float64 `json:"latency_max_us"`
}

func summarize(lat []float64) latency {
	if len(lat) == 0 {
		return latency{}
	}
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	pick := func(q float64) float64 { return lat[int(q*float64(len(lat)-1))] }
	return latency{sum / float64(len(lat)), pick(0.50), pick(0.90), pick(0.99), lat[len(lat)-1]}
}

// nodeStats is one target URL's share of the run.
type nodeStats struct {
	URL string `json:"url"`
	counts
	latency
}

// loadReport is the outcome of a load run (schema tvsched/load-report/v2).
// The request mix is deterministic given the config; throughput and
// latency are wall-clock measurements of the serving stack.
type loadReport struct {
	Schema      string  `json:"schema"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Population  int     `json:"population"`
	ZipfS       float64 `json:"zipf_s"`
	Seed        uint64  `json:"seed"`
	// DurationSec covers first request sent to last response read.
	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	counts
	// HitRate is (hits+shared)/ok; Availability is ok over every answered
	// or failed request.
	HitRate      float64 `json:"hit_rate"`
	Availability float64 `json:"availability"`
	// Divergences counts 200 bodies that disagreed with the first body seen
	// for their digest, from any node. Determinism makes the only
	// acceptable value zero.
	Divergences uint64 `json:"divergences"`
	latency
	// The chaos phase's fields are present only when it ran.
	*repairPhase
	Nodes []nodeStats `json:"nodes"`
}

// failed reports whether the run saw a request error or a byte divergence —
// the outcomes that make tvload exit nonzero.
func (r *loadReport) failed() bool {
	return r.Errors > 0 || r.Divergences > 0 || (r.repairPhase != nil && r.PostRepairDivergences > 0)
}

// repairPhase is the chaos drill's post-load accounting.
type repairPhase struct {
	// Anti-entropy, summed over every round on every node.
	RepairChecked  uint64 `json:"repair_checked"`
	RepairDiverged uint64 `json:"repair_diverged"`
	Repaired       uint64 `json:"repaired"`
	// The audit re-fetches every digest the load touched from every node;
	// a digest counts as divergent when two nodes hold different bytes.
	PostRepairDigests     int    `json:"post_repair_digests"`
	PostRepairDivergences uint64 `json:"post_repair_divergences"`
	// BreakerOpens sums every node's transitions of a peer breaker to open.
	BreakerOpens uint64 `json:"breaker_opens"`
}

// repairRounds is how many anti-entropy passes the chaos phase drives per
// node: the first repairs and flushes owed replicas, the second confirms
// the cluster converged.
const repairRounds = 2

// byteCheck hashes every 200 body per digest and counts bodies that
// disagree with the first one seen.
type byteCheck struct {
	mu          sync.Mutex
	seen        map[string]uint64
	divergences uint64
}

func (b *byteCheck) add(digest string, body []byte) {
	if digest == "" {
		return
	}
	sum := hash(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.seen[digest]; !ok {
		b.seen[digest] = sum
	} else if prev != sum {
		b.divergences++
	}
}

func hash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runLoad drives the load, then the chaos phase when configured.
func runLoad(ctx context.Context, cfg loadConfig) (*loadReport, error) {
	if len(cfg.URLs) == 0 {
		return nil, errors.New("no server URL")
	}
	bodies := make([][]byte, cfg.Population)
	for i, cell := range cfg.population() {
		b, err := json.Marshal(cell)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	client := &http.Client{Timeout: cfg.Timeout}
	check := &byteCheck{seen: make(map[string]uint64)}
	tallies := make([][]counts, cfg.Concurrency) // [worker][node]
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range tallies {
		tallies[w] = make([]counts, len(cfg.URLs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(w)))
			var zipf *rand.Zipf
			if cfg.ZipfS > 1 && len(bodies) > 1 {
				zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(bodies)-1))
			}
			for issued.Add(1) <= int64(cfg.Requests) && ctx.Err() == nil {
				idx, node := 0, 0
				if zipf != nil {
					idx = int(zipf.Uint64())
				} else if len(bodies) > 1 {
					idx = rng.Intn(len(bodies))
				}
				if len(cfg.URLs) > 1 {
					node = rng.Intn(len(cfg.URLs))
				}
				post(ctx, client, cfg.URLs[node], bodies[idx], &tallies[w][node], check)
			}
		}(w)
	}
	wg.Wait()
	dur := time.Since(start)

	rep := &loadReport{
		Schema:      loadReportSchema,
		Concurrency: cfg.Concurrency,
		Requests:    cfg.Requests,
		Population:  cfg.Population,
		ZipfS:       cfg.ZipfS,
		Seed:        cfg.Seed,
		DurationSec: dur.Seconds(),
		Divergences: check.divergences,
	}
	for n, url := range cfg.URLs {
		ns := nodeStats{URL: url}
		for w := range tallies {
			ns.add(&tallies[w][n])
		}
		rep.add(&ns.counts)
		ns.latency = summarize(ns.lat)
		rep.Nodes = append(rep.Nodes, ns)
	}
	rep.latency = summarize(rep.lat)
	if answered := rep.OK + rep.Rejected + rep.Errors; answered > 0 {
		rep.ThroughputRPS = float64(answered) / dur.Seconds()
		rep.Availability = float64(rep.OK) / float64(answered)
	}
	if rep.OK > 0 {
		rep.HitRate = float64(rep.Hits+rep.Shared) / float64(rep.OK)
	}
	if cfg.Chaos {
		digests := make([]string, 0, len(check.seen))
		for d := range check.seen {
			digests = append(digests, d)
		}
		sort.Strings(digests)
		var err error
		if rep.repairPhase, err = repair(ctx, client, cfg.URLs, digests); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// post sends one run request and classifies the answer into t.
func post(ctx context.Context, client *http.Client, url string, body []byte, t *counts, check *byteCheck) {
	t.Sent++
	t0 := time.Now()
	resp, got, err := fetch(ctx, client, http.MethodPost, url+"/v1/run", body)
	if err != nil {
		t.Errors++
		return
	}
	t.lat = append(t.lat, float64(time.Since(t0).Microseconds()))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		t.Rejected++
	case resp.StatusCode != http.StatusOK:
		t.Errors++
	default:
		t.OK++
		check.add(resp.Header.Get("X-Tvsched-Digest"), got)
		switch resp.Header.Get("X-Tvsched-Cache") {
		case "hit":
			t.Hits++
		case "shared":
			t.Shared++
		default:
			t.Misses++
			switch resp.Header.Get(serve.SourceHeader) {
			case "forward", "peer":
				t.Stolen++
			case "compute-degraded":
				t.Degraded++
			}
		}
	}
}

// fetch sends one request (a JSON body when body is non-nil) and reads the
// whole answer; a body that cannot be read in full is an error.
func fetch(ctx context.Context, client *http.Client, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp, got, err
}

// repair drives anti-entropy on every node, audits every digest across all
// nodes that hold it, and sums the breakers' opens from /metrics.
func repair(ctx context.Context, client *http.Client, urls, digests []string) (*repairPhase, error) {
	ph := &repairPhase{PostRepairDigests: len(digests)}
	for round := 0; round < repairRounds; round++ {
		for _, u := range urls {
			resp, body, err := fetch(ctx, client, http.MethodPost, u+"/v1/anti-entropy", nil)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			var out struct{ Checked, Diverged, Repaired uint64 }
			if err == nil {
				err = json.Unmarshal(body, &out)
			}
			if err != nil {
				return nil, fmt.Errorf("anti-entropy on %s: %w", u, err)
			}
			ph.RepairChecked += out.Checked
			ph.RepairDiverged += out.Diverged
			ph.Repaired += out.Repaired
		}
	}
	for _, d := range digests {
		var sums []uint64
		for _, u := range urls {
			resp, body, err := fetch(ctx, client, http.MethodGet, u+"/v1/result/"+d, nil)
			if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			if err != nil {
				return nil, fmt.Errorf("audit fetch %s from %s: %w", d, u, err)
			}
			if resp.StatusCode == http.StatusOK { // a node that does not hold d is skipped
				sums = append(sums, hash(body))
			}
		}
		for _, s := range sums {
			if s != sums[0] {
				ph.PostRepairDivergences++
				break
			}
		}
	}
	for _, u := range urls {
		_, body, err := fetch(ctx, client, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, fmt.Errorf("metrics scrape on %s: %w", u, err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if !strings.Contains(line, "breaker_transitions_total{") || !strings.Contains(line, `to="open"`) {
				continue
			}
			f := strings.Fields(line)
			if v, err := strconv.ParseUint(f[len(f)-1], 10, 64); err == nil {
				ph.BreakerOpens += v
			}
		}
	}
	return ph, nil
}
