// Command tvload is a seeded closed-loop load generator for tvservd: each
// worker keeps one request in flight, drawing from a fixed population of
// distinct simulations with Zipf-skewed popularity — the hot head exercises
// the server's result cache and singleflight, the tail its worker pool. The
// request mix is deterministic given -seed, so two load runs offer the same
// work; throughput and latency are what the server made of it.
//
// -url takes one base URL or a comma-separated list of cluster nodes; each
// request then goes to a node drawn from the worker's generator, so every
// node sees every digest. The outcome is a load-report/v2 JSON on stdout
// (or -out) and a human summary on stderr: outcome counts as the client saw
// them (cache hits, answers whose bytes came from a peer, degraded
// answers), availability, latency percentiles, a per-node breakdown, and a
// byte-consistency check — every 200 body is hashed per digest, and
// divergences counts bodies that disagree with the first seen.
//
// With -chaos, for a cluster running under fault injection (tvservd
// -chaos), the load is followed by two anti-entropy rounds on every node,
// an audit that re-fetches every touched digest from every node and
// compares the replicas, and a scrape of the breakers' opens from
// /metrics.
//
// With -campaignbench, tvload instead times one warmup-heavy ten-cell grid
// as three campaigns against a server started with -campaign-dir —
// cell-independent, the engine's shared-prefix execution, and a cached
// re-campaign — and emits a campaign-bench/v1 JSON.
//
// tvload exits 1 on any request error or byte divergence. The reports'
// bounds are checked by cmd/tvgate against .github/gates.json.
//
// Usage:
//
//	tvload -url http://127.0.0.1:8844                 # default mix
//	tvload -url http://$addr -c 16 -n 2000 -zipf 1.4  # hotter, harder
//	tvload -url http://$addr -zipf 1 -pop 64 -n 64    # uniform cold sweep
//	tvload -url http://$a,http://$b -out cluster.json # sprayed over two nodes
//	tvload -url http://$a,http://$b -chaos -out chaos.json
//	tvload -url http://$addr -campaignbench -out campbench.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is tvload's command line: it returns 0 on a clean run, 1 on a failed
// run or any request error or byte divergence, and 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("tvload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		urls    = fs.String("url", "http://127.0.0.1:8844", "tvservd base URL, or a comma-separated list of cluster nodes to spray the mix across")
		insts   = fs.Uint64("insts", 0, "measured instructions per cell (0 = 20000, or 8000 with -campaignbench)")
		warmup  = fs.Uint64("warmup", 0, "warmup instructions per cell (0 = library default, or 120000 with -campaignbench)")
		benches = fs.String("benchmarks", "", "comma-separated benchmarks (empty = all; -campaignbench uses the first, default bzip2)")
		schemes = fs.String("schemes", "ABS", "comma-separated schemes to cycle through")
		out     = fs.String("out", "", "write the JSON report to this file (empty = stdout)")
		bench   = fs.Bool("campaignbench", false, "time independent vs engine vs cached campaigns instead of generating load (server needs -campaign-dir)")
	)
	fs.IntVar(&cfg.Concurrency, "c", cfg.Concurrency, "closed-loop concurrency")
	fs.IntVar(&cfg.Requests, "n", cfg.Requests, "total requests")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "request-mix seed")
	fs.IntVar(&cfg.Population, "pop", cfg.Population, "distinct request cells in the population")
	fs.Float64Var(&cfg.ZipfS, "zipf", cfg.ZipfS, "Zipf skew (>1; 1 means uniform mix)")
	fs.Float64Var(&cfg.VDD, "vdd", cfg.VDD, "supply voltage for every cell")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "per-request timeout (per campaign with -campaignbench)")
	fs.BoolVar(&cfg.Chaos, "chaos", false, "after the load: anti-entropy on every node, a cross-node audit of every touched digest, and a breaker scrape")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, u := range strings.Split(*urls, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			cfg.URLs = append(cfg.URLs, u)
		}
	}
	if len(cfg.URLs) == 0 || cfg.Concurrency <= 0 || cfg.Population <= 0 || *schemes == "" {
		fmt.Fprintln(stderr, "tvload: -url, -c, -pop and -schemes must be non-empty")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tvload:", err)
		return 1
	}

	if *bench {
		bc := benchConfig{URL: cfg.URLs[0], Benchmark: "bzip2", Warmup: 120000, Instructions: 8000, Seed: cfg.Seed, Timeout: cfg.Timeout}
		if *benches != "" {
			bc.Benchmark = strings.Split(*benches, ",")[0]
		}
		if *insts != 0 {
			bc.Instructions = *insts
		}
		if *warmup != 0 {
			bc.Warmup = *warmup
		}
		rep, err := runCampaignBench(ctx, bc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "tvload: campaignbench %s: %d cells: independent %.2fs, engine %.2fs (%.2fx), cached %.2fs (skip ratio %.2f)\n",
			rep.Benchmark, rep.Cells, float64(rep.IndependentNS)/1e9, float64(rep.EngineNS)/1e9,
			rep.Speedup, float64(rep.CachedNS)/1e9, rep.CachedSkipRatio)
		if err := writeJSON(rep, *out, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	cfg.Schemes = strings.Split(*schemes, ",")
	if *insts != 0 {
		cfg.Instructions = *insts
	}
	cfg.Warmup = *warmup
	rep, err := runLoad(ctx, cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr,
		"tvload: %d reqs over %d node(s), %d workers, zipf %.2f over %d cells: %.1f req/s, availability %.2f%%, hit rate %.0f%% (%d hit / %d shared / %d miss, %d stolen, %d degraded / %d rejected / %d error), %d divergences\n",
		rep.Requests, len(rep.Nodes), rep.Concurrency, rep.ZipfS, rep.Population, rep.ThroughputRPS,
		100*rep.Availability, 100*rep.HitRate, rep.Hits, rep.Shared, rep.Misses, rep.Stolen,
		rep.Degraded, rep.Rejected, rep.Errors, rep.Divergences)
	fmt.Fprintf(stderr, "tvload: latency µs: p50 %.0f p90 %.0f p99 %.0f max %.0f\n",
		rep.P50US, rep.P90US, rep.P99US, rep.MaxUS)
	if len(rep.Nodes) > 1 {
		for _, n := range rep.Nodes {
			fmt.Fprintf(stderr, "tvload:   %s: %d reqs, %d hit / %d shared / %d miss (%d stolen, %d degraded), p50 %.0fµs\n",
				n.URL, n.Sent, n.Hits, n.Shared, n.Misses, n.Stolen, n.Degraded, n.P50US)
		}
	}
	if ph := rep.repairPhase; ph != nil {
		fmt.Fprintf(stderr, "tvload: anti-entropy: %d checked, %d diverged, %d repaired; post-repair audit: %d digests, %d divergences; %d breaker opens\n",
			ph.RepairChecked, ph.RepairDiverged, ph.Repaired, ph.PostRepairDigests, ph.PostRepairDivergences, ph.BreakerOpens)
	}
	if err := writeJSON(rep, *out, stdout); err != nil {
		return fail(err)
	}
	if rep.failed() {
		return 1
	}
	return 0
}

// writeJSON renders a report, indented, to the file out or else to stdout.
func writeJSON(rep any, out string, stdout io.Writer) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out != "" {
		return os.WriteFile(out, blob, 0o644)
	}
	_, err = stdout.Write(blob)
	return err
}
