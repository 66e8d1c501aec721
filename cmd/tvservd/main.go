// Command tvservd serves tvsched simulations over HTTP/JSON: a bounded
// worker pool executes run requests (schema tvsched/run-request/v1), a
// content-addressed LRU cache plus singleflight collapse repeated and
// concurrent identical requests onto one simulation, and a bounded
// admission queue sheds overload with 429 + Retry-After. Responses are the
// repo's standard run-report/v1 JSON and are byte-deterministic for a fixed
// request, so cache hits are byte-identical to the miss that filled them.
//
// Endpoints:
//
//	POST /v1/run          one simulation (JSON in, run-report/v1 out)
//	POST /v1/sweep        cross-product sweep, NDJSON stream in cell order;
//	                      "progress": true interleaves progress/v1 heartbeats
//	POST /v1/campaign     admit an asynchronous journaled campaign (with
//	                      -campaign-dir): answers 202 + a status document
//	                      immediately, executes in the background, journals
//	                      every finished cell, and resumes after restarts
//	GET  /v1/campaign/{id}         campaign status (campaign-status/v1)
//	GET  /v1/campaign/{id}/report  journaled report prefix, NDJSON in cell
//	                      order (for a finished campaign: the full report)
//	GET  /v1/trace/{id}   flight-recorder timeline of a recent request
//	                      (Chrome/Perfetto trace JSON; id = X-Request-Id)
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 while draining)
//	GET  /metrics         Prometheus text format: pipeline metrics aggregated
//	                      across served runs, queue depth, in-flight, cache
//	                      outcomes, route×outcome latency and span-duration
//	                      histograms
//	GET  /debug/pprof/*   Go profiler (only with -pprof)
//
// Every response carries X-Request-Id (also the trace ID in the W3C
// traceparent response header); logs are structured (-log-format json|text)
// and correlate request ID with config digest.
//
// SIGTERM/SIGINT drain gracefully: readiness flips, in-flight requests and
// simulations finish (bounded by -drain-timeout), then the process exits 0.
//
// With -store DIR, results also persist in a disk-backed content-addressed
// store that survives restarts: a restarted node answers its old digests
// from disk (provenance "hit") without recomputing, and restores the warm
// states kept there instead of warming donors again. With -node-id and
// -peers, nodes form a static cluster routed by rendezvous hashing on the
// config digest: any node accepts any request, a non-owner forwards to the
// owner (cluster-wide singleflight), the owner reads through its peers
// before simulating, and a periodic anti-entropy sweep cross-checks
// replicated digests byte-for-byte (GET /v1/result/{digest} is the
// peer-facing read endpoint, PUT the replication write; POST
// /v1/anti-entropy triggers one sweep on demand; /readyz lists per-peer
// health; /metrics gains per-peer, breaker and store counters).
//
// Peer calls are resilient by default: a per-peer circuit breaker fails
// fast once a peer looks dead (half-open probes bring it back), idempotent
// calls retry with seeded jittered backoff, and when an owner is
// unreachable the receiving node computes on its behalf — the answer is
// still 200, marked X-Tvsched-Source: compute-degraded, and is replicated
// to the owner once its breaker closes. /readyz then reads "degraded" (but
// stays 200). With -repair, the anti-entropy sweep also heals divergences:
// the node re-simulates the digest (determinism makes the fresh result an
// oracle) and overwrites whichever replica disagrees. With -chaos PLAN, a
// seeded fault-injection transport wraps outgoing peer calls (refusals,
// 5xx, latency, mid-body cuts, per-peer blackout windows) for drills —
// never in production.
//
// Usage:
//
//	tvservd                              # serve on :8844
//	tvservd -addr 127.0.0.1:0 -addrfile addr.txt   # ephemeral port for scripts
//	tvservd -workers 8 -queue 128 -cache 4096
//	tvservd -log-format json -pprof      # machine logs + profiler
//	tvservd -store /var/lib/tvservd      # persistent result store
//	tvservd -addr :8844 -node-id a -peers b=http://10.0.0.2:8844   # 2-node cluster
//
// Drive it with cmd/tvload, or by hand:
//
//	curl -d '{"schema":"tvsched/run-request/v1","benchmark":"sjeng","scheme":"ABS","vdd":0.97}' \
//	     http://localhost:8844/v1/run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tvsched/internal/cluster"
	"tvsched/internal/resil/chaos"
	"tvsched/internal/serve"
	"tvsched/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8844", "listen address (host:0 picks an ephemeral port)")
		addrFile     = flag.String("addrfile", "", "write the bound address to this file once listening (for scripts)")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue beyond the pool; full queue answers 429")
		cacheN       = flag.Int("cache", 1024, "result cache capacity in entries")
		snapN        = flag.Int("snapshots", 8, "warm-state snapshot cache capacity in entries")
		maxInsts     = flag.Uint64("max-insts", 2_000_000, "per-request instruction cap (400 beyond it)")
		maxCells     = flag.Int("max-cells", 4096, "per-sweep cell cap (400 beyond it)")
		runTimeout   = flag.Duration("run-timeout", 2*time.Minute, "per-simulation budget once a worker picks it up")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget after SIGTERM")
		ns           = flag.String("ns", "tvservd", "Prometheus metric namespace")
		logFormat    = flag.String("log-format", "text", "log output format: json or text")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		traceSpans   = flag.Int("trace-spans", 4096, "flight-recorder capacity in spans (GET /v1/trace/{id})")
		heartbeat    = flag.Duration("heartbeat", 2*time.Second, "progress/v1 heartbeat cadence on progress-enabled sweeps")
		pprofOn      = flag.Bool("pprof", false, "mount the Go profiler at /debug/pprof (off by default: it exposes internals)")
		campaignDir  = flag.String("campaign-dir", "", "campaign journal directory; enables POST /v1/campaign and resume-on-restart (empty = disabled)")
		maxCampCells = flag.Int("max-campaign-cells", 1<<20, "per-campaign cell cap (400 beyond it)")
		storeDir     = flag.String("store", "", "persistent store directory for results and warm states (empty = memory-only)")
		storeBytes   = flag.Int64("store-bytes", 0, "persistent store size bound in bytes (0 = 256 MiB default)")
		nodeID       = flag.String("node-id", "", "this node's cluster identity (required with -peers)")
		peersFlag    = flag.String("peers", "", "cluster peers as id=url,... (e.g. b=http://10.0.0.2:8844); empty = standalone")
		antiEntropy  = flag.Duration("anti-entropy", 30*time.Second, "cadence of the peer divergence sweep (0 disables; only with -peers)")
		repair       = flag.Bool("repair", false, "let the anti-entropy sweep heal divergences by re-simulating the digest and overwriting the losing replica")
		resilSeed    = flag.Uint64("resil-seed", 1, "seed for breaker probe schedules and retry backoff (deterministic per seed)")
		chaosSpec    = flag.String("chaos", "", "fault-injection plan for outgoing peer calls, e.g. seed=42,refuse=0.05,blackout=host:port@0:40 (testing only)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvservd:", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.String("error", err.Error()))
		os.Exit(1)
	}

	peers, err := cluster.ParsePeers(*peersFlag)
	if err != nil {
		fatal("bad -peers", err)
	}
	if len(peers) > 0 && *nodeID == "" {
		fatal("bad flags", errors.New("-peers requires -node-id"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal("addrfile write failed", err)
		}
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, *storeBytes)
		if err != nil {
			fatal("store open failed", err)
		}
		defer st.Close()
		if st.Truncated > 0 {
			logger.Warn("store log had a torn tail",
				slog.Int64("truncated_bytes", st.Truncated))
		}
		logger.Info("store opened",
			slog.String("dir", *storeDir),
			slog.Int("entries", st.Len()),
			slog.Int64("bytes", st.Bytes()),
		)
	}

	var peerTransport http.RoundTripper
	if *chaosSpec != "" {
		plan, err := chaos.ParsePlan(*chaosSpec)
		if err != nil {
			fatal("bad -chaos", err)
		}
		peerTransport = chaos.NewTransport(plan, nil)
		logger.Warn("chaos fault injection ACTIVE on peer calls (testing only)",
			slog.String("plan", *chaosSpec))
	}

	srv := serve.New(serve.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheEntries:        *cacheN,
		SnapshotEntries:     *snapN,
		MaxInstructions:     *maxInsts,
		MaxSweepCells:       *maxCells,
		RunTimeout:          *runTimeout,
		Namespace:           *ns,
		Logger:              logger,
		TraceSpans:          *traceSpans,
		HeartbeatInterval:   *heartbeat,
		CampaignDir:         *campaignDir,
		MaxCampaignCells:    *maxCampCells,
		Store:               st,
		AntiEntropyInterval: *antiEntropy,
		Repair:              *repair,
		ResilSeed:           *resilSeed,
		PeerTransport:       peerTransport,
	})
	if len(peers) > 0 {
		if err := srv.SetPeers(*nodeID, peers); err != nil {
			fatal("bad cluster config", err)
		}
	}
	if *campaignDir != "" {
		n, err := srv.ResumeCampaigns()
		if err != nil {
			fatal("campaign resume failed", err)
		}
		logger.Info("campaign API enabled",
			slog.String("dir", *campaignDir),
			slog.Int("resumed", n),
		)
	}
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info("serving",
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", effectiveWorkers(*workers)),
		slog.Int("queue", *queue),
		slog.Int("cache", *cacheN),
		slog.Int("trace_spans", *traceSpans),
		slog.Bool("pprof", *pprofOn),
		slog.String("node_id", *nodeID),
		slog.Int("peers", len(peers)),
		slog.Bool("store", st != nil),
	)

	select {
	case err := <-errc:
		fatal("server failed", err)
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", slog.Duration("budget", *drainTimeout))
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		fatal("drain failed", err)
	}
	// Shutdown waits for in-flight HTTP requests; detached computations
	// (leaders whose clients left) may still be running for the cache.
	if err := srv.Drain(shutdownCtx); err != nil {
		srv.Close()
		fatal("drain failed", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("server failed", err)
	}
	logger.Info("drained cleanly")
}

// buildLogger assembles the process logger from the -log-format/-log-level
// flags. Both handlers write to stderr, keeping stdout free for data.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want json or text", format)
	}
}

func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
