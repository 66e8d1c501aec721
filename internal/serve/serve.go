// Package serve is the simulation-serving subsystem behind cmd/tvservd: an
// HTTP/JSON service that executes tvsched simulations on a bounded worker
// pool and answers with the machine-readable obs.RunReport the rest of the
// repo already speaks.
//
// The serving mechanics exploit the library's determinism end to end. Every
// request is normalized and content-addressed (tvsched.Config.Digest over
// the canonical JSON form), and the digest is resolved through the same
// resolver cmd/tvplan uses (internal/resolve), configured for serving:
//
//   - a bounded LRU result cache holding the exact response bytes, so a
//     repeat request is served byte-identical without simulating;
//   - a singleflight collapsing concurrent identical requests onto one
//     computation, which runs detached under the server's lifetime, so a
//     thundering herd of N equal requests costs one run, not N;
//   - a second singleflight and LRU keyed by warm key, so the cells of a
//     scheme×voltage sweep restore one warm-state snapshot instead of each
//     re-simulating the warmup phase.
//
// Around those shared pieces the server keeps what is its own. Admission is
// bounded: at most Workers simulations execute concurrently and at most
// QueueDepth more may wait; beyond that the server sheds load with 429 and a
// Retry-After estimate instead of queueing unboundedly. Request deadlines
// propagate into the pipeline via context (cancellation lands within 256
// simulated cycles), and SIGTERM drains gracefully: the daemon stops
// admitting, finishes what is in flight, then exits. Every stage records a
// span, and the resolution's provenance labels the X-Tvsched-Cache and
// X-Tvsched-Source headers, spans, logs and metrics.
//
// POST /v1/run answers one request; POST /v1/sweep fans a cross-product
// sweep across the pool and streams per-cell results as NDJSON in
// deterministic cell order; POST /v1/campaign runs a journaled campaign in
// the background. GET /healthz, /readyz and /metrics (Prometheus text
// format, including queue depth, cache hit/miss, in-flight and latency
// histograms via obs.ServeMetrics) complete the operational surface.
// cmd/tvload is the matching closed-loop load generator.
//
// Two optional layers extend the digest addressing beyond one process:
//
//   - a persistent result store (Config.Store, internal/store) the LRU reads
//     through and every computed result is written back to, so a restart
//     serves its old answers from disk instead of recomputing them;
//   - a cluster ring (SetPeers, internal/cluster) that assigns each digest
//     an owning node by rendezvous hashing. Any node accepts any request; a
//     non-owner forwards to the owner (cluster-wide singleflight), the owner
//     read-throughs its peers before computing, and GET /v1/result/{digest}
//     serves locally held bytes to peers without ever computing. A periodic
//     anti-entropy sweep cross-checks replicated digests byte-for-byte —
//     determinism makes any divergence a bug, surfaced as a counter and an
//     error log, never an acceptable inconsistency. An unreachable owner
//     degrades to local computation, owed back to it once it returns.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tvsched"
	"tvsched/internal/campaign"
	"tvsched/internal/cluster"
	"tvsched/internal/experiments"
	"tvsched/internal/lru"
	"tvsched/internal/obs"
	"tvsched/internal/obs/span"
	"tvsched/internal/resil"
	"tvsched/internal/resolve"
	"tvsched/internal/store"
)

// ErrBusy reports a full admission queue; handlers map it to HTTP 429.
var ErrBusy = errors.New("admission queue full")

// StatusClientClosedRequest is nginx's 499: the client closed its connection
// before the server answered. It is the client's doing — not overload, not a
// server fault — so it must never masquerade as a 503 in logs or metrics.
const StatusClientClosedRequest = 499

// errMethod reports a request with the wrong HTTP method.
var errMethod = errors.New("method not allowed")

// Runner executes one normalized simulation config; checkpoint says whether
// the run may share the server's warm-state snapshot cache, and the Source
// says whether it did (resolve.Restored) or warmed up from scratch
// (resolve.Cold). It is a seam for tests (which substitute counting or
// blocking stubs); the default runner is resolve.Simulate with a per-run
// shard of the server's pipeline metrics attached.
//
// All server runs use neutral warmup (tvsched.Session.WarmupNeutral): the
// warmup phase executes at the nominal supply and the retarget to the
// requested (scheme, VDD) happens when measurement begins. Neutral warm state
// is scheme- and VDD-independent, so whether a run restores a cached
// checkpoint or warms up from scratch cannot change a single response byte —
// checkpoint only decides whether the warmup cost is paid again.
type Runner func(ctx context.Context, cfg tvsched.Config, checkpoint bool) (tvsched.Result, resolve.Source, error)

// Config parameterizes a Server. Zero fields take the documented defaults.
type Config struct {
	// Workers bounds concurrently executing simulations (default
	// GOMAXPROCS — the simulations are CPU-bound).
	Workers int
	// QueueDepth bounds admitted simulations waiting for a worker beyond
	// the pool itself (default 64). When pool and queue are both full the
	// server answers 429 with a Retry-After estimate.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024 entries).
	CacheEntries int
	// SnapshotEntries bounds the warm-state snapshot cache (default 8
	// entries). Snapshots are keyed by tvsched.Session.WarmKey — workload,
	// seed, warmup length and machine geometry, but not scheme or VDD — so
	// one entry serves every cell of a scheme×voltage sweep. They are far
	// larger than response bodies: 46 to 411 KB of cache, predictor and
	// generator state over the bundled benchmarks at 20k and 120k warmups
	// (46–166 KB at 20k, where the L2's prefill rule stands for most of its
	// sets), hence the separate, much smaller bound.
	SnapshotEntries int
	// MaxInstructions caps the per-request measured phase (default 2e6);
	// longer requests are refused with 400 rather than hogging a worker.
	MaxInstructions uint64
	// MaxSweepCells caps the cross-product size of one sweep (default
	// 4096).
	MaxSweepCells int
	// RunTimeout bounds one simulation (default 2m). The budget starts
	// when a worker picks the run up, not while it queues.
	RunTimeout time.Duration
	// Namespace prefixes the Prometheus metric names (default "tvservd").
	Namespace string
	// Logger receives the serving layer's structured log records: one line
	// per error response (request ID + digest + cause) and one per served
	// request/sweep. Nil discards — cmd/tvservd always installs one.
	Logger *slog.Logger
	// TraceSpans bounds the flight recorder: the most recent TraceSpans
	// finished spans stay retrievable through GET /v1/trace/{requestID}
	// (default 4096; older spans are evicted, never an error).
	TraceSpans int
	// HeartbeatInterval is the cadence of progress/v1 heartbeat records on
	// /v1/sweep streams that opt in with "progress": true (default 2s).
	HeartbeatInterval time.Duration
	// CampaignDir, when non-empty, enables the asynchronous campaign API
	// (POST /v1/campaign): every admitted campaign journals its completed
	// cells to <CampaignDir>/<plan-hash>.tvcj, and ResumeCampaigns picks
	// unfinished journals back up after a restart. Empty disables the API
	// (503) — a campaign without a journal cannot honour the resume contract.
	CampaignDir string
	// MaxCampaignCells caps the cross-product size of one campaign (default
	// 1<<20). Campaigns stream nothing and buffer O(window), so the cap is
	// about simulation budget, not memory — hence far above MaxSweepCells.
	MaxCampaignCells int
	// Store, when non-nil, persists results (digest → response bytes) across
	// restarts: LRU misses read through it and every computed or
	// cluster-obtained result is written back. The caller owns the Store's
	// lifecycle (Open before New, Close after shutdown).
	Store *store.Store
	// PeerTimeout bounds one peer read-through fetch, anti-entropy fetch, or
	// health probe (default 2s).
	PeerTimeout time.Duration
	// ForwardTimeout bounds one run forwarded to its owning node, which may
	// queue there before a worker picks it up (default RunTimeout + 30s).
	ForwardTimeout time.Duration
	// AntiEntropyInterval is the cadence of the background sweep that
	// cross-checks replicated digests against peers byte-for-byte. Zero
	// disables the background loop; AntiEntropySweep can still be driven
	// manually.
	AntiEntropyInterval time.Duration
	// AntiEntropyBatch caps the digests cross-checked per sweep (default 64).
	AntiEntropyBatch int
	// BreakerFailures is how many consecutive failures open a peer's circuit
	// breaker (default 3); BreakerCooldown/BreakerCooldownMax bound the
	// seeded decorrelated-jitter probe schedule (defaults 2s/30s).
	BreakerFailures    int
	BreakerCooldown    time.Duration
	BreakerCooldownMax time.Duration
	// PeerRetries is the total attempts (first try included) for one peer
	// operation (default 2); PeerRetryBase is the first backoff between them
	// (default 50ms). Retries always fit inside the operation's deadline.
	PeerRetries   int
	PeerRetryBase time.Duration
	// ResilSeed drives every breaker probe schedule and retry backoff, so a
	// chaos scenario's resilience decisions replay deterministically.
	ResilSeed uint64
	// Repair opts the anti-entropy sweep into healing divergences: the
	// losing replica is overwritten with a locally re-simulated oracle
	// result. Off by default — detection always runs, repair is a decision.
	Repair bool
	// PeerTransport, when non-nil, replaces the peer client's transport —
	// the seam the chaos harness injects faults through.
	PeerTransport http.RoundTripper
	// ReadyzProbeTimeout bounds each concurrent per-peer health probe a
	// /readyz answer waits for (default 500ms), so one black-holed peer
	// cannot stall the readiness check past the prober's patience.
	ReadyzProbeTimeout time.Duration
	// Runner overrides the simulation executor (tests only).
	Runner Runner
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.SnapshotEntries <= 0 {
		c.SnapshotEntries = 8
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 2_000_000
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 4096
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 2 * time.Minute
	}
	if c.Namespace == "" {
		c.Namespace = "tvservd"
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 4096
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.MaxCampaignCells <= 0 {
		c.MaxCampaignCells = 1 << 20
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = c.RunTimeout + 30*time.Second
	}
	if c.AntiEntropyBatch <= 0 {
		c.AntiEntropyBatch = 64
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.BreakerCooldownMax <= 0 {
		c.BreakerCooldownMax = 30 * time.Second
	}
	if c.PeerRetries <= 0 {
		c.PeerRetries = 2
	}
	if c.PeerRetryBase <= 0 {
		c.PeerRetryBase = 50 * time.Millisecond
	}
	if c.ReadyzProbeTimeout <= 0 {
		c.ReadyzProbeTimeout = 500 * time.Millisecond
	}
}

// Server is the simulation-serving core: handlers, the resolver's result
// and snapshot flights, admission accounting, and metric registries. Create
// it with New and mount Handler.
type Server struct {
	cfg        Config
	sm         *obs.ServeMetrics
	log        *slog.Logger
	tracer     *span.Tracer
	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{}  // worker slots
	wg         sync.WaitGroup // admitted computations, like pending

	mu       sync.Mutex
	pending  int // admitted computations: queued + running
	running  int
	draining bool

	// results resolves digests to response bytes: its memo is the LRU
	// result cache, its leads (compute) run detached under the server's
	// lifetime. snaps resolves warm keys to snapshot bytes for the default
	// runner, led inline by the first cell's donor.
	results *resolve.Flight
	snaps   *resolve.Flight

	// The cluster layer: nil ring means standalone. The ring is swapped
	// whole under clMu (SetPeers); readers take ringView.
	clMu       sync.RWMutex
	ring       *cluster.Ring
	peerClient *cluster.Client
	aeOnce     sync.Once // starts the anti-entropy loop at most once

	// The resilience layer: per-peer circuit breakers, the replication debt
	// owed to owners that were unreachable when their results were computed
	// here (degraded mode), and the configs behind locally led digests —
	// the repair oracle's only road back from a digest to a simulation.
	brkMu     sync.Mutex
	breakers  map[string]*resil.Breaker
	owedMu    sync.Mutex
	owed      map[string][]string
	knownCfgs *lru.LRU[string, []byte]

	store *store.Store // nil means memory-only

	// The campaign layer: asynchronous journaled runs keyed by plan hash.
	campMu    sync.Mutex
	campaigns map[string]*campaignRun

	mux *http.ServeMux
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		sm:         obs.NewServeMetrics(),
		log:        cfg.Logger,
		tracer:     span.NewTracer(cfg.TraceSpans),
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, cfg.Workers),
		results:    &resolve.Flight{Memo: lru.New[string, []byte](cfg.CacheEntries), Detach: true},
		snaps: &resolve.Flight{
			Memo: lru.New[string, []byte](cfg.SnapshotEntries),
			OnLead: func(ctx context.Context, d time.Duration) {
				span.FromContext(ctx).RecordChild("snapshot_produce", d)
			},
		},
		breakers:  make(map[string]*resil.Breaker),
		owed:      make(map[string][]string),
		knownCfgs: lru.New[string, []byte](cfg.CacheEntries),
		store:     cfg.Store,
		campaigns: make(map[string]*campaignRun),
	}
	if s.cfg.Runner == nil {
		s.cfg.Runner = s.defaultRunner
	}
	if s.store != nil {
		s.sm.SetStoreSize(s.store.Len(), s.store.Bytes())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/campaign", s.handleCampaignPost)
	mux.HandleFunc("/v1/campaign/", s.handleCampaignGet)
	mux.HandleFunc("/v1/result/", s.handleResult)
	mux.HandleFunc("/v1/anti-entropy", s.handleAntiEntropy)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", obs.NewExposition(cfg.Namespace, s.sm, s.tracer).Handler())
	s.mux = mux
	return s
}

// Tracer exposes the request flight recorder (tests and embedders).
func (s *Server) Tracer() *span.Tracer { return s.tracer }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the serving-layer registry (tests and embedders).
func (s *Server) Metrics() *obs.ServeMetrics { return s.sm }

// defaultRunner executes the simulation for real through resolve.Simulate,
// with no pipeline observer: each response carries the run's own counters.
// With checkpoint set it restores the shared warm-state snapshot for the
// cell's WarmKey (producing and caching it on first use) instead of
// re-simulating the warmup phase; the neutral-warmup property makes the two
// paths byte-identical (see Runner).
func (s *Server) defaultRunner(ctx context.Context, cfg tvsched.Config, checkpoint bool) (tvsched.Result, resolve.Source, error) {
	// The simulate span (if this computation is traced) receives one child
	// per session lifecycle phase, named for the timeline reader: the
	// "restore" phase is a snapshot restore, "run" is the measured phase.
	if sp := span.FromContext(ctx); sp != nil {
		cfg.PhaseHook = func(phase string, d time.Duration) {
			switch phase {
			case "restore":
				phase = "snapshot_restore"
			case "run":
				phase = "measure"
			case "warmup_neutral":
				phase = "warmup"
			}
			sp.RecordChild(phase, d)
		}
		sp.SetAttr("warm_key", cfg.WarmKey())
	}
	var snaps *resolve.Flight
	if checkpoint {
		snaps = s.snaps
	}
	return resolve.Simulate(ctx, cfg, snaps)
}

// BeginDrain flips /readyz to 503 so load balancers stop routing here. Call
// it before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain waits for every in-flight computation to finish or for ctx to
// expire, whichever is first.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Close cancels every in-flight simulation. Use after a failed Drain.
func (s *Server) Close() { s.baseCancel() }

// gaugesLocked republishes the admission gauges; callers hold s.mu.
func (s *Server) gaugesLocked() {
	s.sm.SetQueue(int64(s.pending-s.running), int64(s.running))
}

// answer is one resolved result lookup: the response bytes (or error), the
// resolution's provenance, the outcome the metrics record, and the HTTP
// status an error maps to.
type answer struct {
	body    []byte
	prov    resolve.Provenance
	outcome obs.ServeOutcome
	status  int
	err     error
}

// label is the answer's span/log provenance label. Refused and abandoned
// answers have no source and carry their outcome's name.
func (a answer) label() string {
	if a.prov.Src == resolve.None {
		return a.outcome.String()
	}
	return a.prov.Label()
}

// outcomeOf is the serving-metrics outcome a provenance's X-Tvsched-Cache
// value names.
func outcomeOf(p resolve.Provenance) obs.ServeOutcome {
	switch p.Cache() {
	case "hit":
		return obs.ServeHit
	case "shared":
		return obs.ServeShared
	}
	return obs.ServeMiss
}

// abandoned maps a waiter's dead context to its answer: a client that hung
// up gets 499/canceled (its own doing), a deadline or shutdown gets
// 503/error.
func abandoned(err error) answer {
	if errors.Is(err, context.Canceled) {
		return answer{outcome: obs.ServeCanceled, status: StatusClientClosedRequest, err: err}
	}
	return answer{outcome: obs.ServeErrored, status: http.StatusServiceUnavailable, err: err}
}

// result answers one normalized config through the result flight: cache
// hit, collapse onto an in-flight computation, or lead a new one. admit=false
// (sweep cells) bypasses the queue-full rejection — a sweep is one admitted
// request whose internal fan-out is flow-controlled by the worker pool, so
// its cells wait for capacity instead of bouncing. forwarded marks a request
// another node already routed here; the leader then never forwards again
// (the one-hop rule).
//
// parent, when non-nil, is the live request (or sweep-cell) span; the
// admission decision and every wait are recorded as children under it, and
// the detached computation parents its own spans under the same trace via a
// value-copied span context (safe even after the request span ends).
func (s *Server) result(ctx context.Context, cfg tvsched.Config, admit, checkpoint, forwarded bool, parent *span.ActiveSpan) answer {
	digest := cfg.Digest()
	start := time.Now()
	var lookup time.Duration
	// Admission is decided under the flight's lock, atomically with the
	// miss that makes this request a leader: joins and hits are never shed.
	decide := func(shared bool) error {
		lookup = time.Since(start)
		if shared {
			return nil
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if admit && s.pending >= s.cfg.Workers+s.cfg.QueueDepth {
			return ErrBusy
		}
		s.pending++
		s.gaugesLocked()
		s.wg.Add(1) // released when compute returns
		return nil
	}
	// The computation runs under the server's lifetime, not this request's:
	// followers that arrive later still want the result, and so does the
	// cache. The leader merely waits like any other follower, so a failed
	// computation (shutdown included) reaches every waiter as its status.
	// The span context is copied here, while parent is still live: the
	// detached lead may outlive it, and an ended span is recycled.
	pctx := parent.Context()
	body, prov, err := s.results.Do(ctx, digest, decide, func(context.Context) ([]byte, resolve.Source, error) {
		return s.compute(digest, cfg, checkpoint, forwarded, pctx)
	})
	gone := err != nil && ctx.Err() != nil
	switch {
	case prov.Src == resolve.Memory:
		parent.RecordChild("cache_lookup", time.Since(start), span.Attr{Key: "hit", Value: "true"})
	case prov.Shared:
		parent.RecordChild("cache_lookup", lookup, span.Attr{Key: "hit", Value: "false"})
		var wait []span.Attr
		if gone {
			wait = append(wait, span.Attr{Key: "outcome", Value: "abandoned"})
		}
		parent.RecordChild("singleflight_wait", time.Since(start)-lookup, wait...)
	case errors.Is(err, ErrBusy):
		parent.RecordChild("admission", lookup, span.Attr{Key: "decision", Value: "rejected"})
		return answer{outcome: obs.ServeRejected, status: http.StatusTooManyRequests, err: ErrBusy}
	default:
		parent.RecordChild("admission", lookup, span.Attr{Key: "decision", Value: "lead"})
	}
	if gone {
		return abandoned(ctx.Err())
	}
	return answer{body: body, prov: prov, outcome: outcomeOf(prov), status: s.statusOf(err), err: err}
}

// compute is the result flight's lead: obtain the bytes (store, cluster, or
// a local simulation — see obtain), publish and persist them, and release
// the admission slot. parent is the leading request's span context (a value
// copy — the request may be gone by the time the computation finishes; the
// trace link stays valid).
func (s *Server) compute(digest string, cfg tvsched.Config, checkpoint, forwarded bool, parent span.Context) ([]byte, resolve.Source, error) {
	defer s.wg.Done()
	// Leaders remember the config behind the digest: if this digest ever
	// diverges across replicas, the repair oracle re-simulates from here.
	s.recordConfig(digest, cfg)
	body, src, err := s.obtain(digest, cfg, checkpoint, forwarded, parent)
	s.mu.Lock()
	s.pending--
	s.gaugesLocked()
	s.mu.Unlock()
	if err == nil {
		// Publish before the store write-back fsyncs, so repeat requests hit
		// memory meanwhile; the flight's own memo write after this lead only
		// refreshes the entry.
		s.results.Memo.Put(digest, body)
		if src != resolve.Store {
			s.storePut(digest, body)
		}
	}
	return body, src, err
}

// obtain resolves the bytes for one digest through the three layers beyond
// the in-memory LRU, cheapest first:
//
//  1. the persistent store — bytes computed before a restart;
//  2. the cluster — forward to the digest's owning node (unless this request
//     was itself forwarded), or, when this node is the owner, read through
//     the peers' caches before paying for a simulation;
//  3. a local simulation on the bounded worker pool.
//
// Cluster failures always degrade to layer 3: an unreachable peer costs
// latency and a duplicated computation, never a wrong or failed answer. A
// non-owner that computes because its owner was unreachable (breaker open,
// forward budget exhausted) serves the result as "compute-degraded" and owes
// the owner a replica, delivered when the breaker closes again.
func (s *Server) obtain(digest string, cfg tvsched.Config, checkpoint, forwarded bool, parent span.Context) ([]byte, resolve.Source, error) {
	if s.store != nil {
		ls := s.tracer.StartRoot("store_lookup", parent)
		b, ok, serr := s.store.Get(digest)
		ls.SetAttr("hit", strconv.FormatBool(ok))
		ls.End()
		if ok {
			s.sm.StoreOp(obs.StoreHit)
			return b, resolve.Store, nil
		}
		s.sm.StoreOp(obs.StoreMiss)
		if serr != nil {
			s.log.LogAttrs(s.baseCtx, slog.LevelWarn, "store read failed",
				slog.String("digest", digest), slog.String("cause", serr.Error()))
		}
	}
	degradedOwner := "" // set when this node stands in for an unreachable owner
	if ring := s.ringView(); ring != nil && !forwarded {
		if owner, self := ring.Owner(digest); !self {
			if b, ok := s.forwardToOwner(digest, cfg, owner, parent); ok {
				return b, resolve.Forward, nil
			}
			// Owner unreachable or disagreeing: compute locally. Wasteful,
			// never wrong — anti-entropy would surface diverging bytes.
			degradedOwner = owner.ID
		} else if b, ok := s.peerReadThrough(digest, parent); ok {
			return b, resolve.Peer, nil
		}
	}
	body, src, err := s.runLocal(digest, cfg, checkpoint, parent)
	if degradedOwner != "" && err == nil {
		if src == resolve.Restored {
			src = resolve.DegradedRestored
		} else {
			src = resolve.DegradedCold
		}
		s.sm.PeerOp(degradedOwner, obs.PeerDegraded)
		s.owe(degradedOwner, digest)
		s.log.LogAttrs(s.baseCtx, slog.LevelWarn, "served degraded: computed for unreachable owner",
			slog.String("digest", digest), slog.String("owner", degradedOwner))
	}
	return body, src, err
}

// runLocal queues for a worker slot, runs the simulation, and renders the
// report — the only layer that actually simulates. The response body is the
// compact run report plus a trailing newline, so the same bytes less the
// newline embed verbatim in NDJSON sweep lines.
func (s *Server) runLocal(digest string, cfg tvsched.Config, checkpoint bool, parent span.Context) ([]byte, resolve.Source, error) {
	qs := s.tracer.StartRoot("queue_wait", parent)
	select {
	case s.sem <- struct{}{}:
		qs.End()
	case <-s.baseCtx.Done():
		qs.SetAttr("outcome", "aborted")
		qs.End()
		return nil, resolve.Cold, s.baseCtx.Err()
	}
	s.mu.Lock()
	s.running++
	s.gaugesLocked()
	s.mu.Unlock()
	runCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RunTimeout)
	ss := s.tracer.StartRoot("simulate", parent)
	ss.SetAttr("digest", digest)
	start := time.Now()
	res, src, err := s.cfg.Runner(span.NewContext(runCtx, ss), cfg, checkpoint)
	cancel()
	ss.SetAttr("provenance", resolve.Provenance{Src: src}.Label())
	if err != nil {
		ss.SetAttr("error", err.Error())
	}
	ss.End()
	s.sm.ObserveRun(uint64(time.Since(start).Microseconds()))
	s.mu.Lock()
	s.running--
	s.gaugesLocked()
	s.mu.Unlock()
	<-s.sem
	if err != nil {
		return nil, src, err
	}
	es := s.tracer.StartRoot("encode", parent)
	body, err := experiments.RunReportJSON("tvservd", cfg, res)
	if err == nil {
		body = append(body, '\n')
	}
	es.End()
	return body, src, err
}

// statusOf maps a computation's error to the HTTP status its waiters
// answer with. While the server shuts down every failure is 503, whatever
// the run died of: the server is the one giving up, not the client.
func (s *Server) statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case s.baseCtx.Err() != nil:
		return http.StatusServiceUnavailable
	}
	return statusFor(err)
}

// statusFor maps simulation errors to HTTP statuses: caller mistakes to
// 400, exhausted run budgets and shutdown to 503, a client that hung up to
// 499, model failures to 500. Canceled and DeadlineExceeded must not share a
// status: a cancellation is the client walking away (no capacity problem),
// a deadline is the server failing to answer in time — conflating them made
// ordinary client disconnects read as server overload on dashboards.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, tvsched.ErrUnknownBenchmark),
		errors.Is(err, tvsched.ErrUnknownScheme),
		errors.Is(err, tvsched.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter estimates, from the observed mean simulation latency and the
// current queue, how long a rejected client should wait before retrying.
// The estimate counts only computations waiting for a worker: the running
// ones already hold the slots the queued ones are drained into, so counting
// them too (pending = queued + running) doubled the estimate at saturation
// and told clients to back off twice as long as the queue justified.
// Clamped to [1s, 60s]; a cold server (no latency samples yet) says 1s.
func (s *Server) retryAfter() string {
	snap := s.sm.Snapshot()
	s.mu.Lock()
	queued := s.pending - s.running
	s.mu.Unlock()
	if queued < 0 {
		queued = 0
	}
	secs := int(snap.RunLatency.Mean() / 1e6 * float64(queued) / float64(s.cfg.Workers))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

// decode parses a JSON request body strictly: unknown fields are errors, so
// a typo'd field name fails loudly instead of silently taking a default.
func decode(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// checkPolicy enforces the per-request resource caps.
func (s *Server) checkPolicy(cfg tvsched.Config) error {
	if cfg.Instructions > s.cfg.MaxInstructions {
		return fmt.Errorf("%w: instructions %d over server cap %d",
			ErrBadRequest, cfg.Instructions, s.cfg.MaxInstructions)
	}
	return nil
}

// fail is the single chokepoint every 4xx/5xx response goes through: it
// emits exactly one structured log record (request ID + digest + cause) and
// writes the error body, unless the client is already gone. 4xx logs at
// Warn (the client misbehaved), 5xx at Error (we did), and 499 at Info —
// a client hanging up is routine churn, not something to page on.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, reqID, digest string, status int, err error) {
	level := slog.LevelWarn
	switch {
	case status == StatusClientClosedRequest:
		level = slog.LevelInfo
	case status >= 500:
		level = slog.LevelError
	}
	s.log.LogAttrs(r.Context(), level, "request failed",
		slog.String("request_id", reqID),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("digest", digest),
		slog.Int("status", status),
		slog.String("cause", err.Error()),
	)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfter())
	}
	if r.Context().Err() != nil {
		return // client is gone; nothing to write to
	}
	http.Error(w, err.Error(), status)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := s.tracer.StartRoot("run", span.Extract(r))
	defer sp.End()
	reqID := sp.TraceID().String()
	h := w.Header()
	h.Set("X-Request-Id", reqID)
	sp.Context().Inject(h)
	if r.Method != http.MethodPost {
		sp.SetAttr("outcome", "error")
		s.fail(w, r, reqID, "", http.StatusMethodNotAllowed, errMethod)
		return
	}
	var req RunRequest
	var cfg tvsched.Config
	err := decode(w, r, &req)
	if err == nil {
		cfg, err = req.Config()
	}
	if err == nil {
		err = s.checkPolicy(cfg)
	}
	if err != nil {
		s.sm.Outcome(obs.ServeBadRequest)
		s.sm.ObserveRequest(obs.RouteRun, obs.ServeBadRequest, uint64(time.Since(start).Microseconds()))
		sp.SetAttr("outcome", "bad_request")
		s.fail(w, r, reqID, "", http.StatusBadRequest, err)
		return
	}
	digest := cfg.Digest()
	sp.SetAttr("digest", digest)
	forwarded := r.Header.Get(cluster.ForwardHeader) != ""
	if forwarded {
		sp.SetAttr("forwarded_from", r.Header.Get(cluster.ForwardHeader))
	}
	ans := s.result(r.Context(), cfg, true, true, forwarded, sp)
	s.sm.Outcome(ans.outcome)
	s.sm.ObserveRequest(obs.RouteRun, ans.outcome, uint64(time.Since(start).Microseconds()))
	label := ans.label()
	sp.SetAttr("outcome", label)
	if ans.err != nil {
		s.fail(w, r, reqID, digest, ans.status, ans.err)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("X-Tvsched-Digest", digest)
	h.Set("X-Tvsched-Cache", ans.prov.Cache())
	if src := ans.prov.Header(); src != "" {
		h.Set(SourceHeader, src)
	}
	_, _ = w.Write(ans.body)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "run served",
		slog.String("request_id", reqID),
		slog.String("digest", digest),
		slog.String("cache", label),
		slog.String("source", ans.prov.Header()),
		slog.Duration("elapsed", time.Since(start)),
	)
}

// sweepLine is one NDJSON record of a sweep response — the campaign engine's
// line type, shared with /v1/campaign reports and cmd/tvplan.
//
// Ordering contract (pinned by a golden test): the stream carries exactly one
// line per cell, in the canonical campaign cell order — benchmarks × schemes ×
// VDDs × seeds, each axis in its requested order, seeds innermost — and Index
// is the cell's position in that order, ascending from 0 with no gaps. Cells
// simulate concurrently, but emission always waits for the next index, so the
// stream is deterministic end to end (only the per-line Cache annotation may
// vary with scheduling).
type sweepLine = campaign.Line

// ProgressSchema tags the heartbeat records a progress-enabled sweep stream
// interleaves with its cell lines. Cell lines never carry a schema field, so
// `"schema":"tvsched/progress/v1"` is the discriminator.
const ProgressSchema = campaign.ProgressSchema

// cellRunner adapts the server's result pipeline (LRU → singleflight → store
// → cluster → local simulation) to the campaign executor: one runner call is
// one cell resolved through s.result with sweep-cell admission (admit=false —
// the worker pool is the throttle, cells wait rather than bounce). Cell spans
// parent under parent, a value-copied span context, because cells may outlive
// the request that launched them.
func (s *Server) cellRunner(route obs.ServeRoute, parent span.Context, checkpoint bool) campaign.Runner {
	return func(ctx context.Context, cell campaign.Cell) campaign.CellResult {
		cs := s.tracer.StartRoot("cell", parent)
		cs.SetAttr("digest", cell.Config.Digest())
		cs.SetAttr("index", strconv.Itoa(cell.Index))
		cellStart := time.Now()
		ans := s.result(ctx, cell.Config, false, checkpoint, false, cs)
		cs.SetAttr("outcome", ans.label())
		cs.End()
		s.sm.Outcome(ans.outcome)
		s.sm.ObserveRequest(route, ans.outcome, uint64(time.Since(cellStart).Microseconds()))
		return campaign.CellResult{
			Class: campaign.ClassOf(ans.prov, ans.err),
			Cache: ans.outcome.String(),
			Body:  ans.body,
			Err:   ans.err,
		}
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := s.tracer.StartRoot("sweep", span.Extract(r))
	defer sp.End()
	reqID := sp.TraceID().String()
	h := w.Header()
	h.Set("X-Request-Id", reqID)
	sp.Context().Inject(h)
	if r.Method != http.MethodPost {
		sp.SetAttr("outcome", "error")
		s.fail(w, r, reqID, "", http.StatusMethodNotAllowed, errMethod)
		return
	}
	// Planning is lazy: the plan is O(axes) in memory however many cells the
	// cross product describes, the cap check is arithmetic on the total, and
	// cells materialize one at a time as the executor reaches them. Peak
	// memory is bounded by the executor's reorder window, never the sweep
	// size.
	var req SweepRequest
	var plan *campaign.Plan
	err := decode(w, r, &req)
	if err == nil {
		plan, err = req.Plan()
	}
	if err == nil && plan.Total() > s.cfg.MaxSweepCells {
		err = fmt.Errorf("%w: %d cells over server cap %d", ErrBadRequest, plan.Total(), s.cfg.MaxSweepCells)
	}
	if err == nil {
		// Instructions/Warmup are sweep-wide, so policy holds for every cell
		// iff it holds for the first.
		err = s.checkPolicy(plan.Cell(0).Config)
	}
	if err != nil {
		s.sm.Outcome(obs.ServeBadRequest)
		sp.SetAttr("outcome", "bad_request")
		s.fail(w, r, reqID, "", http.StatusBadRequest, err)
		return
	}
	sp.SetAttr("cells", strconv.Itoa(plan.Total()))

	h.Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	opts := campaign.Options{
		// The worker pool is the real throttle; the executor's concurrency
		// just keeps in-flight cells proportional to capacity rather than
		// sweep size, exactly like the old per-sweep goroutine limiter.
		Workers: s.cfg.Workers + s.cfg.QueueDepth,
		Lanes:   s.cfg.Workers,
		Start:   start,
	}
	if flusher != nil {
		opts.Flush = func() { flusher.Flush() }
	}
	// Heartbeats are strictly opt-in: they carry wall-clock timings, and the
	// default stream must stay a pure function of the request (the
	// determinism contract CI enforces byte-for-byte).
	if req.Progress {
		opts.Heartbeat = s.cfg.HeartbeatInterval
	}
	runner := s.cellRunner(obs.RouteSweep, sp.Context(), plan.Checkpoint())
	if _, err := campaign.Execute(r.Context(), plan, nil, runner, w, opts); err != nil {
		return // client gone or canceled mid-stream; headers are already out
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "sweep served",
		slog.String("request_id", reqID),
		slog.Int("cells", plan.Total()),
		slog.Duration("elapsed", time.Since(start)),
	)
}

// handleTrace serves the flight-recorder slice of one request as a Chrome
// trace-event JSON document (loadable in Perfetto or chrome://tracing). The
// request ID is the X-Request-Id a /v1/run or /v1/sweep response carried;
// spans age out of the bounded ring, so an old ID answers 404, never an
// error.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, "", "", http.StatusMethodNotAllowed, errMethod)
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	id, ok := span.ParseTraceID(raw)
	if !ok {
		s.fail(w, r, raw, "", http.StatusBadRequest,
			fmt.Errorf("%w: malformed request id (want 32 hex chars)", ErrBadRequest))
		return
	}
	spans := s.tracer.Trace(id)
	if len(spans) == 0 {
		s.fail(w, r, raw, "", http.StatusNotFound,
			errors.New("trace not found: unknown request id, or its spans were evicted"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = span.WriteChromeTrace(w, spans)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers load-balancer readiness. A clustered node probes its
// peers concurrently, each under its own bounded timeout, so one
// black-holed peer delays the whole check by at most ReadyzProbeTimeout
// instead of a full sequential walk. An unreachable peer (or an open
// breaker) flips the first line from "ready" to "degraded" — informational
// only: degraded mode means duplicated computation, not an unfit node, so
// readiness stays 200 and load balancers keep routing here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	ring := s.ringView()
	if ring == nil {
		fmt.Fprintln(w, "ready")
		return
	}
	cl := s.client()
	peers := ring.Peers()
	lines := make([]string, len(peers))
	degraded := false
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p cluster.Peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReadyzProbeTimeout)
			err := cl.Health(ctx, p)
			cancel()
			if err != nil {
				lines[i] = fmt.Sprintf("peer %s unreachable: %v", p.ID, err)
				mu.Lock()
				degraded = true
				mu.Unlock()
			} else {
				lines[i] = fmt.Sprintf("peer %s ok", p.ID)
			}
		}(i, p)
	}
	wg.Wait()
	for _, p := range peers {
		if s.breakerFor(p.ID).State() != resil.Closed {
			degraded = true
		}
	}
	if degraded {
		fmt.Fprintln(w, "degraded")
	} else {
		fmt.Fprintln(w, "ready")
	}
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
