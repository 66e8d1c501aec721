package serve

// The serve-side half of the cluster protocol (internal/cluster is the
// transport): where result bytes come from, how a non-owner forwards a run
// to its owner, how the owner reads through its peers before computing, the
// GET /v1/result/{digest} endpoint peers fetch from, and the anti-entropy
// sweep that cross-checks replicated digests byte-for-byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"tvsched"
	"tvsched/internal/cluster"
	"tvsched/internal/obs"
	"tvsched/internal/obs/span"
	"tvsched/internal/resil"
)

// SourceHeader names where a /v1/run answer's bytes came from: "memory",
// "store", "peer" (owner read it through a peer's cache), "forward" (a
// non-owner routed the run to its owner), "compute" (a simulation ran here)
// or "compute-degraded" (it ran here for an unreachable owner) — see
// resolve.Provenance.Header. X-Tvsched-Cache stays the coarse
// hit/shared/miss outcome; this header carries the cluster-era refinement
// tooling like tvload breaks steals out with.
const SourceHeader = "X-Tvsched-Source"

// SetPeers joins (or re-shapes) the cluster: this node takes nodeID as its
// hashing identity and routes by rendezvous hashing over itself plus peers.
// Call before serving traffic; calling again swaps the whole ring. With
// AntiEntropyInterval set, the first successful call also starts the
// background divergence sweep (on the server's lifetime context, so Close
// stops it; Drain does not wait for it).
func (s *Server) SetPeers(nodeID string, peers []cluster.Peer) error {
	ring, err := cluster.NewRing(nodeID, peers)
	if err != nil {
		return err
	}
	s.clMu.Lock()
	s.ring = ring
	s.peerClient = cluster.NewClientWith(nodeID, s.cfg.PeerTransport)
	s.clMu.Unlock()
	if s.cfg.AntiEntropyInterval > 0 {
		s.aeOnce.Do(func() { go s.antiEntropyLoop() })
	}
	return nil
}

// ringView returns the current ring, or nil when standalone.
func (s *Server) ringView() *cluster.Ring {
	s.clMu.RLock()
	defer s.clMu.RUnlock()
	return s.ring
}

// client returns the peer client paired with the current ring.
func (s *Server) client() *cluster.Client {
	s.clMu.RLock()
	defer s.clMu.RUnlock()
	return s.peerClient
}

// requestFor re-serializes a normalized config as the wire request that
// produced it — the form a node forwards to the digest's owner. Because cfg
// is already normalized, the round-trip Config → RunRequest → Config is
// digest-stable: both nodes address the same cache entry.
func requestFor(cfg tvsched.Config) RunRequest {
	return RunRequest{
		Schema:       RunRequestSchema,
		Benchmark:    cfg.Benchmark,
		Scheme:       cfg.Scheme.String(),
		VDD:          cfg.VDD,
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		Seed:         cfg.Seed,
		FaultBias:    cfg.FaultBias,
	}
}

// forwardToOwner routes one run to the node owning its digest and returns
// the owner's bytes. The call is gated by the owner's circuit breaker
// (an open breaker fails fast into degraded local compute, and the one
// half-open probe per cooldown is a real forward) and retried on faults
// where the owner provably did not accept the work — connect errors and
// 5xx-before-body — with seeded decorrelated-jitter backoff inside the
// ForwardTimeout budget. Any terminal failure — transport, non-200, or a
// digest disagreement — reports false and the caller computes locally.
func (s *Server) forwardToOwner(digest string, cfg tvsched.Config, owner cluster.Peer, parent span.Context) ([]byte, bool) {
	fs := s.tracer.StartRoot("forward", parent)
	fs.SetAttr("peer", owner.ID)
	defer fs.End()
	brk := s.breakerFor(owner.ID)
	if !brk.Allow() {
		s.sm.PeerOp(owner.ID, obs.PeerBreakerDenied)
		fs.SetAttr("error", "breaker open")
		return nil, false
	}
	reqBody, err := json.Marshal(requestFor(cfg))
	if err != nil {
		fs.SetAttr("error", err.Error())
		return nil, false
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ForwardTimeout)
	defer cancel()
	var body []byte
	var hdr http.Header
	attempts := 0
	err = resil.Do(ctx, s.retryPolicy(owner.ID, digest), cluster.ForwardRetryable,
		func(ctx context.Context) error {
			attempts++
			if attempts > 1 {
				s.sm.PeerOp(owner.ID, obs.PeerRetry)
			}
			var aerr error
			body, hdr, aerr = s.client().Forward(ctx, owner, reqBody)
			return aerr
		})
	// The breaker watches reachability: any completed exchange — success or
	// a protocol-level disagreement below — is evidence the peer is up.
	brk.Record(err == nil || !cluster.ForwardRetryable(err))
	if err == nil {
		if got := hdr.Get("X-Tvsched-Digest"); got != digest {
			err = fmt.Errorf("owner answered digest %q, want %q (version skew?)", got, digest)
		}
	}
	if err != nil {
		s.sm.PeerOp(owner.ID, obs.PeerForwardErr)
		fs.SetAttr("error", err.Error())
		s.log.LogAttrs(s.baseCtx, slog.LevelWarn, "forward failed, computing locally",
			slog.String("digest", digest),
			slog.String("peer", owner.ID),
			slog.String("cause", err.Error()),
		)
		return nil, false
	}
	s.sm.PeerOp(owner.ID, obs.PeerForward)
	fs.SetAttr("cache", hdr.Get("X-Tvsched-Cache"))
	return body, true
}

// peerReadThrough is the owner's last stop before paying for a simulation:
// ask each peer for its cached bytes of digest. Misses are cheap 404s;
// transport errors are skipped, not surfaced — an unreachable peer only
// means computing something it might have had. Each peer's call is gated by
// its circuit breaker (a dead peer costs nothing once its breaker opens)
// and retried — Fetch is idempotent, so any fault class but a mid-body cut
// retries — within the PeerTimeout budget.
func (s *Server) peerReadThrough(digest string, parent span.Context) ([]byte, bool) {
	ring := s.ringView()
	cl := s.client()
	for _, p := range ring.Peers() {
		brk := s.breakerFor(p.ID)
		if !brk.Allow() {
			s.sm.PeerOp(p.ID, obs.PeerBreakerDenied)
			continue
		}
		ps := s.tracer.StartRoot("peer_fetch", parent)
		ps.SetAttr("peer", p.ID)
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.PeerTimeout)
		var body []byte
		var ok bool
		attempts := 0
		err := resil.Do(ctx, s.retryPolicy(p.ID, digest), cluster.Retryable,
			func(ctx context.Context) error {
				attempts++
				if attempts > 1 {
					s.sm.PeerOp(p.ID, obs.PeerRetry)
				}
				var aerr error
				body, ok, aerr = cl.Fetch(ctx, p, digest)
				return aerr
			})
		cancel()
		brk.Record(err == nil || !cluster.Retryable(err))
		ps.SetAttr("hit", fmt.Sprintf("%v", ok))
		ps.End()
		if ok {
			s.sm.PeerOp(p.ID, obs.PeerFetchHit)
			return body, true
		}
		s.sm.PeerOp(p.ID, obs.PeerFetchMiss)
		if err != nil {
			s.log.LogAttrs(s.baseCtx, slog.LevelDebug, "peer fetch failed",
				slog.String("digest", digest),
				slog.String("peer", p.ID),
				slog.String("cause", err.Error()),
			)
		}
	}
	return nil, false
}

// storePut persists one result and republishes the store gauges.
func (s *Server) storePut(digest string, body []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(digest, body); err != nil {
		s.log.LogAttrs(s.baseCtx, slog.LevelWarn, "store write failed",
			slog.String("digest", digest), slog.String("cause", err.Error()))
		return
	}
	s.sm.StoreOp(obs.StorePut)
	s.sm.SetStoreSize(s.store.Len(), s.store.Bytes())
}

// lookupLocal returns locally held bytes for digest — memory LRU first, then
// the persistent store — without computing, forwarding, or touching the
// result-path store counters (peer probes and anti-entropy drive this
// constantly; counting them as hits/misses would drown the serving signal).
func (s *Server) lookupLocal(digest string) ([]byte, bool) {
	if b, ok := s.results.Memo.Get(digest); ok {
		return b, true
	}
	if s.store == nil {
		return nil, false
	}
	b, ok, _ := s.store.Get(digest)
	return b, ok
}

// handleResult is the peer-facing replica endpoint. GET /v1/result/{digest}
// answers locally held bytes or 404, and never computes — the cluster's
// loop-freedom rests on this path being a pure lookup. Misses are routine
// (every read-through probe that precedes a computation lands here), so
// they are not logged or counted as request failures. PUT /v1/result/{digest}
// accepts a replica from a peer — a degraded-mode result coming home to its
// owner, or a repaired replacement for diverged bytes. Either way the digest
// must have the exact 64-hex shape: garbage keys answer 400 before any store
// lookup or write happens.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := strings.TrimPrefix(r.URL.Path, "/v1/result/")
	if !validDigest(digest) {
		s.fail(w, r, "", digest, http.StatusBadRequest,
			fmt.Errorf("%w: want /v1/result/{digest} with a 64-char lowercase-hex digest", ErrBadRequest))
		return
	}
	switch r.Method {
	case http.MethodGet:
		body, ok := s.lookupLocal(digest)
		if !ok {
			http.Error(w, "result not held locally", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Tvsched-Digest", digest)
		_, _ = w.Write(body)
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil || len(body) == 0 {
			s.fail(w, r, "", digest, http.StatusBadRequest,
				fmt.Errorf("%w: empty or unreadable replica body", ErrBadRequest))
			return
		}
		s.results.Memo.Put(digest, body)
		s.storePut(digest, body)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "replica accepted",
			slog.String("digest", digest),
			slog.String("from", r.Header.Get(cluster.ForwardHeader)),
			slog.Int("bytes", len(body)),
		)
		w.WriteHeader(http.StatusNoContent)
	default:
		s.fail(w, r, "", digest, http.StatusMethodNotAllowed, errMethod)
	}
}

// handleAntiEntropy runs one sweep on demand (POST /v1/anti-entropy) and
// answers its accounting as JSON — the hook chaos scenarios use to drive
// repair at a known point and then assert zero remaining divergences.
func (s *Server) handleAntiEntropy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, "", "", http.StatusMethodNotAllowed, errMethod)
		return
	}
	checked, diverged, repaired := s.AntiEntropySweep(r.Context())
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"checked\":%d,\"diverged\":%d,\"repaired\":%d}\n", checked, diverged, repaired)
}

// antiEntropyLoop drives periodic divergence sweeps until the server
// closes. It runs outside s.wg on purpose: Drain waits for in-flight
// results, not for background hygiene.
func (s *Server) antiEntropyLoop() {
	t := time.NewTicker(s.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.AntiEntropySweep(s.baseCtx)
		}
	}
}

// AntiEntropySweep cross-checks up to AntiEntropyBatch locally held digests
// against every peer holding them: replicated bytes must be identical, and
// any mismatch is counted (peer_ops{op="diverged"}) and logged at Error —
// under the determinism contract a divergence is a bug (version skew,
// corruption), never an acceptable inconsistency. A peer not holding a
// digest is fine (replication here is opportunistic, by forwarding and
// read-through), as is an unreachable peer; a peer whose breaker is not
// closed is skipped entirely, so hygiene never steals the half-open probe
// slot from real traffic. With Config.Repair set, each divergence is healed
// on the spot: the digest is re-simulated locally (the deterministic
// oracle) and the disagreeing replica — local, remote, or both — is
// overwritten. The sweep also flushes any replication debt owed to
// reachable peers, catching flapping peers whose breaker-close callback
// fired while they were still down. Returns the number of cross-checks
// performed, how many diverged, and how many divergences were repaired.
func (s *Server) AntiEntropySweep(ctx context.Context) (checked, diverged, repaired int) {
	ring := s.ringView()
	if ring == nil {
		return 0, 0, 0
	}
	cl := s.client()
	for _, p := range ring.Peers() {
		if s.breakerFor(p.ID).State() == resil.Closed {
			s.flushOwed(p.ID)
		}
	}
	for _, digest := range s.localDigests(s.cfg.AntiEntropyBatch) {
		local, ok := s.lookupLocal(digest)
		if !ok {
			continue // evicted since sampling
		}
		for _, p := range ring.Peers() {
			if ctx.Err() != nil {
				return checked, diverged, repaired
			}
			if s.breakerFor(p.ID).State() != resil.Closed {
				continue
			}
			fctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
			remote, ok, err := cl.Fetch(fctx, p, digest)
			cancel()
			if err != nil || !ok {
				continue
			}
			checked++
			if bytes.Equal(local, remote) {
				s.sm.PeerOp(p.ID, obs.PeerCheckOK)
				continue
			}
			diverged++
			s.sm.PeerOp(p.ID, obs.PeerDiverged)
			s.log.LogAttrs(ctx, slog.LevelError, "anti-entropy divergence",
				slog.String("digest", digest),
				slog.String("peer", p.ID),
				slog.Int("local_bytes", len(local)),
				slog.Int("peer_bytes", len(remote)),
			)
			if s.cfg.Repair && s.repairDivergence(ctx, digest, local, remote, p) {
				repaired++
			}
		}
	}
	return checked, diverged, repaired
}

// localDigests samples up to max digests this node holds, memory first
// (hottest results are the likeliest to be replicated), then the store.
// Only keys shaped like a config digest qualify: the store also holds warm
// states, which are neither replicated nor served to peers.
func (s *Server) localDigests(max int) []string {
	keys := s.results.Memo.Keys()
	seen := make(map[string]bool, len(keys))
	out := make([]string, 0, max)
	for _, k := range keys {
		if len(out) >= max {
			return out
		}
		seen[k] = true
		out = append(out, k)
	}
	if s.store != nil {
		for _, k := range s.store.Keys() {
			if len(out) >= max {
				break
			}
			if !seen[k] && validDigest(k) {
				out = append(out, k)
			}
		}
	}
	return out
}
