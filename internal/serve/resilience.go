package serve

// The resilience layer under the cluster protocol: per-peer circuit
// breakers gating every peer call, the replication debt a node accrues when
// it computes on behalf of an unreachable owner (degraded mode), and the
// anti-entropy repair oracle that re-simulates a diverged digest to decide
// which replica is wrong. The philosophy mirrors the paper's: tolerate the
// violation (serve degraded, pay a bounded penalty) instead of provisioning
// for a healthy cluster, and detect-and-recover (re-simulate, overwrite)
// instead of guessing which copy to trust.

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"log/slog"

	"tvsched"
	"tvsched/internal/cluster"
	"tvsched/internal/obs"
	"tvsched/internal/obs/span"
	"tvsched/internal/resil"
	"tvsched/internal/rng"
)

// owedMax bounds the replication debt remembered per peer. Beyond it the
// oldest digests are dropped — anti-entropy plus peer read-through will
// still converge the replicas, just without the fast path.
const owedMax = 256

// breakerFor returns (creating on first use) the circuit breaker guarding
// peerID. Each peer's probe schedule is seeded from ResilSeed and the peer's
// name, so a chaos scenario replays the same breaker timeline run after run
// while distinct peers stay decorrelated.
func (s *Server) breakerFor(peerID string) *resil.Breaker {
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	if b, ok := s.breakers[peerID]; ok {
		return b
	}
	h := fnv.New64a()
	io.WriteString(h, peerID)
	b := resil.NewBreaker(resil.BreakerConfig{
		Failures:    s.cfg.BreakerFailures,
		Cooldown:    s.cfg.BreakerCooldown,
		CooldownMax: s.cfg.BreakerCooldownMax,
		Seed:        rng.Mix(s.cfg.ResilSeed ^ h.Sum64()),
		OnTransition: func(from, to resil.State) {
			s.sm.BreakerTransition(peerID, to.String())
			s.log.LogAttrs(s.baseCtx, slog.LevelWarn, "peer breaker transition",
				slog.String("peer", peerID),
				slog.String("from", from.String()),
				slog.String("to", to.String()),
			)
			if to == resil.Closed {
				// The peer is back: deliver any results computed on its
				// behalf while it was away. Detached — the transition fires
				// inside a request's forward path.
				go s.flushOwed(peerID)
			}
		},
	})
	s.breakers[peerID] = b
	return b
}

// retryPolicy builds the bounded backoff for one peer operation on digest.
// Seeding by (ResilSeed, peer, digest) makes every retry schedule a pure
// function of the scenario, like the breaker's.
func (s *Server) retryPolicy(peerID, digest string) resil.RetryPolicy {
	h := fnv.New64a()
	io.WriteString(h, peerID)
	h.Write([]byte{0})
	io.WriteString(h, digest)
	return resil.RetryPolicy{
		Attempts: s.cfg.PeerRetries,
		Base:     s.cfg.PeerRetryBase,
		Seed:     rng.Mix(s.cfg.ResilSeed ^ h.Sum64()),
	}
}

// owe records that peerID should eventually receive this node's bytes for
// digest — the debt a degraded-mode computation leaves behind. Bounded and
// deduplicated; dropping debt is safe (anti-entropy still converges).
func (s *Server) owe(peerID, digest string) {
	s.owedMu.Lock()
	defer s.owedMu.Unlock()
	list := s.owed[peerID]
	for _, d := range list {
		if d == digest {
			return
		}
	}
	if len(list) >= owedMax {
		list = list[1:]
	}
	s.owed[peerID] = append(list, digest)
}

// owedTo snapshots and clears the debt owed to peerID.
func (s *Server) owedTo(peerID string) []string {
	s.owedMu.Lock()
	defer s.owedMu.Unlock()
	digests := s.owed[peerID]
	delete(s.owed, peerID)
	return digests
}

// flushOwed pushes every owed digest to peerID. Failures re-enter the debt
// so the next breaker-close or anti-entropy pass tries again.
func (s *Server) flushOwed(peerID string) {
	digests := s.owedTo(peerID)
	if len(digests) == 0 {
		return
	}
	ring := s.ringView()
	if ring == nil {
		return
	}
	var peer cluster.Peer
	found := false
	for _, p := range ring.Peers() {
		if p.ID == peerID {
			peer, found = p, true
			break
		}
	}
	if !found {
		return // the ring was re-shaped; the debt is moot
	}
	cl := s.client()
	for _, digest := range digests {
		body, ok := s.lookupLocal(digest)
		if !ok {
			continue // evicted since; nothing to deliver
		}
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.PeerTimeout)
		err := cl.Push(ctx, peer, digest, body)
		cancel()
		if err != nil {
			s.owe(peerID, digest)
			s.log.LogAttrs(s.baseCtx, slog.LevelDebug, "owed replication failed, will retry",
				slog.String("peer", peerID), slog.String("digest", digest),
				slog.String("cause", err.Error()))
			return // the peer flapped; stop hammering, keep the rest owed
		}
		s.sm.PeerOp(peerID, obs.PeerReplicated)
		s.log.LogAttrs(s.baseCtx, slog.LevelInfo, "degraded result replicated to owner",
			slog.String("peer", peerID), slog.String("digest", digest))
	}
}

// recordConfig remembers the request that produced digest, so the repair
// oracle can re-simulate it later. Only computation leaders record (the hit
// path never pays the marshal), and the memory is a bounded LRU.
func (s *Server) recordConfig(digest string, cfg tvsched.Config) {
	b, err := json.Marshal(requestFor(cfg))
	if err != nil {
		return
	}
	s.knownCfgs.Put(digest, b)
}

// configFor recovers the config behind digest, if this node ever led its
// computation. The digest is a one-way hash, so this bounded memory is the
// only road back from a digest to something re-simulable.
func (s *Server) configFor(digest string) (tvsched.Config, bool) {
	b, ok := s.knownCfgs.Get(digest)
	if !ok {
		return tvsched.Config{}, false
	}
	var req RunRequest
	if err := json.Unmarshal(b, &req); err != nil {
		return tvsched.Config{}, false
	}
	cfg, err := req.Config()
	if err != nil {
		return tvsched.Config{}, false
	}
	return cfg, true
}

// repairDivergence heals one byte-divergence between this node and peer by
// re-simulating the digest locally — determinism makes the fresh simulation
// a ground-truth oracle — and overwriting whichever replica disagrees with
// it (possibly both). Reports whether any replica was repaired. Requires
// the config behind the digest to be known here; an unknown config is
// logged and skipped, never guessed at.
func (s *Server) repairDivergence(ctx context.Context, digest string, local, remote []byte, peer cluster.Peer) bool {
	cfg, ok := s.configFor(digest)
	if !ok {
		s.log.LogAttrs(ctx, slog.LevelWarn, "cannot repair divergence: config unknown on this node",
			slog.String("digest", digest), slog.String("peer", peer.ID))
		return false
	}
	// The oracle simulates afresh: neither the result cache nor the store
	// may answer for the bytes under suspicion.
	oracle, _, err := s.runLocal(digest, cfg, true, span.Context{})
	if err != nil {
		s.log.LogAttrs(ctx, slog.LevelWarn, "repair re-simulation failed",
			slog.String("digest", digest), slog.Int("status", s.statusOf(err)),
			slog.String("cause", err.Error()))
		return false
	}
	if d := cfg.Digest(); d != digest {
		// The recorded config no longer hashes to the digest — version skew
		// between record and replay. Overwriting anything would be guessing.
		s.log.LogAttrs(ctx, slog.LevelError, "repair oracle digest mismatch",
			slog.String("digest", digest), slog.String("recomputed", d))
		return false
	}
	repaired := false
	if !bytes.Equal(local, oracle) {
		s.results.Memo.Put(digest, oracle)
		s.storePut(digest, oracle)
		repaired = true
		s.log.LogAttrs(ctx, slog.LevelWarn, "local replica repaired from oracle",
			slog.String("digest", digest))
	}
	if !bytes.Equal(remote, oracle) {
		pctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
		err := s.client().Push(pctx, peer, digest, oracle)
		cancel()
		if err != nil {
			s.log.LogAttrs(ctx, slog.LevelWarn, "peer replica repair push failed",
				slog.String("digest", digest), slog.String("peer", peer.ID),
				slog.String("cause", err.Error()))
		} else {
			repaired = true
			s.log.LogAttrs(ctx, slog.LevelWarn, "peer replica repaired from oracle",
				slog.String("digest", digest), slog.String("peer", peer.ID))
		}
	}
	if repaired {
		s.sm.PeerOp(peer.ID, obs.PeerRepaired)
	}
	return repaired
}

// validDigest reports whether d has the exact shape of a config digest —
// 64 lowercase hex characters (hex SHA-256 of the canonical config JSON).
// Peer endpoints answer 400 for anything else instead of doing store
// lookups on garbage keys.
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
