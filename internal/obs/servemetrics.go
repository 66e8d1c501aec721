package obs

import (
	"fmt"
	"sync"
)

// ServeOutcome classifies how the serving layer answered one request.
type ServeOutcome int

// The serving outcomes, in severity order. Hit/Shared/Miss are successes
// (cache hit, collapsed onto an in-flight computation, fresh simulation);
// Rejected is admission-queue backpressure (HTTP 429); BadRequest is a
// malformed or out-of-policy request (400); Canceled is a client that hung
// up while its request waited (the client's doing, not server overload);
// Errored is everything else.
const (
	ServeHit ServeOutcome = iota
	ServeShared
	ServeMiss
	ServeRejected
	ServeBadRequest
	ServeErrored
	ServeCanceled
	NumServeOutcomes
)

var serveOutcomeNames = [NumServeOutcomes]string{
	"hit", "shared", "miss", "rejected", "bad_request", "error", "canceled",
}

// String returns the Prometheus label value for the outcome.
func (o ServeOutcome) String() string {
	if o < 0 || o >= NumServeOutcomes {
		return "unknown"
	}
	return serveOutcomeNames[o]
}

// ServeRoute classifies which serving endpoint handled a request, so latency
// histograms can be split per route as well as per cache outcome (a /v1/run
// cache hit and a cold /v1/sweep cell live in different distributions).
type ServeRoute int

// The labelled routes. RouteOther absorbs anything unclassified so the
// registry can never lose a sample.
const (
	RouteRun ServeRoute = iota
	RouteSweep
	RouteTrace
	RouteCampaign
	RouteOther
	NumServeRoutes
)

var serveRouteNames = [NumServeRoutes]string{"run", "sweep", "trace", "campaign", "other"}

// String returns the Prometheus label value for the route.
func (r ServeRoute) String() string {
	if r < 0 || r >= NumServeRoutes {
		return "unknown"
	}
	return serveRouteNames[r]
}

// PeerOp classifies one operation against a cluster peer, labelled per
// peer in the exposition so a sick node is visible by name.
type PeerOp int

// The peer operations. FetchHit/FetchMiss are read-through lookups against
// a peer's cache; Forward/ForwardErr are runs routed to their owning node;
// CheckOK/Diverged are anti-entropy cross-checks — Diverged means two nodes
// hold different bytes for one digest, which the determinism contract makes
// a bug, never an acceptable inconsistency. The resilience ops: Retry is one
// extra attempt against a peer after a retryable failure, BreakerDenied is a
// call refused locally because the peer's circuit breaker was open, Degraded
// is a run this node computed on behalf of an unreachable owner, Replicated
// is a degraded result delivered to its owner once the breaker closed, and
// Repaired is a diverged replica overwritten with re-simulated oracle bytes.
const (
	PeerFetchHit PeerOp = iota
	PeerFetchMiss
	PeerForward
	PeerForwardErr
	PeerCheckOK
	PeerDiverged
	PeerRetry
	PeerBreakerDenied
	PeerDegraded
	PeerReplicated
	PeerRepaired
	NumPeerOps
)

var peerOpNames = [NumPeerOps]string{
	"fetch_hit", "fetch_miss", "forward", "forward_error", "check_ok", "diverged",
	"retry", "breaker_denied", "degraded", "replicated", "repaired",
}

// String returns the Prometheus label value for the peer operation.
func (o PeerOp) String() string {
	if o < 0 || o >= NumPeerOps {
		return "unknown"
	}
	return peerOpNames[o]
}

// CampaignEvent classifies one lifecycle transition of an asynchronous
// campaign (POST /v1/campaign or a journal resumed at startup).
type CampaignEvent int

// The campaign lifecycle events: Started is a fresh campaign admitted,
// Resumed is a journal picked back up (after a restart or a suspension),
// Completed/Failed are terminal, and Suspended means the server shut down
// (or the run was canceled) with cells still pending — the journal keeps
// the finished prefix for the next resume.
const (
	CampaignStarted CampaignEvent = iota
	CampaignResumed
	CampaignCompleted
	CampaignSuspended
	CampaignFailed
	NumCampaignEvents
)

var campaignEventNames = [NumCampaignEvents]string{
	"started", "resumed", "completed", "suspended", "failed",
}

// String returns the Prometheus label value for the campaign event.
func (e CampaignEvent) String() string {
	if e < 0 || e >= NumCampaignEvents {
		return "unknown"
	}
	return campaignEventNames[e]
}

// StoreOp classifies one access to the persistent result store.
type StoreOp int

// The store operations: Hit/Miss are lookups on the result path, Put is a
// persisted result (fresh, forwarded, or read through from a peer).
const (
	StoreHit StoreOp = iota
	StoreMiss
	StorePut
	NumStoreOps
)

var storeOpNames = [NumStoreOps]string{"hit", "miss", "put"}

// String returns the Prometheus label value for the store operation.
func (o StoreOp) String() string {
	if o < 0 || o >= NumStoreOps {
		return "unknown"
	}
	return storeOpNames[o]
}

// WarmSource classifies where a restored run's warm state came from.
type WarmSource int

// The warm-state sources: Memo is the in-memory snapshot memo, Store a
// warm-state record in the persistent store, Donor a donor session's neutral
// warmup. A run that joined another run's lead counts under that lead's
// source.
const (
	WarmMemo WarmSource = iota
	WarmStore
	WarmDonor
	NumWarmSources
)

var warmSourceNames = [NumWarmSources]string{"memo", "store", "donor"}

// String returns the Prometheus label value for the warm-state source.
func (w WarmSource) String() string {
	if w < 0 || w >= NumWarmSources {
		return "unknown"
	}
	return warmSourceNames[w]
}

// ServeMetrics is the serving-layer registry behind cmd/tvservd: request
// outcomes (cache hit / singleflight share / miss / rejection / error),
// queue-depth and in-flight gauges maintained by the server, log2 latency
// histograms in microseconds for whole requests and for the underlying
// simulations, plus — when the node is clustered — per-peer operation
// counters and persistent-store counters/gauges. It is safe for concurrent
// use and renders in the Prometheus text format as an exposition Source.
type ServeMetrics struct {
	mu         sync.Mutex
	outcomes   [NumServeOutcomes]uint64
	queueDepth int64
	inFlight   int64
	// reqLat is the whole-request latency in µs, split route × cache
	// outcome so p50/p99 can be read hit-vs-cold per endpoint.
	reqLat [NumServeRoutes][NumServeOutcomes]Hist
	runLat Hist // underlying simulation latency, µs (misses only)

	peerOps      map[string]*[NumPeerOps]uint64
	storeOps     [NumStoreOps]uint64
	storeEntries int64
	storeBytes   int64
	warmStates   [NumWarmSources]uint64

	// Circuit-breaker telemetry, per peer: transition counts into each state
	// and the current state (a label-valued gauge in the exposition).
	breakerTrans map[string]map[string]uint64
	breakerState map[string]string

	// Campaign telemetry: lifecycle events, per-class cell counts (class is
	// the campaign provenance label — hit/shared/restored/cold/stolen/error),
	// and the number of campaigns executing right now.
	campaignEvents  [NumCampaignEvents]uint64
	campaignCells   map[string]uint64
	campaignsActive int64
}

// NewServeMetrics builds an empty serving registry.
func NewServeMetrics() *ServeMetrics { return &ServeMetrics{} }

// Outcome records one answered request.
func (s *ServeMetrics) Outcome(o ServeOutcome) {
	if o < 0 || o >= NumServeOutcomes {
		return
	}
	s.mu.Lock()
	s.outcomes[o]++
	s.mu.Unlock()
}

// SetQueue publishes the admission gauges: queued is the number of admitted
// computations waiting for a worker, inFlight the number executing now.
func (s *ServeMetrics) SetQueue(queued, inFlight int64) {
	s.mu.Lock()
	s.queueDepth, s.inFlight = queued, inFlight
	s.mu.Unlock()
}

// ObserveRequest records one whole-request latency in microseconds, under
// the route that served it and the cache outcome it resolved to.
func (s *ServeMetrics) ObserveRequest(route ServeRoute, outcome ServeOutcome, us uint64) {
	if route < 0 || route >= NumServeRoutes {
		route = RouteOther
	}
	if outcome < 0 || outcome >= NumServeOutcomes {
		outcome = ServeErrored
	}
	s.mu.Lock()
	s.reqLat[route][outcome].Observe(us)
	s.mu.Unlock()
}

// ObserveRun records one underlying simulation latency in microseconds.
func (s *ServeMetrics) ObserveRun(us uint64) {
	s.mu.Lock()
	s.runLat.Observe(us)
	s.mu.Unlock()
}

// PeerOp records one operation against the named peer.
func (s *ServeMetrics) PeerOp(peer string, op PeerOp) {
	if op < 0 || op >= NumPeerOps || peer == "" {
		return
	}
	s.mu.Lock()
	if s.peerOps == nil {
		s.peerOps = make(map[string]*[NumPeerOps]uint64)
	}
	ops := s.peerOps[peer]
	if ops == nil {
		ops = new([NumPeerOps]uint64)
		s.peerOps[peer] = ops
	}
	ops[op]++
	s.mu.Unlock()
}

// BreakerTransition records one circuit-breaker state change for the named
// peer: a transition counter into the new state, plus the current state.
func (s *ServeMetrics) BreakerTransition(peer, to string) {
	if peer == "" || to == "" {
		return
	}
	s.mu.Lock()
	if s.breakerTrans == nil {
		s.breakerTrans = make(map[string]map[string]uint64)
		s.breakerState = make(map[string]string)
	}
	m := s.breakerTrans[peer]
	if m == nil {
		m = make(map[string]uint64)
		s.breakerTrans[peer] = m
	}
	m[to]++
	s.breakerState[peer] = to
	s.mu.Unlock()
}

// CampaignEvent records one campaign lifecycle transition.
func (s *ServeMetrics) CampaignEvent(e CampaignEvent) {
	if e < 0 || e >= NumCampaignEvents {
		return
	}
	s.mu.Lock()
	s.campaignEvents[e]++
	s.mu.Unlock()
}

// CampaignCell records one executed campaign cell under its provenance class
// label (hit/shared/restored/cold/stolen/error).
func (s *ServeMetrics) CampaignCell(class string) {
	if class == "" {
		return
	}
	s.mu.Lock()
	if s.campaignCells == nil {
		s.campaignCells = make(map[string]uint64)
	}
	s.campaignCells[class]++
	s.mu.Unlock()
}

// AddCampaignsActive moves the running-campaigns gauge by delta.
func (s *ServeMetrics) AddCampaignsActive(delta int64) {
	s.mu.Lock()
	s.campaignsActive += delta
	s.mu.Unlock()
}

// StoreOp records one persistent-store access.
func (s *ServeMetrics) StoreOp(op StoreOp) {
	if op < 0 || op >= NumStoreOps {
		return
	}
	s.mu.Lock()
	s.storeOps[op]++
	s.mu.Unlock()
}

// SetStoreSize publishes the persistent store's size gauges.
func (s *ServeMetrics) SetStoreSize(entries int, bytes int64) {
	s.mu.Lock()
	s.storeEntries, s.storeBytes = int64(entries), bytes
	s.mu.Unlock()
}

// WarmState records where one restored run's warm state came from.
func (s *ServeMetrics) WarmState(src WarmSource) {
	if src < 0 || src >= NumWarmSources {
		return
	}
	s.mu.Lock()
	s.warmStates[src]++
	s.mu.Unlock()
}

// ServeSnapshot is a consistent copy of the registry.
type ServeSnapshot struct {
	Outcomes     [NumServeOutcomes]uint64
	QueueDepth   int64
	InFlight     int64
	ReqLatency   [NumServeRoutes][NumServeOutcomes]Hist
	RunLatency   Hist
	PeerOps      map[string][NumPeerOps]uint64
	StoreOps     [NumStoreOps]uint64
	StoreEntries int64
	StoreBytes   int64
	// WarmStates counts restored runs by where their warm state came from.
	WarmStates [NumWarmSources]uint64
	// BreakerTransitions counts breaker state entries per peer, keyed
	// peer → state name; BreakerStates is each peer's current state.
	BreakerTransitions map[string]map[string]uint64
	BreakerStates      map[string]string
	// CampaignEvents counts campaign lifecycle transitions, CampaignCells
	// executed cells per provenance class, CampaignsActive the campaigns
	// running right now.
	CampaignEvents  [NumCampaignEvents]uint64
	CampaignCells   map[string]uint64
	CampaignsActive int64
}

// Snapshot copies the registry under its lock.
func (s *ServeMetrics) Snapshot() ServeSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := ServeSnapshot{
		Outcomes:        s.outcomes,
		QueueDepth:      s.queueDepth,
		InFlight:        s.inFlight,
		ReqLatency:      s.reqLat,
		RunLatency:      s.runLat,
		StoreOps:        s.storeOps,
		StoreEntries:    s.storeEntries,
		StoreBytes:      s.storeBytes,
		WarmStates:      s.warmStates,
		CampaignEvents:  s.campaignEvents,
		CampaignsActive: s.campaignsActive,
	}
	if len(s.campaignCells) > 0 {
		snap.CampaignCells = make(map[string]uint64, len(s.campaignCells))
		for class, n := range s.campaignCells {
			snap.CampaignCells[class] = n
		}
	}
	if len(s.peerOps) > 0 {
		snap.PeerOps = make(map[string][NumPeerOps]uint64, len(s.peerOps))
		for peer, ops := range s.peerOps {
			snap.PeerOps[peer] = *ops
		}
	}
	if len(s.breakerTrans) > 0 {
		snap.BreakerTransitions = make(map[string]map[string]uint64, len(s.breakerTrans))
		for peer, m := range s.breakerTrans {
			mc := make(map[string]uint64, len(m))
			for state, n := range m {
				mc[state] = n
			}
			snap.BreakerTransitions[peer] = mc
		}
		snap.BreakerStates = make(map[string]string, len(s.breakerState))
		for peer, st := range s.breakerState {
			snap.BreakerStates[peer] = st
		}
	}
	return snap
}

// Families implements Source. The cluster, breaker, campaign, store and
// warm-state families are listed only once touched, and request latency
// only for the route × outcome cells that hold samples, so a solo idle
// node stays compact.
func (s *ServeMetrics) Families() []Family {
	snap := s.Snapshot()
	var lat []Member
	for r := ServeRoute(0); r < NumServeRoutes; r++ {
		for o := ServeOutcome(0); o < NumServeOutcomes; o++ {
			if h := &snap.ReqLatency[r][o]; h.Count > 0 {
				lat = append(lat, Member{Labels: fmt.Sprintf("route=%q,result=%q", r, o), Hist: h})
			}
		}
	}
	fams := []Family{
		{"serve_requests_total", "Serving-layer requests by outcome (hit/shared/miss/rejected/bad_request/error).",
			"counter", enumMembers[ServeOutcome]("result", snap.Outcomes[:])},
		scalar("serve_queue_depth", "Admitted simulations waiting for a worker.", "gauge", snap.QueueDepth),
		scalar("serve_in_flight", "Simulations executing right now.", "gauge", snap.InFlight),
		{"serve_request_latency_us", "Whole-request latency in microseconds by route and cache outcome.",
			"histogram", lat},
		histFamily("serve_run_latency_us", "Underlying simulation latency in microseconds (cache misses only).",
			snap.RunLatency),
	}

	if len(snap.PeerOps) > 0 {
		var ops []Member
		for _, p := range sortedKeys(snap.PeerOps) {
			for o, n := range snap.PeerOps[p] {
				ops = append(ops, Member{Labels: fmt.Sprintf("peer=%q,op=%q", p, PeerOp(o)), Value: n})
			}
		}
		fams = append(fams, Family{"serve_peer_ops_total", "Cluster peer operations (fetch_hit/fetch_miss/forward/" +
			"forward_error/check_ok/diverged/retry/breaker_denied/degraded/replicated/repaired) by peer.", "counter", ops})
	}

	if len(snap.BreakerTransitions) > 0 {
		var trans, states []Member
		for _, p := range sortedKeys(snap.BreakerTransitions) {
			for _, to := range sortedKeys(snap.BreakerTransitions[p]) {
				trans = append(trans, Member{Labels: fmt.Sprintf("peer=%q,to=%q", p, to),
					Value: snap.BreakerTransitions[p][to]})
			}
			if st, ok := snap.BreakerStates[p]; ok {
				states = append(states, Member{Labels: fmt.Sprintf("peer=%q,state=%q", p, st), Value: 1})
			}
		}
		fams = append(fams,
			Family{"serve_breaker_transitions_total", "Circuit-breaker state entries (closed/open/half_open) by peer.",
				"counter", trans},
			Family{"serve_breaker_state", "Current circuit-breaker state per peer (1 = the labelled state).",
				"gauge", states})
	}

	if snap.CampaignEvents != ([NumCampaignEvents]uint64{}) {
		fams = append(fams, Family{"serve_campaigns_total",
			"Campaign lifecycle events (started/resumed/completed/suspended/failed).",
			"counter", enumMembers[CampaignEvent]("event", snap.CampaignEvents[:])})
		if len(snap.CampaignCells) > 0 {
			var cells []Member
			for _, c := range sortedKeys(snap.CampaignCells) {
				cells = append(cells, Member{Labels: fmt.Sprintf("class=%q", c), Value: snap.CampaignCells[c]})
			}
			fams = append(fams, Family{"serve_campaign_cells_total",
				"Campaign cells executed, by provenance class (hit/shared/restored/cold/stolen/error).", "counter", cells})
		}
		fams = append(fams, scalar("serve_campaigns_active", "Campaigns executing right now.", "gauge", snap.CampaignsActive))
	}

	if snap.StoreOps != ([NumStoreOps]uint64{}) || snap.StoreEntries > 0 {
		fams = append(fams,
			Family{"serve_store_ops_total", "Persistent result-store accesses (hit/miss/put).",
				"counter", enumMembers[StoreOp]("op", snap.StoreOps[:])},
			scalar("serve_store_entries", "Live entries in the persistent result store, warm-state records included.",
				"gauge", snap.StoreEntries),
			scalar("serve_store_bytes", "Live bytes in the persistent result store, warm-state records and "+
				"record overhead included.", "gauge", snap.StoreBytes))
	}

	if snap.WarmStates != ([NumWarmSources]uint64{}) {
		fams = append(fams, Family{"serve_warm_states_total",
			"Warm states restored runs used, by where they came from (memo/store/donor).",
			"counter", enumMembers[WarmSource]("source", snap.WarmStates[:])})
	}
	return fams
}
