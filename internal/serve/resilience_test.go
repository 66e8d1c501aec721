package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tvsched"
	"tvsched/internal/cluster"
	"tvsched/internal/obs"
	"tvsched/internal/resil"
	"tvsched/internal/resil/chaos"
	"tvsched/internal/resolve"
)

// newResilCluster is newTestCluster with per-node config hooks, for tests
// that need breakers tightened, chaos transports injected, or repair on.
func newResilCluster(t *testing.T, tweakA, tweakB func(*Config)) (a, b clusterNode) {
	t.Helper()
	build := func(tweak func(*Config)) clusterNode {
		runs := &atomic.Int64{}
		cfg := Config{Workers: 2, Runner: stubRunner(runs, nil)}
		if tweak != nil {
			tweak(&cfg)
		}
		srv, ts := newTestServer(t, cfg)
		return clusterNode{srv: srv, url: ts.URL, runs: runs}
	}
	a, b = build(tweakA), build(tweakB)
	if err := a.srv.SetPeers("a", []cluster.Peer{{ID: "b", URL: b.url}}); err != nil {
		t.Fatal(err)
	}
	if err := b.srv.SetPeers("b", []cluster.Peer{{ID: "a", URL: a.url}}); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// requestsOwnedBy returns n distinct requests whose digests the named node
// owns — fresh digests for tests that must avoid local cache hits.
func requestsOwnedBy(t *testing.T, owner string, n int) []RunRequest {
	t.Helper()
	other := "b"
	if owner == "b" {
		other = "a"
	}
	ring, err := cluster.NewRing(owner, []cluster.Peer{{ID: other}})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []RunRequest
	for seed := uint64(1); seed < 10000 && len(reqs) < n; seed++ {
		req := RunRequest{Benchmark: "bzip2", Instructions: 1000, Seed: seed}
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		if _, self := ring.Owner(cfg.Digest()); self {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < n {
		t.Fatalf("only %d of %d requests found for owner %s", len(reqs), n, owner)
	}
	return reqs
}

// TestDegradedServingWhenOwnerDark blacks out every peer call from node a
// with a chaos transport and posts runs a does not own. The forwards fail,
// a computes on the owner's behalf — answering 200 with source
// compute-degraded, never an error — the breaker opens after the configured
// failures so later runs are denied locally instead of re-dialling, the
// debt owed to the owner accrues, and /readyz reports degraded while
// staying 200.
func TestDegradedServingWhenOwnerDark(t *testing.T) {
	tr := chaos.NewTransport(chaos.Plan{
		Seed:      1,
		Blackouts: []chaos.Blackout{{Host: "*", From: 0, To: 1 << 30}},
	}, nil)
	a, b := newResilCluster(t, func(c *Config) {
		c.PeerTransport = tr
		c.PeerRetries = 1
		c.BreakerFailures = 2
		c.BreakerCooldown = time.Hour // stays open for the whole test
		c.ResilSeed = 7
	}, nil)

	reqs := requestsOwnedBy(t, "b", 3)
	var digests []string
	for i, req := range reqs {
		resp, body := postRun(t, a.url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
		if src := resp.Header.Get(SourceHeader); src != "compute-degraded" {
			t.Fatalf("run %d: %s %q, want compute-degraded", i, SourceHeader, src)
		}
		if cache := resp.Header.Get("X-Tvsched-Cache"); cache != "miss" {
			t.Fatalf("run %d: X-Tvsched-Cache %q, want miss", i, cache)
		}
		digests = append(digests, resp.Header.Get("X-Tvsched-Digest"))
	}
	if a.runs.Load() != 3 || b.runs.Load() != 0 {
		t.Fatalf("runs a=%d b=%d, want 3 and 0 (a stood in for b)", a.runs.Load(), b.runs.Load())
	}

	snap := a.srv.Metrics().Snapshot()
	ops := snap.PeerOps["b"]
	if ops[obs.PeerDegraded] != 3 {
		t.Fatalf("peer_ops degraded %d, want 3", ops[obs.PeerDegraded])
	}
	// Failures 1 and 2 opened the breaker; run 3 must have been denied
	// locally, not dialled.
	if ops[obs.PeerBreakerDenied] == 0 {
		t.Fatal("breaker never denied a call despite being open")
	}
	if st := snap.BreakerStates["b"]; st != "open" {
		t.Fatalf("breaker state %q, want open", st)
	}
	if a.srv.breakerFor("b").State() != resil.Open {
		t.Fatal("breaker for b is not open")
	}

	// The debt owed to b holds every degraded digest, deduplicated.
	owed := a.srv.owedTo("b")
	if len(owed) != len(digests) {
		t.Fatalf("owed %d digests, want %d", len(owed), len(digests))
	}

	// Degraded, not dead: /readyz stays 200 but says so on the first line.
	resp, err := http.Get(a.url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d, want 200 even when degraded", resp.StatusCode)
	}
	if !strings.HasPrefix(string(body), "degraded\n") {
		t.Fatalf("readyz body %q, want first line \"degraded\"", body)
	}
	if !strings.Contains(string(body), "peer b unreachable") {
		t.Fatalf("readyz body %q, want a \"peer b unreachable\" line", body)
	}
}

// gateTripper fails every request while down, and delegates to the default
// transport once up — a peer outage with a switch.
type gateTripper struct {
	down atomic.Bool
}

func (g *gateTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.down.Load() {
		return nil, errors.New("gate: connection refused")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestBreakerRecoveryReplicatesOwed walks the full outage arc: the owner
// goes dark, a run is served degraded and its digest owed; the owner comes
// back, a half-open probe forwards for real, the breaker closes, and the
// owed result is pushed to the owner — which afterwards serves the bytes
// this node computed on its behalf.
func TestBreakerRecoveryReplicatesOwed(t *testing.T) {
	gate := &gateTripper{}
	gate.down.Store(true)
	a, b := newResilCluster(t, func(c *Config) {
		c.PeerTransport = gate
		c.PeerRetries = 1
		c.BreakerFailures = 1
		c.BreakerCooldown = 20 * time.Millisecond
		c.BreakerCooldownMax = 50 * time.Millisecond
		c.ResilSeed = 11
	}, nil)

	reqs := requestsOwnedBy(t, "b", 50)

	// Outage: the first run is degraded and opens the breaker (failures=1).
	resp, degradedBody := postRun(t, a.url, reqs[0])
	if src := resp.Header.Get(SourceHeader); src != "compute-degraded" {
		t.Fatalf("%s %q during outage, want compute-degraded", SourceHeader, src)
	}
	owedDigest := resp.Header.Get("X-Tvsched-Digest")
	if a.srv.breakerFor("b").State() != resil.Open {
		t.Fatal("breaker did not open after the configured failure count")
	}

	// Recovery: the peer is reachable again. Keep posting fresh runs until
	// one rides the half-open probe through a real forward.
	gate.down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	forwarded := false
	for i := 1; i < len(reqs) && !forwarded; i++ {
		resp, _ := postRun(t, a.url, reqs[i])
		forwarded = resp.Header.Get(SourceHeader) == "forward"
		if !forwarded {
			if time.Now().After(deadline) {
				t.Fatal("no forward succeeded after recovery; breaker never half-opened")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if st := a.srv.breakerFor("b").State(); st != resil.Closed {
		t.Fatalf("breaker state %v after a successful probe, want closed", st)
	}

	// Closing the breaker flushes the debt: b must end up holding the bytes
	// a computed on its behalf, byte-identical.
	var replica []byte
	for time.Now().Before(deadline) {
		r, err := http.Get(b.url + "/v1/result/" + owedDigest)
		if err != nil {
			t.Fatal(err)
		}
		bs, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			replica = bs
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if replica == nil {
		t.Fatal("owed digest never replicated to the recovered owner")
	}
	if !bytes.Equal(replica, degradedBody) {
		t.Fatal("replicated bytes differ from the degraded response")
	}

	// b holds the replica as soon as it has taken the push, a moment before
	// a's Push returns and a counts it: wait for the count too.
	snap := a.srv.Metrics().Snapshot()
	for snap.PeerOps["b"][obs.PeerReplicated] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		snap = a.srv.Metrics().Snapshot()
	}
	if ops := snap.PeerOps["b"]; ops[obs.PeerReplicated] == 0 {
		t.Fatal("peer_ops replicated is 0 after an owed flush")
	}
	trans := snap.BreakerTransitions["b"]
	if trans["open"] == 0 || trans["half_open"] == 0 || trans["closed"] == 0 {
		t.Fatalf("breaker transitions %v, want open, half_open and closed all recorded", trans)
	}
	if st := snap.BreakerStates["b"]; st != "closed" {
		t.Fatalf("exposed breaker state %q, want closed", st)
	}
}

// TestRepairSweepHealsDivergence corrupts both replicas of a digest whose
// config node a recorded, and checks the -repair sweep re-simulates the
// digest, warming up cold, and overwrites both copies with the oracle bytes.
func TestRepairSweepHealsDivergence(t *testing.T) {
	var mu sync.Mutex
	var checkpoints []bool // node a's runs: may each restore a kept warm state?
	a, b := newResilCluster(t, func(c *Config) {
		c.Repair = true
		run := c.Runner
		c.Runner = func(ctx context.Context, cfg tvsched.Config, checkpoint bool) (tvsched.Result, resolve.Source, error) {
			mu.Lock()
			checkpoints = append(checkpoints, checkpoint)
			mu.Unlock()
			return run(ctx, cfg, checkpoint)
		}
	}, nil)
	req := requestOwnedBy(t, "a")

	resp, oracle := postRun(t, a.url, req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(SourceHeader) != "compute" {
		t.Fatalf("priming run: status %d source %q", resp.StatusCode, resp.Header.Get(SourceHeader))
	}
	digest := resp.Header.Get("X-Tvsched-Digest")

	// Corrupt both replicas — differently, so the sweep sees a divergence
	// and neither copy can masquerade as the truth.
	corrupt := func(n clusterNode, body []byte) {
		n.srv.mu.Lock()
		n.srv.results.Memo.Put(digest, body)
		n.srv.mu.Unlock()
	}
	corrupt(a, []byte("torn local replica\n"))
	corrupt(b, []byte("bit-flipped remote replica\n"))

	checked, diverged, repaired := a.srv.AntiEntropySweep(context.Background())
	if checked != 1 || diverged != 1 || repaired != 1 {
		t.Fatalf("sweep checked=%d diverged=%d repaired=%d, want 1/1/1", checked, diverged, repaired)
	}

	// Both nodes now serve the re-simulated oracle bytes.
	for _, n := range []clusterNode{a, b} {
		r, err := http.Get(n.url + "/v1/result/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		bs, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK || !bytes.Equal(bs, oracle) {
			t.Fatalf("%s after repair: status %d, bytes match oracle: %v", n.url, r.StatusCode, bytes.Equal(bs, oracle))
		}
	}
	if ops := a.srv.Metrics().Snapshot().PeerOps["b"]; ops[obs.PeerRepaired] != 1 {
		t.Fatalf("peer_ops repaired %d, want 1", ops[obs.PeerRepaired])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(checkpoints) != 2 || !checkpoints[0] || checkpoints[1] {
		t.Fatalf("node a's runs took checkpoint %v, want [true false]: the oracle must warm up cold", checkpoints)
	}
}

// TestRepairSkipsUnknownConfig pins the oracle's honesty: a divergence on a
// digest whose config this node never recorded is counted, logged, and left
// alone — repair never guesses which replica to trust.
func TestRepairSkipsUnknownConfig(t *testing.T) {
	a, b := newResilCluster(t, func(c *Config) { c.Repair = true }, nil)
	digest := strings.Repeat("ab", 32)
	inject := func(n clusterNode, body []byte) {
		n.srv.mu.Lock()
		n.srv.results.Memo.Put(digest, body)
		n.srv.mu.Unlock()
	}
	inject(a, []byte("mine\n"))
	inject(b, []byte("yours\n"))

	checked, diverged, repaired := a.srv.AntiEntropySweep(context.Background())
	if checked != 1 || diverged != 1 || repaired != 0 {
		t.Fatalf("sweep checked=%d diverged=%d repaired=%d, want 1/1/0 (config unknown)", checked, diverged, repaired)
	}
	r, err := http.Get(b.url + "/v1/result/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if string(bs) != "yours\n" {
		t.Fatalf("peer replica %q was touched despite the config being unknown", bs)
	}
}

// TestReadyzProbesConcurrently points a node at several peers behind one
// dead address and checks the probes run in parallel — the page arrives in
// around one probe timeout, not the sum — and that peer trouble reads
// degraded without flipping the 200.
func TestReadyzProbesConcurrently(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close() // nothing listens here any more

	runs := &atomic.Int64{}
	srv, ts := newTestServer(t, Config{
		Workers:            1,
		Runner:             stubRunner(runs, nil),
		ReadyzProbeTimeout: 200 * time.Millisecond,
	})
	peers := make([]cluster.Peer, 4)
	for i := range peers {
		peers[i] = cluster.Peer{ID: fmt.Sprintf("p%d", i), URL: dead}
	}
	if err := srv.SetPeers("self", peers); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d, want 200", resp.StatusCode)
	}
	if !strings.HasPrefix(string(body), "degraded\n") {
		t.Fatalf("readyz body %q, want first line \"degraded\"", body)
	}
	for i := range peers {
		if !strings.Contains(string(body), fmt.Sprintf("peer p%d ", i)) {
			t.Fatalf("readyz body %q misses a line for peer p%d", body, i)
		}
	}
	// Serial probing of 4 dead peers would take 4 probe timeouts; allow a
	// generous 3x one timeout for scheduling slop.
	if elapsed > 600*time.Millisecond {
		t.Fatalf("readyz took %v against 4 dead peers; probes are not concurrent", elapsed)
	}
}

// TestAntiEntropyEndpoint drives one sweep over HTTP and checks the JSON
// accounting — the hook the chaos harness uses to trigger repair on demand.
func TestAntiEntropyEndpoint(t *testing.T) {
	a, b := newResilCluster(t, nil, nil)
	digest := strings.Repeat("cd", 32)
	inject := func(n clusterNode, body []byte) {
		n.srv.mu.Lock()
		n.srv.results.Memo.Put(digest, body)
		n.srv.mu.Unlock()
	}
	inject(a, []byte("x\n"))
	inject(b, []byte("y\n"))

	resp, err := http.Post(a.url+"/v1/anti-entropy", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anti-entropy status %d: %s", resp.StatusCode, body)
	}
	want := `{"checked":1,"diverged":1,"repaired":0}`
	if strings.TrimSpace(string(body)) != want {
		t.Fatalf("anti-entropy body %q, want %s", body, want)
	}

	// GET must not trigger a sweep.
	r, err := http.Get(a.url + "/v1/anti-entropy")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET anti-entropy status %d, want 405", r.StatusCode)
	}
}

// TestResultPutReplicates pins the replication endpoint: a PUT stores the
// bytes (serving them afterwards), an empty body and a malformed digest are
// rejected, and no simulation ever runs.
func TestResultPutReplicates(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1, Runner: stubRunner(&runs, nil)})
	digest := strings.Repeat("ef", 32)

	put := func(path string, body io.Reader) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := put("/v1/result/"+digest, strings.NewReader("replica bytes\n")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status %d, want 204", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/result/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || string(bs) != "replica bytes\n" {
		t.Fatalf("GET after PUT: status %d body %q", r.StatusCode, bs)
	}
	if resp := put("/v1/result/"+digest, strings.NewReader("")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty PUT status %d, want 400", resp.StatusCode)
	}
	if resp := put("/v1/result/not-a-digest", strings.NewReader("x")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed-digest PUT status %d, want 400", resp.StatusCode)
	}
	if runs.Load() != 0 {
		t.Fatal("a replication PUT triggered a simulation")
	}
}
