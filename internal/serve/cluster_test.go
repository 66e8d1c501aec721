package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"tvsched/internal/cluster"
	"tvsched/internal/obs"
	"tvsched/internal/store"
)

// clusterNode is one member of a two-node test cluster.
type clusterNode struct {
	srv  *Server
	url  string
	runs *atomic.Int64
}

// newTestCluster wires two servers into each other's rings. Stores are
// optional (nil dir disables). Anti-entropy stays manual (interval 0).
func newTestCluster(t *testing.T, storeA, storeB *store.Store) (a, b clusterNode) {
	t.Helper()
	build := func(st *store.Store) clusterNode {
		runs := &atomic.Int64{}
		srv, ts := newTestServer(t, Config{Workers: 2, Store: st, Runner: stubRunner(runs, nil)})
		return clusterNode{srv: srv, url: ts.URL, runs: runs}
	}
	a, b = build(storeA), build(storeB)
	if err := a.srv.SetPeers("a", []cluster.Peer{{ID: "b", URL: b.url}}); err != nil {
		t.Fatal(err)
	}
	if err := b.srv.SetPeers("b", []cluster.Peer{{ID: "a", URL: a.url}}); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// requestOwnedBy scans seeds for a request whose digest the named node owns,
// using the same ring arithmetic the servers route by.
func requestOwnedBy(t *testing.T, owner string) RunRequest {
	t.Helper()
	other := "b"
	if owner == "b" {
		other = "a"
	}
	ring, err := cluster.NewRing(owner, []cluster.Peer{{ID: other}})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed < 1000; seed++ {
		req := RunRequest{Benchmark: "bzip2", Instructions: 1000, Seed: seed}
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		if _, self := ring.Owner(cfg.Digest()); self {
			return req
		}
	}
	t.Fatal("no seed in [1,1000) hashes to the requested owner")
	return RunRequest{}
}

// TestClusterForwardToOwner posts a run at the node that does NOT own its
// digest and asserts the cluster-wide singleflight: the owner simulates,
// the accepting node forwards, and afterwards both nodes answer the digest
// from local bytes — byte-identical.
func TestClusterForwardToOwner(t *testing.T) {
	a, b := newTestCluster(t, nil, nil)
	req := requestOwnedBy(t, "b") // posting at a must forward to b

	resp, body := postRun(t, a.url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if src := resp.Header.Get(SourceHeader); src != "forward" {
		t.Fatalf("%s %q at the non-owner, want forward", SourceHeader, src)
	}
	if a.runs.Load() != 0 || b.runs.Load() != 1 {
		t.Fatalf("runs a=%d b=%d, want the owner (b) to simulate exactly once", a.runs.Load(), b.runs.Load())
	}
	if ops := a.srv.Metrics().Snapshot().PeerOps["b"]; ops[obs.PeerForward] != 1 {
		t.Fatalf("peer_ops forward %d on a, want 1", ops[obs.PeerForward])
	}

	// The forward replicated the bytes: both nodes now serve the digest
	// locally through the peer read endpoint, byte-identical.
	digest := resp.Header.Get("X-Tvsched-Digest")
	var replicas [][]byte
	for _, url := range []string{a.url, b.url} {
		r, err := http.Get(url + "/v1/result/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		bs, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/result/%s on %s: status %d", digest, url, r.StatusCode)
		}
		replicas = append(replicas, bs)
	}
	if !bytes.Equal(replicas[0], replicas[1]) || !bytes.Equal(replicas[0], body) {
		t.Fatal("replicated digest is not byte-identical across nodes")
	}

	// A repeat at the non-owner is now a plain memory hit — no second hop.
	resp2, _ := postRun(t, a.url, req)
	if resp2.Header.Get("X-Tvsched-Cache") != "hit" || resp2.Header.Get(SourceHeader) != "memory" {
		t.Fatalf("repeat at non-owner: cache %q source %q, want hit/memory",
			resp2.Header.Get("X-Tvsched-Cache"), resp2.Header.Get(SourceHeader))
	}
}

// TestClusterOwnerReadsThroughPeer makes the owner miss locally while a peer
// holds the bytes, and asserts the owner steals them (fetch_hit) instead of
// re-simulating.
func TestClusterOwnerReadsThroughPeer(t *testing.T) {
	a, b := newTestCluster(t, nil, nil)
	req := requestOwnedBy(t, "a")

	// Prime the NON-owner only: a request carrying the forward header is
	// computed locally without routing (the one-hop rule), which is exactly
	// how b would end up holding bytes a lost — say, across a's restart.
	blob := mustJSON(t, req)
	hreq, _ := http.NewRequest(http.MethodPost, b.url+"/v1/run", bytes.NewReader(blob))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(cluster.ForwardHeader, "test")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	primed, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || hresp.Header.Get(SourceHeader) != "compute" {
		t.Fatalf("priming run: status %d source %q", hresp.StatusCode, hresp.Header.Get(SourceHeader))
	}

	resp, body := postRun(t, a.url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if src := resp.Header.Get(SourceHeader); src != "peer" {
		t.Fatalf("%s %q at the owner, want peer (read-through)", SourceHeader, src)
	}
	if a.runs.Load() != 0 {
		t.Fatalf("owner simulated %d times despite a peer holding the bytes", a.runs.Load())
	}
	if !bytes.Equal(body, primed) {
		t.Fatal("read-through bytes differ from the peer's")
	}
	if ops := a.srv.Metrics().Snapshot().PeerOps["b"]; ops[obs.PeerFetchHit] != 1 {
		t.Fatalf("peer_ops fetch_hit %d on a, want 1", ops[obs.PeerFetchHit])
	}
}

// TestClusterReadyzReportsPeers checks the readiness page names each peer
// with its probe result, and that peer trouble never flips readiness.
func TestClusterReadyzReportsPeers(t *testing.T) {
	a, _ := newTestCluster(t, nil, nil)
	resp, err := http.Get(a.url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("peer b ok")) {
		t.Fatalf("readyz status %d body %q, want 200 with \"peer b ok\"", resp.StatusCode, body)
	}
}

// TestAntiEntropySweep plants both agreeing and diverging replicas and
// checks the sweep counts them apart: identical bytes are check_ok,
// different bytes for one digest are a diverged counter and an Error log.
func TestAntiEntropySweep(t *testing.T) {
	a, b := newTestCluster(t, nil, nil)
	inject := func(n clusterNode, digest string, body []byte) {
		n.srv.mu.Lock()
		n.srv.results.Memo.Put(digest, body)
		n.srv.mu.Unlock()
	}
	same := strings.Repeat("aa", 32)
	split := strings.Repeat("bb", 32)
	lonely := strings.Repeat("cc", 32)
	inject(a, same, []byte("agreed\n"))
	inject(b, same, []byte("agreed\n"))
	inject(a, split, []byte("mine\n"))
	inject(b, split, []byte("yours\n"))
	inject(a, lonely, []byte("unreplicated\n")) // only a holds it: skipped

	checked, diverged, repaired := a.srv.AntiEntropySweep(context.Background())
	if checked != 2 || diverged != 1 {
		t.Fatalf("sweep checked=%d diverged=%d, want 2 checked with 1 divergence", checked, diverged)
	}
	if repaired != 0 {
		t.Fatalf("sweep repaired=%d without -repair, want 0", repaired)
	}
	ops := a.srv.Metrics().Snapshot().PeerOps["b"]
	if ops[obs.PeerCheckOK] != 1 || ops[obs.PeerDiverged] != 1 {
		t.Fatalf("peer_ops check_ok=%d diverged=%d, want 1 and 1", ops[obs.PeerCheckOK], ops[obs.PeerDiverged])
	}
}

// TestResultEndpointNeverComputes pins the loop-freedom invariant: the peer
// read endpoint answers 404 for any well-formed digest not held locally —
// it must not fall back to simulating or forwarding — and 400 for anything
// that is not a 64-char lowercase-hex digest at all.
func TestResultEndpointNeverComputes(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1, Runner: stubRunner(&runs, nil)})
	resp, err := http.Get(ts.URL + "/v1/result/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d, want 404", resp.StatusCode)
	}
	if runs.Load() != 0 {
		t.Fatal("a result lookup triggered a simulation")
	}
	for _, bad := range []string{
		"sha256:deadbeef",                // prefixed, wrong length
		strings.Repeat("0", 63),          // one short
		strings.Repeat("0", 65),          // one long
		strings.Repeat("A", 64),          // uppercase hex
		strings.Repeat("z", 64),          // not hex
		strings.Repeat("0", 60) + "../a", // traversal-looking
	} {
		resp, err := http.Get(ts.URL + "/v1/result/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed digest %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/result/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty digest: status %d, want 400", resp.StatusCode)
	}
}

// TestStoreSurvivesRestart is the tentpole's persistence property: a result
// computed before a "restart" (new Server over the reopened store) is served
// from disk with provenance hit — no recomputation.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Benchmark: "bzip2", Instructions: 1000, Seed: 7}

	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var runs1 atomic.Int64
	s1 := New(Config{Workers: 1, Store: st, Runner: stubRunner(&runs1, nil)})
	ts1 := httptest.NewServer(s1.Handler())
	resp1, body1 := postRun(t, ts1.URL, req)
	if resp1.StatusCode != http.StatusOK || runs1.Load() != 1 {
		t.Fatalf("first run: status %d runs %d", resp1.StatusCode, runs1.Load())
	}
	ts1.Close()
	s1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	var runs2 atomic.Int64
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: st2, Runner: stubRunner(&runs2, nil)})
	resp2, body2 := postRun(t, ts2.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted run: status %d", resp2.StatusCode)
	}
	if runs2.Load() != 0 {
		t.Fatalf("restarted node recomputed (%d runs) instead of reading its store", runs2.Load())
	}
	if cache := resp2.Header.Get("X-Tvsched-Cache"); cache != "hit" {
		t.Fatalf("store-backed answer carries cache %q, want hit", cache)
	}
	if src := resp2.Header.Get(SourceHeader); src != "store" {
		t.Fatalf("store-backed answer carries source %q, want store", src)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("store-backed answer not byte-identical to the original")
	}
	snap := s2.Metrics().Snapshot()
	if snap.StoreOps[obs.StoreHit] != 1 {
		t.Fatalf("store hit counter %d, want 1", snap.StoreOps[obs.StoreHit])
	}
	if snap.StoreEntries < 1 || snap.StoreBytes <= 0 {
		t.Fatalf("store gauges entries=%d bytes=%d, want populated at startup", snap.StoreEntries, snap.StoreBytes)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
