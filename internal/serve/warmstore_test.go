package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tvsched/internal/cluster"
	"tvsched/internal/obs"
	"tvsched/internal/resolve"
	"tvsched/internal/store"
)

// TestWarmStateStoreTier alternates two WarmKeys through a one-entry
// snapshot memo over a store: the first two misses warm donors, the third
// (the first key again, another scheme) finds its warm state evicted from
// the memo and loads it from the store. A memory-only server answers the
// same requests with the same bytes, warming a donor every time; neither
// server's result-store counters see a warm-state access.
func TestWarmStateStoreTier(t *testing.T) {
	reqs := []RunRequest{
		{Benchmark: "bzip2", Scheme: "ABS", Instructions: 2000, Warmup: 2000, Seed: 1},
		{Benchmark: "sjeng", Scheme: "ABS", Instructions: 2000, Warmup: 2000, Seed: 1},
		{Benchmark: "bzip2", Scheme: "FFS", Instructions: 2000, Warmup: 2000, Seed: 1},
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tiered, tieredTS := newTestServer(t, Config{Workers: 1, SnapshotEntries: 1, Store: st})
	memOnly, memTS := newTestServer(t, Config{Workers: 1, SnapshotEntries: 1})

	for i, req := range reqs {
		resp, got := postRun(t, tieredTS.URL, req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Tvsched-Cache") != "miss" {
			t.Fatalf("request %d: status %d cache %q, want a 200 miss", i, resp.StatusCode, resp.Header.Get("X-Tvsched-Cache"))
		}
		resp, want := postRun(t, memTS.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d at the memory-only server: status %d", i, resp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: the store-backed server's body differs from the memory-only server's", i)
		}
	}

	snap := tiered.Metrics().Snapshot()
	if w := snap.WarmStates; w[obs.WarmDonor] != 2 || w[obs.WarmStore] != 1 || w[obs.WarmMemo] != 0 {
		t.Fatalf("store-backed warm states %v (memo, store, donor), want [0 1 2]", w)
	}
	if ops := snap.StoreOps; ops[obs.StoreHit] != 0 || ops[obs.StoreMiss] != 3 || ops[obs.StorePut] != 3 {
		t.Fatalf("result-store ops %v (hit, miss, put), want [0 3 3]: warm states must not count", ops)
	}
	if snap.StoreEntries != 5 {
		t.Fatalf("store entries gauge %d, want 5 (3 results and 2 warm states)", snap.StoreEntries)
	}
	if w := memOnly.Metrics().Snapshot().WarmStates; w[obs.WarmDonor] != 3 || w[obs.WarmStore] != 0 {
		t.Fatalf("memory-only warm states %v (memo, store, donor), want [0 0 3]", w)
	}
}

// TestAntiEntropySkipsWarmStates sweeps a node whose store holds warm-state
// records beside one replicated result: the sweep cross-checks the result
// only, and the peer is never asked for a warm-state key.
func TestAntiEntropySkipsWarmStates(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	digest := strings.Repeat("ab", 32)
	body := []byte("agreed\n")
	for _, k := range []string{strings.Repeat("01", 32), strings.Repeat("02", 32)} {
		if err := st.Put(resolve.WarmStatePrefix+k, []byte("warm state bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(digest, body); err != nil {
		t.Fatal(err)
	}

	peer := New(Config{Workers: 1})
	t.Cleanup(peer.Close)
	peer.results.Memo.Put(digest, body)
	var mu sync.Mutex
	var paths []string
	peerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		peer.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(peerTS.Close)

	a, _ := newTestServer(t, Config{Workers: 1, Store: st})
	if err := a.SetPeers("a", []cluster.Peer{{ID: "b", URL: peerTS.URL}}); err != nil {
		t.Fatal(err)
	}
	checked, diverged, _ := a.AntiEntropySweep(context.Background())
	if checked != 1 || diverged != 0 {
		t.Fatalf("sweep checked=%d diverged=%d, want the one result checked, no divergence", checked, diverged)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range paths {
		if strings.Contains(p, resolve.WarmStatePrefix) {
			t.Errorf("the peer was asked for %s", p)
		}
	}
	if ops := a.Metrics().Snapshot().PeerOps["b"]; ops[obs.PeerCheckOK] != 1 || ops[obs.PeerDiverged] != 0 {
		t.Fatalf("peer_ops check_ok=%d diverged=%d, want 1 and 0", ops[obs.PeerCheckOK], ops[obs.PeerDiverged])
	}
}
