package mem

import (
	"bytes"
	"errors"
	"testing"

	"tvsched/internal/rng"
	"tvsched/internal/snap"
)

// FuzzCacheReadState feeds arbitrary bytes to an L2's ReadState. It must
// never panic: it either rejects them with an error that wraps
// snap.ErrCorrupt, or yields a cache whose AppendState bytes restore into a
// fresh cache holding the same lines (appendFull). The seed corpus is a real
// L2 state, with a prefill rule and records, and its truncations.
func FuzzCacheReadState(f *testing.F) {
	l1 := CacheConfig{Name: "L1", SizeBytes: 512, Ways: 2, LineBytes: 64, Latency: 1}
	l2 := CacheConfig{Name: "L2", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, Latency: 9}
	h := NewHierarchy(HierarchyConfig{L1I: l1, L1D: l1, L2: l2, MemLatency: 100})
	h.Prefill(1<<20, 8<<10)
	src := rng.New(5)
	for range 300 {
		h.DataAccess(1<<20 - 16<<10 + src.Uint64n(64<<10))
	}
	good := cacheBytes(h.L2)
	f.Add(good)
	for _, n := range []int{0, 8, 16, stateHeadBytes, stateHeadBytes + recordHeadBytes, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		c := NewCache(l2)
		if err := c.ReadState(snap.NewReader(b)); err != nil {
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap snap.ErrCorrupt", err)
			}
			return
		}
		again := NewCache(l2)
		if err := again.ReadState(snap.NewReader(cacheBytes(c))); err != nil {
			t.Fatalf("the re-encoded state is rejected: %v", err)
		}
		if !bytes.Equal(fullBytes(again), fullBytes(c)) {
			t.Fatal("the re-encoded state restores to other lines")
		}
	})
}
