package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tvsched/internal/rng"
	"tvsched/internal/snap"
)

// TestHierarchySnapshotRoundTrip exercises a hierarchy with a mixed access
// pattern, snapshots it, restores into a fresh hierarchy of the same
// geometry, and requires identical hit/miss behaviour afterwards.
func TestHierarchySnapshotRoundTrip(t *testing.T) {
	cfg := DefaultHierarchy()
	h := NewHierarchy(cfg)
	src := rng.New(3)
	addr := func() uint64 { return uint64(src.Intn(1<<22)) &^ 7 }
	for i := 0; i < 20000; i++ {
		if src.Bool(0.2) {
			h.InstAccess(addr())
		} else {
			h.DataAccess(addr())
		}
	}

	var w snap.Writer
	h.AppendState(&w)
	h2 := NewHierarchy(cfg)
	if err := h2.ReadState(snap.NewReader(w.B)); err != nil {
		t.Fatal(err)
	}
	// Restore zeroes statistics (the warmup-boundary contract); zero the
	// original's too so both accumulate from the same point below.
	h.L1I.Stats, h.L1D.Stats, h.L2.Stats = CacheStats{}, CacheStats{}, CacheStats{}

	for i := 0; i < 20000; i++ {
		a := addr()
		if src.Bool(0.2) {
			if l1, l2 := h.InstAccess(a), h2.InstAccess(a); l1 != l2 {
				t.Fatalf("InstAccess(%#x) diverged at %d: %d vs %d", a, i, l1, l2)
			}
		} else {
			if l1, l2 := h.DataAccess(a), h2.DataAccess(a); l1 != l2 {
				t.Fatalf("DataAccess(%#x) diverged at %d: %d vs %d", a, i, l1, l2)
			}
		}
	}
	// Post-restore stats must agree too (both started from zero).
	if h.L1D.Stats != h2.L1D.Stats || h.L2.Stats != h2.L2.Stats || h.L1I.Stats != h2.L1I.Stats {
		t.Fatal("post-restore statistics diverged")
	}
}

func TestCacheSnapshotCorrupt(t *testing.T) {
	c := NewCache(DefaultHierarchy().L1D)
	if err := c.ReadState(snap.NewReader([]byte{0, 1, 2})); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// An out-of-range way count must be rejected.
	var w snap.Writer
	w.U64(1)  // stamp
	w.U8(200) // way count far above associativity
	c2 := NewCache(DefaultHierarchy().L1D)
	if err := c2.ReadState(snap.NewReader(w.B)); err == nil {
		t.Fatal("bogus way count accepted")
	}
}

// TestResetForgetsSnapshot pins that Reset empties a restored cache,
// including the sets it has not decoded yet.
func TestResetForgetsSnapshot(t *testing.T) {
	cfg := DefaultHierarchy()
	h := NewHierarchy(cfg)
	for a := uint64(0); a < 1<<20; a += 64 {
		h.DataAccess(a)
	}
	h2 := NewHierarchy(cfg)
	if err := h2.ReadState(snap.NewReader(hierarchyBytes(h))); err != nil {
		t.Fatal(err)
	}
	h2.DataAccess(0) // decode one set of each data-side level
	h2.Reset()
	if got, want := hierarchyBytes(h2), hierarchyBytes(NewHierarchy(cfg)); !bytes.Equal(got, want) {
		t.Fatal("Reset left restored lines in the cache")
	}
}

// eagerReadState is ReadState as it was before sets materialized on first
// touch: it decodes every record straight into the cache's sets, all of
// which must exist, and fails part-way through on a bad one. It is the
// reference the lazy ReadState is held to.
func eagerReadState(c *Cache, r *snap.Reader) error {
	c.stamp = r.U64()
	for si := range c.NumSets() {
		set := c.set(uint64(si))
		for wi := range set {
			set[wi] = line{}
		}
		n := int(r.U8())
		if n > len(set) {
			return fmt.Errorf("%w: %s set %d has %d valid ways of %d",
				snap.ErrCorrupt, c.cfg.Name, si, n, len(set))
		}
		for k := 0; k < n; k++ {
			wi := int(r.U8())
			if wi >= len(set) {
				return fmt.Errorf("%w: %s way index %d out of range", snap.ErrCorrupt, c.cfg.Name, wi)
			}
			set[wi] = line{tag: r.U64(), lru: r.U64(), valid: true}
		}
	}
	c.Stats = CacheStats{}
	return r.Err()
}

// eagerHierarchy builds a hierarchy whose caches hold every set, as NewCache
// used to build them, and restores r into it with the reference decoder.
func eagerHierarchy(cfg HierarchyConfig, r *snap.Reader) (*Hierarchy, error) {
	h := NewHierarchy(cfg)
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		c.set(0) // a fresh cache builds every set on its first touch
		if err := eagerReadState(c, r); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func hierarchyBytes(h *Hierarchy) []byte {
	var w snap.Writer
	h.AppendState(&w)
	return w.B
}

// snapshotFields returns where each field of a well-formed hierarchy
// snapshot lies, by kind: set counts, way indices, tags, and LRU stamps (the
// caches' stamp counters among them). A field is [offset, offset+size).
func snapshotFields(cfg HierarchyConfig, b []byte) (counts, ways, tags, lrus [][2]int) {
	off := 0
	for _, cc := range []CacheConfig{cfg.L1I, cfg.L1D, cfg.L2} {
		lrus = append(lrus, [2]int{off, 8})
		off += 8
		for range cc.SizeBytes / (cc.Ways * cc.LineBytes) {
			n := int(b[off])
			counts = append(counts, [2]int{off, 1})
			off++
			for ; n > 0; n-- {
				ways = append(ways, [2]int{off, 1})
				tags = append(tags, [2]int{off + 1, 8})
				lrus = append(lrus, [2]int{off + 9, 8})
				off += wayRecordBytes
			}
		}
	}
	return counts, ways, tags, lrus
}

// TestReadStateMatchesEagerDecoder corrupts hierarchy snapshots of random
// access mixes — one flipped byte in a count, way index, tag or LRU field,
// or a truncation — and holds ReadState to the eager reference decoder:
// it accepts exactly the snapshots the reference accepts and consumes as
// many bytes; and for each accepted one, AppendState gives the reference's
// bytes before any access and after a random access sequence whose
// hit/miss latencies match the reference's. Every other case restores into
// a hierarchy that has already run, which the snapshot must fully replace.
func TestReadStateMatchesEagerDecoder(t *testing.T) {
	geometries := []HierarchyConfig{
		{
			L1I:        CacheConfig{Name: "L1I", SizeBytes: 512, Ways: 2, LineBytes: 64, Latency: 1},
			L1D:        CacheConfig{Name: "L1D", SizeBytes: 512, Ways: 2, LineBytes: 64, Latency: 1},
			L2:         CacheConfig{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Latency: 5},
			MemLatency: 40,
		},
		{
			L1I:        CacheConfig{Name: "L1I", SizeBytes: 1 << 10, Ways: 1, LineBytes: 64, Latency: 1},
			L1D:        CacheConfig{Name: "L1D", SizeBytes: 1 << 10, Ways: 4, LineBytes: 32, Latency: 2},
			L2:         CacheConfig{Name: "L2", SizeBytes: 16 << 10, Ways: 16, LineBytes: 64, Latency: 9},
			MemLatency: 100,
		},
	}
	const corruptions = 1000
	for gi, cfg := range geometries {
		for seed := uint64(1); seed <= 2; seed++ {
			src := rng.New(100*uint64(gi) + seed)
			span := 4 * uint64(cfg.L2.SizeBytes)
			access := func(h *Hierarchy, a uint64, inst bool) int {
				if inst {
					return h.InstAccess(a)
				}
				return h.DataAccess(a)
			}
			mix := func(h *Hierarchy, n int) {
				for i := 0; i < n; i++ {
					access(h, src.Uint64n(span), src.Bool(0.2))
				}
			}
			donor := NewHierarchy(cfg)
			mix(donor, 3000)
			good := hierarchyBytes(donor)
			counts, ways, tags, lrus := snapshotFields(cfg, good)
			kinds := [][][2]int{counts, ways, tags, lrus}

			var accepted, rejected, reencoded int
			for i := 0; i < corruptions; i++ {
				b := bytes.Clone(good)
				if k := src.Intn(len(kinds) + 1); k == len(kinds) {
					b = b[:src.Intn(len(b))]
				} else {
					f := kinds[k][src.Intn(len(kinds[k]))]
					b[f[0]+src.Intn(f[1])] ^= byte(1 + src.Intn(255))
				}

				lazy := NewHierarchy(cfg)
				if i%2 == 1 {
					mix(lazy, 50)
				}
				lr, er := snap.NewReader(b), snap.NewReader(b)
				lerr := lazy.ReadState(lr)
				eager, eerr := eagerHierarchy(cfg, er)
				if (lerr == nil) != (eerr == nil) {
					t.Fatalf("geometry %d seed %d case %d: ReadState error %v, reference %v", gi, seed, i, lerr, eerr)
				}
				if lerr != nil {
					if !errors.Is(lerr, snap.ErrCorrupt) {
						t.Fatalf("case %d: rejection %v does not wrap snap.ErrCorrupt", i, lerr)
					}
					rejected++
					continue
				}
				accepted++
				if lr.Rest() != er.Rest() {
					t.Fatalf("case %d: ReadState left %d bytes unread, reference %d", i, lr.Rest(), er.Rest())
				}
				got := hierarchyBytes(lazy)
				if want := hierarchyBytes(eager); !bytes.Equal(got, want) {
					t.Fatalf("case %d: AppendState after restore differs from the reference", i)
				}
				if !bytes.Equal(got, b[:len(b)-lr.Rest()]) {
					reencoded++ // repeated or unsorted way indices
				}
				for k := 0; k < 300; k++ {
					a, inst := src.Uint64n(span), src.Bool(0.2)
					if l, e := access(lazy, a, inst), access(eager, a, inst); l != e {
						t.Fatalf("case %d access %d (%#x): latency %d, reference %d", i, k, a, l, e)
					}
				}
				if lazy.L1I.Stats != eager.L1I.Stats || lazy.L1D.Stats != eager.L1D.Stats || lazy.L2.Stats != eager.L2.Stats {
					t.Fatalf("case %d: statistics differ from the reference", i)
				}
				if !bytes.Equal(hierarchyBytes(lazy), hierarchyBytes(eager)) {
					t.Fatalf("case %d: AppendState after accesses differs from the reference", i)
				}
			}
			if accepted == 0 || rejected == 0 || reencoded == 0 {
				t.Fatalf("geometry %d seed %d: %d accepted (%d re-encoded differently), %d rejected: the corruptions miss a case",
					gi, seed, accepted, reencoded, rejected)
			}
			t.Logf("geometry %d seed %d: %d accepted (%d re-encoded differently), %d rejected", gi, seed, accepted, reencoded, rejected)
		}
	}
}

// TestRestoreRejectsBadWayInLastSet pins that ReadState validates every
// record before it returns: a way index out of range in the L2's last set,
// the last record of a hierarchy snapshot, fails the restore itself rather
// than the first access to reach that set, and leaves the L2 as it was.
func TestRestoreRejectsBadWayInLastSet(t *testing.T) {
	cfg := DefaultHierarchy()
	h := NewHierarchy(cfg)
	h.DataAccess(0x1000)
	h.DataAccess(uint64(h.L2.NumSets()-1) * uint64(cfg.L2.LineBytes)) // the last set's only line
	b := hierarchyBytes(h)
	b[len(b)-wayRecordBytes] = uint8(cfg.L2.Ways)

	h2 := NewHierarchy(cfg)
	h2.DataAccess(0x2000)
	var before snap.Writer
	h2.L2.AppendState(&before)
	if err := h2.ReadState(snap.NewReader(b)); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("restore with a bad way index in the last L2 set: err = %v, want snap.ErrCorrupt", err)
	}
	var after snap.Writer
	h2.L2.AppendState(&after)
	if !bytes.Equal(before.B, after.B) {
		t.Fatal("a rejected L2 snapshot changed the cache")
	}
}
