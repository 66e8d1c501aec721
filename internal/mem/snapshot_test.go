package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	if err := c.ReadState(snap.NewReader([]byte{0, 1, 2})); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want snap.ErrCorrupt", err)
	}
	// A line count above the associativity must be rejected.
	var w snap.Writer
	w.U64(0)  // rule: none
	w.U64(0)  //
	w.U32(1)  // one record
	w.U32(0)  // of set 0
	w.U8(200) // line count far above associativity
	w.U64(1)  // one tag, so the record's head is not truncated
	c2 := NewCache(DefaultHierarchy().L1D)
	if err := c2.ReadState(snap.NewReader(w.B)); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("bogus line count: err = %v, want snap.ErrCorrupt", err)
	}
}

// TestResetForgetsSnapshot pins that Reset empties a restored cache,
// including the sets it has not decoded yet, and a prefilled one, including
// the sets it has not built from the prefill rule yet, and forgets the whole
// rule: both the lines and the bytes must be a fresh cache's.
func TestResetForgetsSnapshot(t *testing.T) {
	cfg := DefaultHierarchy()
	fresh := NewHierarchy(cfg)
	check := func(h *Hierarchy, what string) {
		t.Helper()
		for i, c := range h.caches() {
			f := fresh.caches()[i]
			if !bytes.Equal(fullBytes(c), fullBytes(f)) {
				t.Fatalf("Reset left %s lines in the %s", what, c.cfg.Name)
			}
			if !bytes.Equal(cacheBytes(c), cacheBytes(f)) {
				t.Fatalf("Reset left %s state in the %s's bytes", what, c.cfg.Name)
			}
		}
	}

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
	check(h2, "restored")

	h3 := NewHierarchy(cfg)
	h3.Prefill(1<<30, 1<<20)
	h3.DataAccess(1 << 30) // build one set of each data-side level
	h3.Reset()
	check(h3, "prefilled")

	// A snapshot that carries a rule: Reset forgets the rule it restored.
	h4 := NewHierarchy(cfg)
	h4.Prefill(1<<30, 1<<20)
	h4.DataAccess(3 << 30)
	h5 := NewHierarchy(cfg)
	if err := h5.ReadState(snap.NewReader(hierarchyBytes(h4))); err != nil {
		t.Fatal(err)
	}
	h5.DataAccess(1 << 30) // build one set from the restored rule
	h5.Reset()
	check(h5, "restored prefill")
}

// caches returns the hierarchy's caches in snapshot order.
func (h *Hierarchy) caches() []*Cache { return []*Cache{h.L1I, h.L1D, h.L2} }

// eachSet calls f with the words of every set of c in index order, a set
// not built yet as it would be built, in a scratch set f must not keep. It
// builds no set.
func eachSet(c *Cache, f func(set []uint64)) {
	scratch := make([]uint64, c.cfg.Ways)
	for i := range c.at {
		f(c.view(i, scratch))
	}
}

// appendFull is AppendState without the prefill rule: no rule, and a record
// of every set in index order, its lines' tags most recent first. It encodes
// what Access and Probe see, whatever rule the cache holds its lines by, and
// is the reference the snapshot codec is held to; ReadState accepts its
// bytes.
func appendFull(c *Cache, w *snap.Writer) {
	w.U64(0)
	w.U64(0)
	w.U32(uint32(c.NumSets()))
	i := 0
	eachSet(c, func(set []uint64) {
		n := len(set)
		for n > 0 && set[n-1] == 0 {
			n--
		}
		w.U32(uint32(i))
		w.U8(uint8(n))
		for _, word := range set[:n] {
			w.U64(word - 1)
		}
		i++
	})
}

func fullBytes(c *Cache) []byte {
	var w snap.Writer
	appendFull(c, &w)
	return w.B
}

func cacheBytes(c *Cache) []byte {
	var w snap.Writer
	c.AppendState(&w)
	return w.B
}

// eagerReadState is the reference decoder of one cache's snapshot state: it
// installs the rule, builds every set of the cache from it, then decodes
// each record over its set, its tags plus one from the first way on,
// validating each field as it reads it and failing part-way through on a
// bad one. ReadState is held to it.
func eagerReadState(c *Cache, r *snap.Reader) error {
	line0, lines := r.U64(), r.U64()
	count := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	sets, ways := c.NumSets(), c.cfg.Ways
	if lines > uint64(sets*ways) || lines == 0 && line0 != 0 {
		return fmt.Errorf("%w: %s prefill rule (%#x, %d)", snap.ErrCorrupt, c.cfg.Name, line0, lines)
	}
	c.pfLine0, c.pfLines = line0, lines
	for si := range sets {
		c.set(uint64(si))
	}
	if count > sets {
		return fmt.Errorf("%w: %s has %d records", snap.ErrCorrupt, c.cfg.Name, count)
	}
	prev := -1
	for range count {
		si, n := int(r.U32()), int(r.U8())
		if err := r.Err(); err != nil {
			return err
		}
		if si >= sets || si <= prev {
			return fmt.Errorf("%w: %s set %d after set %d", snap.ErrCorrupt, c.cfg.Name, si, prev)
		}
		prev = si
		if n > ways {
			return fmt.Errorf("%w: %s set %d holds %d lines in %d ways", snap.ErrCorrupt, c.cfg.Name, si, n, ways)
		}
		set := c.set(uint64(si))
		clear(set)
		for k := range n {
			set[k] = r.U64() + 1
		}
	}
	c.Stats = CacheStats{}
	return r.Err()
}

// eagerHierarchy restores r into a fresh hierarchy with the reference
// decoder, which builds every set of each cache.
func eagerHierarchy(cfg HierarchyConfig, r *snap.Reader) (*Hierarchy, error) {
	h := NewHierarchy(cfg)
	for _, c := range h.caches() {
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

// A field of a snapshot is [off, off+size).
type field struct{ off, size int }

// stateFields are where the fields of a well-formed hierarchy snapshot lie,
// by kind: the rules, the record counts, the records' set indices and line
// counts, and the tags. recs holds, for each record, its fields and the set
// index field of the record before it in the same cache ({-1, 0} for a
// cache's first record).
type stateFields struct {
	rules, counts, sets, lens, tags []field
	recs                            []recordField
}

// A recordField is one record of a cache of numSets sets of ways ways: its
// set index field, its line count field, the set index field of the record
// before it, and the offset just past its last tag.
type recordField struct {
	index, lines, prev field
	end                int
	numSets, ways      int
}

// snapshotFields parses a well-formed hierarchy snapshot into its fields.
func snapshotFields(cfg HierarchyConfig, b []byte) stateFields {
	var f stateFields
	r := snap.NewReader(b)
	off := 0
	take := func(n int) field {
		fl := field{off, n}
		off += n
		r.Skip(n)
		return fl
	}
	for _, cc := range []CacheConfig{cfg.L1I, cfg.L1D, cfg.L2} {
		numSets := cc.SizeBytes / (cc.Ways * cc.LineBytes)
		f.rules = append(f.rules, take(16))
		n := int(binary.LittleEndian.Uint32(b[off:]))
		f.counts = append(f.counts, take(4))
		prev := field{-1, 0}
		for range n {
			idx := take(4)
			f.sets = append(f.sets, idx)
			lines := int(b[off])
			lf := take(1)
			f.lens = append(f.lens, lf)
			for range lines {
				f.tags = append(f.tags, take(tagBytes))
			}
			f.recs = append(f.recs, recordField{idx, lf, prev, off, numSets, cc.Ways})
			prev = idx
		}
	}
	return f
}

// TestReadStateMatchesEagerDecoder corrupts hierarchy snapshots of random
// access mixes, with and without a prefill rule in the L2, and holds
// ReadState to the eager reference decoder. A corruption flips one byte of
// a rule, a record count, a set index, a line count or a tag; sets a set
// index to the one before it (repeated), below it (descending) or past the
// last set (out of range); sets a line count above the ways; empties a
// record (line count 0, its tags cut out); truncates a record; or truncates
// the snapshot. ReadState must accept exactly the snapshots the reference
// accepts and consume as many bytes, and must leave a cache whose state it
// rejects unchanged. For each accepted snapshot, the lines (appendFull) and
// the AppendState bytes must be the reference's before any access and after
// a random access sequence whose hit/miss latencies match the reference's.
// Every other case restores into a hierarchy that has already run, which
// the snapshot must fully replace.
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
			if seed == 2 {
				donor.Prefill(span/2, uint64(cfg.L2.SizeBytes)/2) // a rule of half the L2
			}
			mix(donor, 3000)
			good := hierarchyBytes(donor)
			fs := snapshotFields(cfg, good)
			kinds := [][]field{fs.rules, fs.counts, fs.sets, fs.lens, fs.tags}

			var accepted, rejected, reencoded int
			for i := 0; i < corruptions; i++ {
				b := bytes.Clone(good)
				rec := fs.recs[src.Intn(len(fs.recs))]
				switch k := src.Intn(len(kinds) + 5); {
				case k < len(kinds):
					f := kinds[k][src.Intn(len(kinds[k]))]
					b[f.off+src.Intn(f.size)] ^= byte(1 + src.Intn(255))
				case k == len(kinds):
					prev := -1
					if rec.prev.off >= 0 {
						prev = int(binary.LittleEndian.Uint32(b[rec.prev.off:]))
					}
					var idx int
					switch src.Intn(3) {
					case 0: // repeated
						idx = prev
					case 1: // descending
						idx = prev - 1 - src.Intn(2)
					default: // out of range
						idx = rec.numSets + src.Intn(3)
					}
					binary.LittleEndian.PutUint32(b[rec.index.off:], uint32(idx))
				case k == len(kinds)+1: // more lines than ways
					b[rec.lines.off] = byte(rec.ways + 1 + src.Intn(255-rec.ways))
				case k == len(kinds)+2: // emptied: equal to an empty rule set
					b = append(b[:rec.lines.off:rec.lines.off], append([]byte{0}, b[rec.end:]...)...)
				case k == len(kinds)+3: // a truncated record
					b = b[:rec.index.off+src.Intn(rec.end-rec.index.off)]
				default:
					b = b[:src.Intn(len(b))]
				}

				lazy := NewHierarchy(cfg)
				if i%2 == 1 {
					mix(lazy, 50)
				}
				lr, er := snap.NewReader(b), snap.NewReader(b)
				var lerr error
				for _, c := range lazy.caches() {
					before, lines, stats := cacheBytes(c), fullBytes(c), c.Stats
					if lerr = c.ReadState(lr); lerr != nil {
						if !bytes.Equal(cacheBytes(c), before) || !bytes.Equal(fullBytes(c), lines) || c.Stats != stats {
							t.Fatalf("case %d: %s rejected its state (%v) and changed", i, c.cfg.Name, lerr)
						}
						break
					}
				}
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
				same := func(when string) {
					t.Helper()
					for ci, c := range lazy.caches() {
						e := eager.caches()[ci]
						if !bytes.Equal(fullBytes(c), fullBytes(e)) {
							t.Fatalf("case %d %s: the %s's lines differ from the reference's", i, when, c.cfg.Name)
						}
						if !bytes.Equal(cacheBytes(c), cacheBytes(e)) {
							t.Fatalf("case %d %s: the %s's AppendState differs from the reference's", i, when, c.cfg.Name)
						}
					}
				}
				same("after restore")
				if !bytes.Equal(hierarchyBytes(lazy), b[:len(b)-lr.Rest()]) {
					reencoded++ // a record equal to its rule set
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
				same("after accesses")
			}
			if accepted == 0 || rejected == 0 || reencoded == 0 {
				t.Fatalf("geometry %d seed %d: %d accepted (%d re-encoded differently), %d rejected: the corruptions miss a case",
					gi, seed, accepted, reencoded, rejected)
			}
			t.Logf("geometry %d seed %d: %d accepted (%d re-encoded differently), %d rejected", gi, seed, accepted, reencoded, rejected)
		}
	}
}

// TestRestoreRejectsBadLastRecord pins that ReadState validates every
// record before it returns: a bad record of the L2's last set, the last
// record of a hierarchy snapshot — a line count above the ways, a set index
// past the last set, or a tag cut short — fails the restore itself rather
// than the first access to reach that set, and leaves the L2 as it was.
func TestRestoreRejectsBadLastRecord(t *testing.T) {
	cfg := DefaultHierarchy()
	h := NewHierarchy(cfg)
	h.DataAccess(0x1000)
	h.DataAccess(uint64(h.L2.NumSets()-1) * uint64(cfg.L2.LineBytes)) // the last set's only line
	good := hierarchyBytes(h)
	last := len(good) - tagBytes - recordHeadBytes // the last record: set index, line count, one tag
	if got := binary.LittleEndian.Uint32(good[last:]); got != uint32(h.L2.NumSets()-1) || good[last+4] != 1 {
		t.Fatalf("the last record is of set %d with %d lines, want the last set with 1", got, good[last+4])
	}
	for _, tc := range []struct {
		what    string
		corrupt func(b []byte) []byte
	}{
		{"a line count above the ways", func(b []byte) []byte { b[last+4] = uint8(cfg.L2.Ways + 1); return b }},
		{"a set index past the last set", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[last:], uint32(h.L2.NumSets()))
			return b
		}},
		{"a truncated tag", func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		h2 := NewHierarchy(cfg)
		h2.DataAccess(0x2000)
		before := cacheBytes(h2.L2)
		if err := h2.ReadState(snap.NewReader(tc.corrupt(bytes.Clone(good)))); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("restore with %s in the last L2 record: err = %v, want snap.ErrCorrupt", tc.what, err)
		}
		if !bytes.Equal(cacheBytes(h2.L2), before) {
			t.Fatalf("a rejected L2 snapshot (%s) changed the cache", tc.what)
		}
	}
}

// recordedSets returns the set indices of the records in one cache's
// AppendState bytes b.
func recordedSets(b []byte) []int {
	var sets []int
	off := stateHeadBytes
	for range binary.LittleEndian.Uint32(b[stateHeadBytes-4:]) {
		sets = append(sets, int(binary.LittleEndian.Uint32(b[off:])))
		off += recordHeadBytes + int(b[off+4])*tagBytes
	}
	return sets
}

// differingSets returns the indices of the sets of c that differ from their
// rule set, and how many built sets equal theirs.
func differingSets(c *Cache) (sets []int, builtAsRule int) {
	rule := make([]uint64, c.cfg.Ways)
	i := 0
	eachSet(c, func(set []uint64) {
		c.ruleSet(rule, uint64(i))
		switch {
		case !slices.Equal(set, rule):
			sets = append(sets, i)
		case c.at[i]&builtBit != 0:
			builtAsRule++
		}
		i++
	})
	return sets, builtAsRule
}

// TestSnapshotKeepsLogicalState round-trips an L2 of random geometry and
// prefill region through AppendState and ReadState from seven starting
// states: fresh, prefilled by rule, prefilled by the per-line loop, used,
// only probed, restored and reset, each followed by a few accesses and
// probes where it has run. The copy, restored into a fresh cache or one that
// has run, must hold the original's lines (appendFull) and snapshot to its
// bytes; after 2,000 random accesses and probes on both, the hit/miss
// sequence, the statistics and the lines must still agree, and
// FirstDifferentSet must find no set that differs until one more access, a
// miss, reaches one cache alone. The bytes must be canonical, before and after:
// they record exactly the sets that differ from their rule set, so a built
// set that equals its rule set is not recorded, and StateLen gives their
// length. Neither they nor ReadState build a set.
func TestSnapshotKeepsLogicalState(t *testing.T) {
	src := rng.New(27)
	starts := []string{"fresh", "rule-prefilled", "loop-prefilled", "used", "probed", "restored", "reset"}
	var builtAsRule, recorded int
	for trial := 0; trial < 60*len(starts); trial++ {
		ways := 1 << src.Intn(5)
		sets := 1 << src.Intn(7)
		lineSize := 16 << src.Intn(3)
		cfg := HierarchyConfig{
			L1I:        CacheConfig{Name: "L1I", SizeBytes: 256, Ways: 2, LineBytes: 32, Latency: 1},
			L1D:        CacheConfig{Name: "L1D", SizeBytes: 256, Ways: 2, LineBytes: 32, Latency: 1},
			L2:         CacheConfig{Name: "L2", SizeBytes: sets * ways * lineSize, Ways: ways, LineBytes: lineSize, Latency: 4},
			MemLatency: 20,
		}
		start := starts[trial%len(starts)]
		line := uint64(lineSize)
		base := src.Uint64n(1<<36) &^ (line - 1)
		size := uint64(src.Intn(sets*ways+1)) * line // a region the rule takes, maybe empty
		span := 4 * uint64(cfg.L2.SizeBytes)
		window := base - min(base, span/2)
		addr := func() uint64 { return window + src.Uint64n(span) }
		touch := func(c *Cache, n int) {
			for range n {
				if src.Bool(0.3) {
					c.Probe(addr())
				} else {
					c.Access(addr())
				}
			}
		}

		h := NewHierarchy(cfg)
		c := h.L2
		switch start {
		case "rule-prefilled":
			h.Prefill(base, size)
			for a := base; a < base+size; a += line * uint64(1+src.Intn(4)) {
				c.Probe(a) // builds sets equal to their rule set
			}
			touch(c, src.Intn(20))
		case "loop-prefilled":
			prefillLoop(h, base, size)
			touch(c, src.Intn(20))
		case "used":
			touch(c, 1+src.Intn(60))
		case "probed":
			for range 1 + src.Intn(20) {
				c.Probe(addr())
			}
		case "restored":
			d := NewHierarchy(cfg)
			d.Prefill(base, size)
			touch(d.L2, src.Intn(60))
			if err := c.ReadState(snap.NewReader(cacheBytes(d.L2))); err != nil {
				t.Fatal(err)
			}
			touch(c, src.Intn(20))
		case "reset":
			h.Prefill(base, size)
			touch(c, src.Intn(60))
			h.Reset()
			touch(c, src.Intn(10))
		}

		check := func(c *Cache, when string) []byte {
			t.Helper()
			built := c.built
			b := cacheBytes(c)
			if l := c.StateLen(); l != len(b) {
				t.Fatalf("trial %d (%s) %s: StateLen %d, AppendState wrote %d bytes", trial, start, when, l, len(b))
			}
			if c.built != built {
				t.Fatalf("trial %d (%s) %s: AppendState and StateLen built %d sets", trial, start, when, c.built-built)
			}
			want, asRule := differingSets(c)
			if got := recordedSets(b); !slices.Equal(got, want) {
				t.Fatalf("trial %d (%s, %d sets x %d ways) %s: records sets %v, want the sets that differ from their rule set %v",
					trial, start, sets, ways, when, got, want)
			}
			builtAsRule += asRule
			recorded += len(want)
			return b
		}
		b := check(c, "before the round trip")
		r := NewCache(cfg.L2)
		if trial%2 == 1 {
			touch(r, 1+src.Intn(20))
		}
		rd := snap.NewReader(b)
		if err := r.ReadState(rd); err != nil || rd.Rest() != 0 || r.built != 0 {
			t.Fatalf("trial %d (%s): ReadState: %v, %d bytes unread, %d sets built", trial, start, err, rd.Rest(), r.built)
		}
		if !bytes.Equal(fullBytes(r), fullBytes(c)) {
			t.Fatalf("trial %d (%s): the restored lines differ from the original's", trial, start)
		}
		if !bytes.Equal(check(r, "restored"), b) {
			t.Fatalf("trial %d (%s): the restored cache does not snapshot to its original's bytes", trial, start)
		}
		c.Stats = CacheStats{} // as ReadState zeroed r's
		for k := 0; k < 2000; k++ {
			a := addr()
			if src.Bool(0.1) {
				if g, w := r.Probe(a), c.Probe(a); g != w {
					t.Fatalf("trial %d (%s) probe %d (%#x): hit %t, original %t", trial, start, k, a, g, w)
				}
				continue
			}
			if g, w := r.Access(a), c.Access(a); g != w {
				t.Fatalf("trial %d (%s) access %d (%#x): hit %t, original %t", trial, start, k, a, g, w)
			}
		}
		if r.Stats != c.Stats || !bytes.Equal(fullBytes(r), fullBytes(c)) {
			t.Fatalf("trial %d (%s): after 2,000 accesses, stats %+v and lines differ from the original's %+v", trial, start, r.Stats, c.Stats)
		}
		if !bytes.Equal(check(r, "restored, after accesses"), check(c, "after accesses")) {
			t.Fatalf("trial %d (%s): after 2,000 accesses, the bytes differ from the original's", trial, start)
		}
		if d := r.FirstDifferentSet(c); d != -1 {
			t.Fatalf("trial %d (%s): FirstDifferentSet = %d for caches with the same lines", trial, start, d)
		}
		a := addr()
		for r.Probe(a) {
			a = addr()
		}
		r.Access(a) // a miss: its line takes the front of the set
		if got, want := r.FirstDifferentSet(c), int(a>>r.lineShift&r.setMask); got != want {
			t.Fatalf("trial %d (%s): FirstDifferentSet = %d after an access to set %d alone", trial, start, got, want)
		}
	}
	if builtAsRule == 0 || recorded == 0 {
		t.Fatalf("%d sets recorded, %d built sets equal to their rule set: a case is missing", recorded, builtAsRule)
	}
	t.Logf("%d sets recorded, %d built sets equal to their rule set left out", recorded, builtAsRule)
}
