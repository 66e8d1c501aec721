package mem

import (
	"slices"
	"testing"

	"tvsched/internal/rng"
	"tvsched/internal/snap"
)

// prefillLoop is Prefill as it was before it prefilled by rule: one L2
// access per line of [base, base+size), in address order. It is the
// reference the rule is held to.
func prefillLoop(h *Hierarchy, base, size uint64) {
	line := uint64(h.L2.Config().LineBytes)
	for a := base &^ (line - 1); a < base+size; a += line {
		h.L2.Access(a)
	}
}

// cacheSets returns a copy of the words of every set of c, an unbuilt one as
// it would be built, without building any.
func cacheSets(c *Cache) [][]uint64 {
	var sets [][]uint64
	eachSet(c, func(set []uint64) { sets = append(sets, slices.Clone(set)) })
	return sets
}

// TestPrefillRuleMatchesLoop holds Prefill to the per-line reference loop
// on random L2 geometries, regions and starting states: a fresh cache, a
// reset one, one that has run, one that has only been probed, one already
// prefilled, and a restored one.
// After the prefill, the words of every set — its lines in recency order —
// and the statistics must equal the reference's (not the AppendState bytes:
// a ruled cache's snapshot carries its rule and records fewer sets than the
// loop's), and StateLen must give the length of the AppendState bytes; then
// 2,000 random accesses and probes must hit and miss alike and leave equal
// sets and statistics. An empty cache whose region puts at most Ways lines
// in every set must take the rule and build no set; any other prefill — a
// region one line over that, or a cache that is not empty or holds a rule —
// must take the loop.
func TestPrefillRuleMatchesLoop(t *testing.T) {
	src := rng.New(26)
	starts := []string{"fresh", "reset", "used", "probed", "prefilled", "restored"}
	var ruled, looped, overflowed int
	for trial := 0; trial < 400; trial++ {
		ways := 1 << src.Intn(5)
		sets := 1 << src.Intn(7)
		lineSize := 16 << src.Intn(3)
		cfg := HierarchyConfig{
			L1I:        CacheConfig{Name: "L1I", SizeBytes: 256, Ways: 2, LineBytes: 32, Latency: 1},
			L1D:        CacheConfig{Name: "L1D", SizeBytes: 256, Ways: 2, LineBytes: 32, Latency: 1},
			L2:         CacheConfig{Name: "L2", SizeBytes: sets * ways * lineSize, Ways: ways, LineBytes: lineSize, Latency: 4},
			MemLatency: 20,
		}
		capacity := sets * ways
		var n int
		switch trial % 5 {
		case 0:
			n = capacity // every set exactly full
		case 1:
			n = capacity + 1 // one set one line over
		case 2:
			n = src.Intn(3) // empty, one or two lines
		default:
			n = 1 + src.Intn(capacity+capacity/2)
		}
		// A region of n lines from an arbitrary, possibly unaligned, base.
		line := uint64(lineSize)
		base := src.Uint64n(1 << 36)
		off := base & (line - 1)
		var size uint64
		if n > 0 {
			size = max(uint64(n-1)*line+1+src.Uint64n(line), off+1) - off
		} else {
			base -= off // the loop accesses the line of an unaligned base even at size 0
		}
		start := starts[trial/5%len(starts)]
		span := 4 * uint64(cfg.L2.SizeBytes)
		window := base&^(line-1) - min(base&^(line-1), span/2)

		// Both hierarchies reach the starting state by the same calls.
		var seq []uint64
		for range 64 {
			seq = append(seq, window+src.Uint64n(span))
		}
		first, used := size/2, 1+src.Intn(len(seq))
		var donor []byte
		if start == "restored" {
			d := NewHierarchy(cfg)
			for _, a := range seq {
				d.L2.Access(a)
			}
			donor = cacheBytes(d.L2)
		}
		prepare := func(h *Hierarchy, prefill func(*Hierarchy, uint64, uint64)) {
			switch start {
			case "reset":
				prefill(h, base+size, first)
				for _, a := range seq {
					h.L2.Access(a)
				}
				h.Reset()
			case "used":
				for _, a := range seq[:used] {
					h.L2.Access(a)
				}
			case "probed": // builds sets and counts no access
				for _, a := range seq[:used] {
					h.L2.Probe(a)
				}
			case "prefilled":
				prefill(h, base+size, first)
			case "restored":
				if err := h.L2.ReadState(snap.NewReader(donor)); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, want := NewHierarchy(cfg), NewHierarchy(cfg)
		prepare(got, (*Hierarchy).Prefill)
		prepare(want, prefillLoop)
		c := got.L2
		builtBefore, ruleBefore := c.built, [2]uint64{c.pfLine0, c.pfLines}
		emptyBefore := start == "fresh" || start == "reset"

		got.Prefill(base, size)
		prefillLoop(want, base, size)

		fits := n <= capacity
		switch {
		case emptyBefore && fits:
			ruled++
			if c.pfLines != uint64(n) || n > 0 && c.pfLine0 != base/line || c.built != builtBefore {
				t.Fatalf("trial %d (%s, %d sets x %d ways, %d lines): prefill did not take the rule: rule (%#x, %d), %d sets built, %d before",
					trial, start, sets, ways, n, c.pfLine0, c.pfLines, c.built, builtBefore)
			}
		default:
			looped++
			if !fits {
				overflowed++
			}
			if rule := [2]uint64{c.pfLine0, c.pfLines}; rule != ruleBefore {
				t.Fatalf("trial %d (%s, %d sets x %d ways, %d lines): prefill took the rule (%#x, %d), want the loop",
					trial, start, sets, ways, n, rule[0], rule[1])
			}
		}

		check := func(when string) {
			t.Helper()
			if c.Stats != want.L2.Stats {
				t.Fatalf("trial %d (%s) %s: stats %+v, reference %+v", trial, start, when, c.Stats, want.L2.Stats)
			}
			gs, ws := cacheSets(c), cacheSets(want.L2)
			for i := range ws {
				if !slices.Equal(gs[i], ws[i]) {
					t.Fatalf("trial %d (%s, %d sets x %d ways, %d lines) %s: set %d is %+v, reference %+v",
						trial, start, sets, ways, n, when, i, gs[i], ws[i])
				}
			}
			if l, b := c.StateLen(), cacheBytes(c); l != len(b) {
				t.Fatalf("trial %d (%s) %s: StateLen %d, AppendState wrote %d bytes", trial, start, when, l, len(b))
			}
		}
		check("after the prefill")
		for k := 0; k < 2000; k++ {
			a := window + src.Uint64n(span)
			if src.Bool(0.1) {
				if g, w := c.Probe(a), want.L2.Probe(a); g != w {
					t.Fatalf("trial %d (%s) probe %d (%#x): hit %t, reference %t", trial, start, k, a, g, w)
				}
				continue
			}
			if g, w := c.Access(a), want.L2.Access(a); g != w {
				t.Fatalf("trial %d (%s) access %d (%#x): hit %t, reference %t", trial, start, k, a, g, w)
			}
		}
		check("after 2,000 accesses")
	}
	if ruled == 0 || looped == 0 || overflowed == 0 {
		t.Fatalf("%d prefills took the rule, %d the loop (%d of them overflowing a set): a case is missing", ruled, looped, overflowed)
	}
	t.Logf("%d prefills took the rule, %d the loop (%d of them overflowing a set)", ruled, looped, overflowed)
}
