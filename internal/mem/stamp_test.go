package mem

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"

	"tvsched/internal/rng"
	"tvsched/internal/snap"
)

// stampCache is the cache as it was before a set became its tags in recency
// order: every way a line record with a valid flag and an LRU stamp, a victim
// search on each miss, and a stamp counter that also tells an empty cache
// from one with a prefill rule. It keeps the lazy set building and the
// prefill rule, and leaves out only the snapshot codec. It is the reference
// the recency-ordered sets are held to (TestCacheMatchesStampLRU).
type stampCache struct {
	cfg       CacheConfig
	setMask   uint64
	lineShift uint
	tagShift  uint
	stamp     uint64
	Stats     CacheStats

	at       []uint32
	blocks   [][]line
	perBlock int
	built    int
	next     int

	pfLine0, pfLines uint64
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64 // last-touch stamp; larger is more recent
}

func newStampCache(cfg CacheConfig) *stampCache {
	c := NewCache(cfg) // validates cfg and derives the geometry
	return &stampCache{
		cfg: cfg, setMask: c.setMask, lineShift: c.lineShift, tagShift: c.tagShift,
		at:       make([]uint32, len(c.at)),
		perBlock: max(1, setChunkBytes/(cfg.Ways*int(unsafe.Sizeof(line{})))),
	}
}

func (c *stampCache) set(i uint64) []line {
	if a := c.at[i]; a&builtBit != 0 {
		return c.builtAt(a)
	}
	s := c.build(int(i))
	c.ruleSet(s, i)
	return s
}

func (c *stampCache) builtAt(a uint32) []line {
	off := int(a & 0xffff)
	return c.blocks[a>>16&0x7fff][off : off+c.cfg.Ways]
}

// ruleSet writes into set the lines the prefill rule puts in set i: none
// where there is no rule.
func (c *stampCache) ruleSet(set []line, i uint64) {
	clear(set)
	// Line k of the region sits in set (pfLine0+k)&setMask, so the lines of
	// set i are k0, k0+numSets, ... below pfLines, filling its ways in order.
	numSets := c.setMask + 1
	for k, w := (i-c.pfLine0)&c.setMask, 0; k < c.pfLines; k, w = k+numSets, w+1 {
		set[w] = line{tag: (c.pfLine0 + k) >> c.tagShift, valid: true, lru: k + 1}
	}
}

// prefillRule prefills the n lines from line address line0 by rule, if the
// cache is empty — it holds no set and has counted no access — and no set
// takes more than Ways of the lines: line k lands in set (line0+k)&setMask
// with stamp k+1.
func (c *stampCache) prefillRule(line0, n uint64) bool {
	if c.built != 0 || c.stamp != 0 || n > uint64(len(c.at))*uint64(c.cfg.Ways) {
		return false
	}
	if n != 0 {
		c.pfLine0, c.pfLines = line0, n
	}
	c.stamp = n
	c.Stats.Accesses += n
	c.Stats.Misses += n
	return true
}

func (c *stampCache) build(i int) []line {
	w := c.cfg.Ways
	if len(c.blocks) == 0 || c.next == len(c.blocks[len(c.blocks)-1]) {
		c.blocks = append(c.blocks, make([]line, min(c.perBlock, len(c.at)-c.built)*w))
		c.next = 0
	}
	blk := len(c.blocks) - 1
	c.at[i] = builtBit | uint32(blk)<<16 | uint32(c.next)
	s := c.blocks[blk][c.next : c.next+w]
	c.next += w
	c.built++
	return s
}

func (c *stampCache) Access(addr uint64) bool {
	c.stamp++
	c.Stats.Accesses++
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr & c.setMask)
	tag := lineAddr >> c.tagShift
	// The victim is the first invalid way, else the least recently used one:
	// an invalid way is the zero line, whose stamp no later way undercuts.
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			c.Stats.Hits++
			return true
		}
		if set[i].lru < set[victim].lru || !set[i].valid && set[victim].valid {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.stamp}
	c.Stats.Misses++
	return false
}

func (c *stampCache) Probe(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr & c.setMask)
	tag := lineAddr >> c.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *stampCache) Reset() {
	clear(c.at)
	c.blocks, c.built, c.next = nil, 0, 0
	c.pfLine0, c.pfLines = 0, 0
	c.stamp = 0
	c.Stats = CacheStats{}
}

// Prefill is Hierarchy.Prefill on this cache.
func (c *stampCache) Prefill(base, size uint64) {
	line := uint64(c.cfg.LineBytes)
	start, end := base&^(line-1), base+size
	var n uint64
	if end > start {
		n = (end-start-1)>>c.lineShift + 1
	}
	if c.prefillRule(start>>c.lineShift, n) {
		return
	}
	for a := start; a < end; a += line {
		c.Access(a)
	}
}

// recency returns the tags of the valid lines of set i, the most recently
// used first, without building it.
func (c *stampCache) recency(i int) []uint64 {
	set := make([]line, c.cfg.Ways)
	if a := c.at[i]; a&builtBit != 0 {
		copy(set, c.builtAt(a))
	} else {
		c.ruleSet(set, uint64(i))
	}
	valid := slices.DeleteFunc(set, func(l line) bool { return !l.valid })
	slices.SortFunc(valid, func(a, b line) int { return cmp.Compare(b.lru, a.lru) })
	tags := make([]uint64, len(valid))
	for k, l := range valid {
		tags[k] = l.tag
	}
	return tags
}

// recency returns the tags of the lines set i holds, the most recently used
// first, without building it.
func (c *Cache) recency(i int) []uint64 {
	var tags []uint64
	for _, w := range c.view(i, make([]uint64, c.cfg.Ways)) {
		if w == 0 {
			break
		}
		tags = append(tags, w-1)
	}
	return tags
}

// lockstep drives a Cache and the stamp-LRU reference through the same
// operations, and fails at the first answer, statistic or set on which
// they differ.
type lockstep struct {
	t   testing.TB
	cfg CacheConfig
	c   *Cache
	ref *stampCache
	op  int
}

func newLockstep(t testing.TB, cfg CacheConfig) *lockstep {
	return &lockstep{t: t, cfg: cfg, c: NewCache(cfg), ref: newStampCache(cfg)}
}

func (l *lockstep) access(a uint64) {
	l.op++
	if got, want := l.c.Access(a), l.ref.Access(a); got != want {
		l.t.Fatalf("%s op %d: Access(%#x) hit %t, stamp-LRU reference %t", l.cfg.Name, l.op, a, got, want)
	}
}

func (l *lockstep) probe(a uint64) {
	l.op++
	if got, want := l.c.Probe(a), l.ref.Probe(a); got != want {
		l.t.Fatalf("%s op %d: Probe(%#x) hit %t, stamp-LRU reference %t", l.cfg.Name, l.op, a, got, want)
	}
}

// prefill prefills both caches with [base, base+size), as Hierarchy.Prefill
// does the L2, and reports whether the cache took the rule.
func (l *lockstep) prefill(base, size uint64) (ruled bool) {
	l.op++
	rule := l.c.pfLines
	(&Hierarchy{L2: l.c}).Prefill(base, size)
	l.ref.Prefill(base, size)
	l.check("after a prefill")
	return l.c.pfLines != rule
}

// restore replaces the cache with a fresh one restored from its snapshot,
// and zeroes the reference's statistics as ReadState zeroes the copy's.
func (l *lockstep) restore() {
	l.op++
	r := NewCache(l.cfg)
	if err := r.ReadState(snap.NewReader(cacheBytes(l.c))); err != nil {
		l.t.Fatalf("%s op %d: restoring the cache's own snapshot: %v", l.cfg.Name, l.op, err)
	}
	l.c = r
	l.ref.Stats = CacheStats{}
	l.check("after a restore")
}

func (l *lockstep) reset() {
	l.op++
	l.c.Reset()
	l.ref.Reset()
	l.check("after a reset")
}

// check compares the statistics and every set's lines in recency order.
func (l *lockstep) check(when string) {
	l.t.Helper()
	if l.c.Stats != l.ref.Stats {
		l.t.Fatalf("%s op %d %s: stats %+v, stamp-LRU reference %+v", l.cfg.Name, l.op, when, l.c.Stats, l.ref.Stats)
	}
	for i := range l.c.NumSets() {
		if got, want := l.c.recency(i), l.ref.recency(i); !slices.Equal(got, want) {
			l.t.Fatalf("%s op %d %s: set %d holds %x, stamp-LRU reference %x", l.cfg.Name, l.op, when, i, got, want)
		}
	}
}

// lockstepConfig returns a cache of 2^(a%7) sets (1 to 64), 1+b%16 ways
// and 16<<(c%3)-byte lines.
func lockstepConfig(a, b, c int) CacheConfig {
	sets, ways, lineSize := 1<<(a%7), 1+b%16, 16<<(c%3)
	return CacheConfig{Name: "lockstep", SizeBytes: sets * ways * lineSize, Ways: ways, LineBytes: lineSize, Latency: 1}
}

// TestCacheMatchesStampLRU holds the recency-ordered sets to the stamp-LRU
// cache they replace: on random geometries of 1 to 64 sets and 1 to 16 ways,
// it drives both through address streams with reuse, prefills of regions
// that fit, that overflow a set and that are empty, prefilled twice,
// snapshots taken mid-stream and restored into a fresh cache, and resets.
// Every access and probe must hit alike; after every prefill, restore and
// reset, and every 100 operations, the statistics and every set's lines in
// recency order (the reference's valid lines by stamp, newest first) must
// agree.
func TestCacheMatchesStampLRU(t *testing.T) {
	src := rng.New(29)
	var ruled, looped, overflowed, twice, restores, resets int
	for trial := 0; trial < 300; trial++ {
		cfg := lockstepConfig(src.Intn(7), src.Intn(16), src.Intn(3))
		l := newLockstep(t, cfg)
		capacity := cfg.SizeBytes / cfg.LineBytes
		line := uint64(cfg.LineBytes)
		window := src.Uint64n(1<<36) &^ (line - 1)
		span := 4 * uint64(cfg.SizeBytes)
		var recent []uint64
		addr := func() uint64 {
			if len(recent) > 0 && src.Bool(0.5) {
				return recent[src.Intn(len(recent))]
			}
			a := window + src.Uint64n(span)
			if len(recent) < 3*capacity {
				recent = append(recent, a)
			} else {
				recent[src.Intn(len(recent))] = a
			}
			return a
		}
		prefill := func() {
			var n int
			switch src.Intn(4) {
			case 0:
				n = capacity // every set exactly full
			case 1:
				n = capacity + 1 + src.Intn(capacity) // overflows a set
				overflowed++
			case 2:
				n = 0
			default:
				n = 1 + src.Intn(capacity)
			}
			base := window + src.Uint64n(span/2)
			if src.Bool(0.5) {
				base &^= line - 1
			}
			before := l.c.pfLines != 0
			if l.prefill(base, uint64(n)*line) {
				ruled++
			} else {
				looped++
			}
			if before {
				twice++
			}
		}
		if src.Bool(0.6) {
			prefill()
			if src.Bool(0.3) {
				prefill() // into a cache that holds a rule and no set
			}
		}
		for k := 0; k < 3000; k++ {
			switch p := src.Float64(); {
			case p < 0.002:
				resets++
				l.reset()
			case p < 0.006:
				restores++
				l.restore()
			case p < 0.009:
				prefill()
			case p < 0.1:
				l.probe(addr())
			default:
				l.access(addr())
			}
			if k%100 == 99 {
				l.check("")
			}
		}
		l.check("at the end")
	}
	if ruled == 0 || looped == 0 || overflowed == 0 || twice == 0 || restores == 0 || resets == 0 {
		t.Fatalf("%d prefills by rule, %d by loop (%d regions overflowing a set, %d into a ruled cache), %d restores, %d resets: a case is missing",
			ruled, looped, overflowed, twice, restores, resets)
	}
	t.Logf("%d prefills by rule, %d by loop (%d regions overflowing a set, %d into a ruled cache), %d restores, %d resets",
		ruled, looped, overflowed, twice, restores, resets)
}

// FuzzCacheMatchesStampLRU runs the lockstep of TestCacheMatchesStampLRU
// over an operation sequence decoded from the input: three bytes choose the
// geometry (lockstepConfig), then each three-byte operation is a kind byte
// and a line number within four times the cache's capacity. Kinds 0–10
// access the line, 11 and 12 probe it, 13 prefills (k>>4)·(capacity+1)/8
// lines from it, 14 restores the cache from its own snapshot and 15 resets.
func FuzzCacheMatchesStampLRU(f *testing.F) {
	src := rng.New(30)
	for range 8 {
		b := make([]byte, 3+3*(50+src.Intn(400)))
		for i := range b {
			b[i] = byte(src.Uint64())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		cfg := lockstepConfig(int(b[0]), int(b[1]), int(b[2]))
		l := newLockstep(t, cfg)
		capacity := cfg.SizeBytes / cfg.LineBytes
		for k := 3; k+3 <= len(b); k += 3 {
			kind := b[k]
			a := uint64(binary.LittleEndian.Uint16(b[k+1:])) % uint64(4*capacity) * uint64(cfg.LineBytes)
			switch kind % 16 {
			case 11, 12:
				l.probe(a)
			case 13:
				l.prefill(a, uint64(int(kind>>4)*(capacity+1)/8*cfg.LineBytes))
			case 14:
				l.restore()
			case 15:
				l.reset()
			default:
				l.access(a)
			}
			if l.op%64 == 0 {
				l.check("")
			}
		}
		l.check("at the end")
	})
}
