// Package mem implements the two-level cache hierarchy used by the
// architectural simulation (§4.2 of the paper): split 32 KB 4-way L1
// instruction and data caches with single-cycle latency, a unified 8 MB
// 16-way L2 reached in 25 cycles, and main memory at 240 cycles. The model is
// a timing model: it tracks tags and replacement, and returns access
// latencies; it does not store data (the simulator is trace-driven).
package mem

import (
	"fmt"
	"math/bits"
	"slices"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	// Latency is the hit latency in cycles, charged on every access that
	// reaches this level.
	Latency int
}

// Validate reports configuration errors (non-power-of-two geometry, etc.).
func (c *CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("mem: %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Latency < 1 {
		return fmt.Errorf("mem: %s: latency must be >= 1", c.Name)
	}
	if sets*c.LineBytes < 2 {
		return fmt.Errorf("mem: %s: one set of 1-byte lines leaves no word for an empty way", c.Name)
	}
	return nil
}

// CacheStats accumulates per-level access counts.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s *CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement. Each set is
// Ways words, most recently used first: the tag of a held line plus one,
// then a 0 per empty way. Lines leave a set only by eviction or Reset, so the
// empty ways are always at the end, and the order of the words is the
// replacement order.
//
// It holds a set only once something touches it, and builds each set the
// first time it is reached: from its snapshot record in a restored cache
// that has one (see ReadState), and otherwise as its rule set — the lines
// the prefill rule puts in it (see Hierarchy.Prefill), none where there is
// no rule.
type Cache struct {
	cfg       CacheConfig
	setMask   uint64
	lineShift uint
	tagShift  uint // log2 of the set count: the tag is the line address above the index
	Stats     CacheStats

	// Built sets live in blocks of perBlock sets each, in the order they
	// were built. at[i] locates set i: once it is built, the built bit, its
	// block's index (bits 16–30) and the offset of its first word in the
	// block (bits 0–15); until then, 0 if it has no snapshot record, and the
	// offset of its record in src plus one if it has. A 4-byte word per set
	// keeps the table that every cache allocates up front small: 32 KB for
	// the 8 MB L2, where a slice header per set would take 196 KB.
	at       []uint32
	blocks   [][]uint64
	perBlock int
	built    int // the number of built sets
	next     int // the offset of the next free word in the last block

	// src holds the set records of a restored cache, and is nil otherwise.
	// It aliases the snapshot bytes.
	src []byte

	// pfLine0 and pfLines are the prefill rule: the pfLines lines from line
	// address pfLine0, which an empty cache holds without an eviction (see
	// prefillRule). A prefill that ran no loop records it, and a snapshot
	// carries it. Both are 0 when there is no rule.
	pfLine0, pfLines uint64
}

// builtBit marks an at entry that locates a built set.
const builtBit = 1 << 31

// setChunkBytes bounds the blocks sets are built in. One block per set
// costs the 8 MB L2 8,192 allocations per machine. One block per cache
// makes it a 1 MB object beyond the runtime's 32 KB small-object limit (a
// 3 MB one raised the cold-cells benchmark's resident set from ~23.8 to
// ~26.7 MB on a 2-vCPU x86-64 host). Blocks within that limit avoid both,
// and let a restored cache allocate only the few blocks the sets it touches
// need: 256 L2 sets a block.
const setChunkBytes = 32 << 10

// wordBytes is the in-memory size of one way.
const wordBytes = 8

// NewCache builds a cache from cfg. It panics on invalid configuration —
// configurations are program constants, not runtime input. It allocates no
// set storage: a set is built when something first reaches it.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	c := &Cache{
		cfg:      cfg,
		at:       make([]uint32, numSets),
		setMask:  uint64(numSets - 1),
		tagShift: uint(bits.TrailingZeros(uint(numSets))),
		perBlock: max(1, setChunkBytes/(cfg.Ways*wordBytes)),
	}
	if blocks := (numSets + c.perBlock - 1) / c.perBlock; blocks > 1<<15 || c.perBlock*cfg.Ways > 1<<16 {
		panic(fmt.Sprintf("mem: %s: %d sets of %d ways is too large to locate", cfg.Name, numSets, cfg.Ways))
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// set returns set i, materializing it on first touch.
func (c *Cache) set(i uint64) []uint64 {
	if a := c.at[i]; a&builtBit != 0 {
		return c.builtAt(a)
	}
	return c.materialize(i)
}

// builtAt returns the built set at locates.
func (c *Cache) builtAt(a uint32) []uint64 {
	off := int(a & 0xffff)
	return c.blocks[a>>16&0x7fff][off : off+c.cfg.Ways]
}

// materialize builds set i, which is not built yet.
func (c *Cache) materialize(i uint64) []uint64 {
	a := c.at[i]
	s := c.build(int(i))
	c.unbuilt(s, i, a)
	return s
}

// unbuilt writes into set the words of set i, which is not built yet and
// whose at entry is a: the set its snapshot record decodes to if it has one,
// and its rule set otherwise.
func (c *Cache) unbuilt(set []uint64, i uint64, a uint32) {
	if a != 0 {
		c.decode(set, a-1)
		return
	}
	c.ruleSet(set, i)
}

// ruleSet writes into set the words of the lines the prefill rule puts in
// set i: none where there is no rule.
func (c *Cache) ruleSet(set []uint64, i uint64) {
	clear(set)
	// Line k of the region sits in set (pfLine0+k)&setMask, so the lines of
	// set i are k0, k0+numSets, ... below pfLines, accessed in that order:
	// the last one is the most recent. Their tags rise by one from k0's.
	k0 := (i - c.pfLine0) & c.setMask
	if k0 >= c.pfLines {
		return
	}
	n := (c.pfLines-1-k0)>>c.tagShift + 1
	t0 := (c.pfLine0 + k0) >> c.tagShift
	for w := range set[:n] {
		set[w] = t0 + n - uint64(w)
	}
}

// prefillRule prefills the n lines from line address line0 by rule, if the
// loop that accesses them in order would only fill free ways: the cache is
// empty — it holds no set, no snapshot and no rule — and no set takes more
// than Ways of the lines. Each access would then miss and fill the next free
// way of its set, so set i holds its lines of the region, the last first. It
// counts the n misses as the loop would, records the rule (a region of no
// lines is no rule, which is (0, 0)), builds no set, and reports whether it
// applied.
func (c *Cache) prefillRule(line0, n uint64) bool {
	if c.src != nil || c.built != 0 || c.pfLines != 0 || n > uint64(len(c.at))*uint64(c.cfg.Ways) {
		return false
	}
	if n != 0 {
		c.pfLine0, c.pfLines = line0, n
	}
	c.Stats.Accesses += n
	c.Stats.Misses += n
	return true
}

// build places set i after the last set built and returns it. A block holds
// no more sets than are still missing, so the blocks of a fully built cache
// hold exactly its sets, and no word is handed out twice, so every set comes
// out zeroed.
func (c *Cache) build(i int) []uint64 {
	w := c.cfg.Ways
	if len(c.blocks) == 0 || c.next == len(c.blocks[len(c.blocks)-1]) {
		if c.blocks == nil {
			c.blocks = make([][]uint64, 0, (len(c.at)+c.perBlock-1)/c.perBlock)
		}
		c.blocks = append(c.blocks, make([]uint64, min(c.perBlock, len(c.at)-c.built)*w))
		c.next = 0
	}
	blk := len(c.blocks) - 1
	c.at[i] = builtBit | uint32(blk)<<16 | uint32(c.next)
	s := c.blocks[blk][c.next : c.next+w]
	c.next += w
	c.built++
	return s
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// FirstDifferentSet returns the index of the first set whose words — the
// lines it holds, in recency order — differ between c and o, which have the
// same geometry, or -1 when every set holds the same lines. A set not built
// yet compares as it would be built, from its snapshot record or the prefill
// rule, so two caches that hold the same lines compare equal however they
// came by them. It builds no set.
func (c *Cache) FirstDifferentSet(o *Cache) int {
	a, b := make([]uint64, c.cfg.Ways), make([]uint64, o.cfg.Ways)
	for i := range c.at {
		if !slices.Equal(c.view(i, a), o.view(i, b)) {
			return i
		}
	}
	return -1
}

// view returns set i without building it: the set itself once it is built,
// and until then the set it would be built as, written into scratch.
func (c *Cache) view(i int, scratch []uint64) []uint64 {
	a := c.at[i]
	if a&builtBit != 0 {
		return c.builtAt(a)
	}
	c.unbuilt(scratch, uint64(i), a)
	return scratch
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.at) }

// way returns the way of set that an access of the line whose word is word
// takes: the line's own way on a hit; on a miss the first empty way, or in
// a full set the last, least recently used one.
func way(set []uint64, word uint64) int {
	w := 0
	for w < len(set)-1 && set[w] != word && set[w] != 0 {
		w++
	}
	return w
}

// Access looks up addr, updating the recency order, and fills the line on a
// miss (allocate-on-miss for both reads and writes, write-back semantics are
// immaterial to a timing-only model). It returns whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.Stats.Accesses++
	lineAddr := addr >> c.lineShift
	// c.set, spelled out: it is too large to inline, and this is the hot
	// path of every memory access.
	i := lineAddr & c.setMask
	var set []uint64
	if a := c.at[i]; a&builtBit != 0 {
		set = c.builtAt(a)
	} else {
		set = c.materialize(i)
	}
	word := lineAddr>>c.tagShift + 1
	// The line moves to the front, or fills it on a miss; the words before
	// its way move back by one, and a full set drops its last.
	w := way(set, word)
	hit := set[w] == word
	copy(set[1:w+1], set[:w])
	set[0] = word
	if hit {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
	}
	return hit
}

// Probe reports whether addr currently hits without disturbing the recency
// order or the statistics.
func (c *Cache) Probe(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr & c.setMask)
	word := lineAddr>>c.tagShift + 1
	return set[way(set, word)] == word
}

// Reset invalidates all lines and clears statistics: the cache is again as
// NewCache built it, holding no set, and forgets any snapshot or prefill
// rule.
func (c *Cache) Reset() {
	clear(c.at)
	c.blocks, c.built, c.next = nil, 0, 0
	c.src = nil
	c.pfLine0, c.pfLines = 0, 0
	c.Stats = CacheStats{}
}

// HierarchyConfig describes the full memory system of §4.2.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	// MemLatency is the main-memory access time in cycles.
	MemLatency int
}

// DefaultHierarchy returns the paper's memory system: 32KB 4-way split L1 at
// 1 cycle, 8MB 16-way L2 at 25 cycles, 240-cycle main memory.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:        CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 1},
		L1D:        CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 1},
		L2:         CacheConfig{Name: "L2", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, Latency: 25},
		MemLatency: 240,
	}
}

// Hierarchy is the assembled two-level memory system.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	cfg HierarchyConfig
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I: NewCache(cfg.L1I),
		L1D: NewCache(cfg.L1D),
		L2:  NewCache(cfg.L2),
		cfg: cfg,
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// DataAccess performs a data-side access (load or store address) and returns
// the total latency in cycles: L1D hit time, plus L2 on an L1 miss, plus main
// memory on an L2 miss.
func (h *Hierarchy) DataAccess(addr uint64) int {
	lat := h.L1D.Config().Latency
	if h.L1D.Access(addr) {
		return lat
	}
	lat += h.L2.Config().Latency
	if h.L2.Access(addr) {
		return lat
	}
	return lat + h.cfg.MemLatency
}

// InstAccess performs an instruction-fetch access and returns total latency.
func (h *Hierarchy) InstAccess(addr uint64) int {
	lat := h.L1I.Config().Latency
	if h.L1I.Access(addr) {
		return lat
	}
	lat += h.L2.Config().Latency
	if h.L2.Access(addr) {
		return lat
	}
	return lat + h.cfg.MemLatency
}

// Prefill installs the address range [base, base+size) into the L2 cache
// as if each of its lines were accessed in address order, without touching
// the L1s or statistics beyond the L2's own counters. It models a measured
// phase whose working set was touched earlier in the program's execution
// (SimPoint phases never start from a cold machine).
//
// Into an empty L2 that has room for the region in every set, those
// accesses would all miss and fill free ways in a fixed pattern — each set
// holds its lines of the region, the highest address first — so Prefill
// counts the misses and records the region as a rule in O(1); each set is
// built from the rule the first time something reaches it, and a snapshot
// carries the rule and records only the sets that differ from it. Into a
// cache that holds lines or a rule already, or a region that overflows a
// set, it accesses the lines one by one.
func (h *Hierarchy) Prefill(base, size uint64) {
	c := h.L2
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

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}
