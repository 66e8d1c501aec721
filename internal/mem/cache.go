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
	"unsafe"
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

type line struct {
	tag   uint64
	valid bool
	lru   uint64 // last-touch stamp; larger is more recent
}

// Cache is a set-associative cache with true-LRU replacement. It holds a
// set only once something touches it. A fresh cache builds every set on its
// first access; a restored one decodes each set from the snapshot bytes the
// first time it is reached (see ReadState).
type Cache struct {
	cfg       CacheConfig
	setMask   uint64
	lineShift uint
	tagShift  uint // log2 of the set count: the tag is the line address above the index
	stamp     uint64
	Stats     CacheStats

	// Built sets live in blocks of perBlock sets each, in the order they
	// were built. at[i] locates set i: once it is built, the built bit, its
	// block's index (bits 16–30) and the offset of its first line in the
	// block (bits 0–15); until then, in a restored cache, the offset in src
	// of its snapshot record. A 4-byte word per set keeps the table that
	// every cache allocates up front small: 32 KB for the 8 MB L2, where a
	// slice header per set would take 196 KB.
	at       []uint32
	blocks   [][]line
	perBlock int
	built    int // the number of built sets
	next     int // the offset of the next free line in the last block

	// src holds the set records of a restored cache, and is nil otherwise.
	// It aliases the snapshot bytes.
	src []byte
}

// builtBit marks an at entry that locates a built set.
const builtBit = 1 << 31

// setChunkBytes bounds the blocks sets are built in. One block per set
// costs the 8 MB L2 8,192 allocations per machine. One block per cache
// makes it a 3 MB object, which raised the cold-cells benchmark's resident
// set from ~23.8 to ~26.7 MB (2-vCPU x86-64 host). Blocks within the
// runtime's 32 KB small-object limit avoid both, and let a restored cache
// allocate only the few blocks the sets it touches need.
const setChunkBytes = 32 << 10

// lineBytes is the in-memory size of one line record.
const lineBytes = int(unsafe.Sizeof(line{}))

// NewCache builds a cache from cfg. It panics on invalid configuration —
// configurations are program constants, not runtime input. It allocates no
// set storage: the first access does.
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
		perBlock: max(1, setChunkBytes/(cfg.Ways*lineBytes)),
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
func (c *Cache) set(i uint64) []line {
	if a := c.at[i]; a&builtBit != 0 {
		return c.builtAt(a)
	}
	return c.materialize(i)
}

// builtAt returns the built set at locates.
func (c *Cache) builtAt(a uint32) []line {
	off := int(a & 0xffff)
	return c.blocks[a>>16&0x7fff][off : off+c.cfg.Ways]
}

// materialize builds set i. A restored cache decodes that one set from its
// snapshot record. Any other cache builds every set still missing, in index
// order, so a fresh cache lays out exactly as if it were built whole.
func (c *Cache) materialize(i uint64) []line {
	if c.src == nil {
		for j := range c.at {
			if c.at[j]&builtBit == 0 {
				c.build(j)
			}
		}
		return c.set(i)
	}
	rec := c.at[i]
	s := c.build(int(i))
	c.decode(s, rec)
	return s
}

// build places set i after the last set built and returns it. A block holds
// no more sets than are still missing, so the blocks of a fully built cache
// hold exactly its sets, and no line is handed out twice, so every set
// comes out zeroed.
func (c *Cache) build(i int) []line {
	w := c.cfg.Ways
	if len(c.blocks) == 0 || c.next == len(c.blocks[len(c.blocks)-1]) {
		if c.blocks == nil {
			c.blocks = make([][]line, 0, (len(c.at)+c.perBlock-1)/c.perBlock)
		}
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

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.at) }

// Access looks up addr, updating LRU state, and fills the line on a miss
// (allocate-on-miss for both reads and writes, write-back semantics are
// immaterial to a timing-only model). It returns whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.stamp++
	c.Stats.Accesses++
	lineAddr := addr >> c.lineShift
	// c.set, spelled out: it is too large to inline, and this is the hot
	// path of every memory access.
	i := lineAddr & c.setMask
	var set []line
	if a := c.at[i]; a&builtBit != 0 {
		set = c.builtAt(a)
	} else {
		set = c.materialize(i)
	}
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

// Probe reports whether addr currently hits without disturbing LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
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

// Reset invalidates all lines and clears statistics. A restored cache
// forgets its snapshot: the sets it has not built yet are built empty.
func (c *Cache) Reset() {
	for _, b := range c.blocks {
		clear(b)
	}
	c.src = nil
	c.stamp = 0
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

// Prefill installs the address range [base, base+size) into the L2 cache,
// line by line, without touching the L1s or statistics beyond the L2's own
// counters. It models a measured phase whose working set was touched earlier
// in the program's execution (SimPoint phases never start from a cold
// machine).
func (h *Hierarchy) Prefill(base, size uint64) {
	line := uint64(h.L2.Config().LineBytes)
	for a := base &^ (line - 1); a < base+size; a += line {
		h.L2.Access(a)
	}
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}
