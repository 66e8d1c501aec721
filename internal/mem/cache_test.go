package mem

import (
	"testing"
	"testing/quick"
)

func smallCfg() CacheConfig {
	return CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "a", SizeBytes: 0, Ways: 1, LineBytes: 64, Latency: 1},
		{Name: "b", SizeBytes: 1000, Ways: 2, LineBytes: 64, Latency: 1}, // not divisible
		{Name: "c", SizeBytes: 1024, Ways: 2, LineBytes: 48, Latency: 1}, // line not pow2
		{Name: "d", SizeBytes: 3072, Ways: 2, LineBytes: 64, Latency: 1}, // sets not pow2
		{Name: "e", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 0}, // latency
		{Name: "f", SizeBytes: 4, Ways: 4, LineBytes: 1, Latency: 1},     // one set of 1-byte lines: tag 2^64-1 would be an empty way
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s accepted", c.Name)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := NewCache(smallCfg())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1030) { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Fatal("next-line cold access hit")
	}
	if c.Stats.Accesses != 4 || c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 8 sets of 64B lines: addresses that map to set 0 are
	// multiples of 8*64 = 512.
	c := NewCache(smallCfg())
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a) // miss, fill
	c.Access(b) // miss, fill
	c.Access(a) // hit, a most recent
	c.Access(d) // miss, evicts b (LRU)
	if !c.Probe(a) {
		t.Fatal("a evicted, should have been retained")
	}
	if c.Probe(b) {
		t.Fatal("b retained, should have been evicted")
	}
	if !c.Probe(d) {
		t.Fatal("d not present after fill")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := NewCache(smallCfg())
	c.Access(0x40)
	st := c.Stats
	c.Probe(0x40)
	c.Probe(0xdeadbeef)
	if c.Stats != st {
		t.Fatal("Probe changed stats")
	}
}

func TestReset(t *testing.T) {
	c := NewCache(smallCfg())
	c.Access(0x40)
	c.Reset()
	if c.Stats.Accesses != 0 {
		t.Fatal("stats not cleared")
	}
	if c.Probe(0x40) {
		t.Fatal("lines not invalidated")
	}
}

func TestMissRate(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Fatal("empty stats must have 0 miss rate")
	}
	s = CacheStats{Accesses: 10, Hits: 7, Misses: 3}
	if got := s.MissRate(); got != 0.3 {
		t.Fatalf("MissRate = %v", got)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	// Cold: L1 miss + L2 miss => 1 + 25 + 240.
	if lat := h.DataAccess(0x10000); lat != 1+25+240 {
		t.Fatalf("cold data latency %d", lat)
	}
	// Now resident in both levels: 1 cycle.
	if lat := h.DataAccess(0x10000); lat != 1 {
		t.Fatalf("hot data latency %d", lat)
	}
	// Instruction side independent of data side.
	if lat := h.InstAccess(0x10000); lat != 1+25 {
		t.Fatalf("inst access should hit L2 after data fill: %d", lat)
	}
	if lat := h.InstAccess(0x10000); lat != 1 {
		t.Fatalf("hot inst latency %d", lat)
	}
}

func TestHierarchyL2Shared(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.DataAccess(0x40000) // fills L1D and L2
	// Evict from tiny... L1 is 32KB 4-way: fill one set beyond capacity.
	// Set index bits: 32KB/(4*64) = 128 sets; stride 128*64 = 8192 maps to
	// the same L1D set.
	base := uint64(0x40000)
	for i := 1; i <= 4; i++ {
		h.DataAccess(base + uint64(i)*8192)
	}
	// base should now miss in L1D but hit in the much larger L2.
	if lat := h.DataAccess(base); lat != 1+25 {
		t.Fatalf("expected L2 hit latency 26, got %d", lat)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.DataAccess(0x123456)
	h.Reset()
	if lat := h.DataAccess(0x123456); lat != 1+25+240 {
		t.Fatalf("after reset expected cold latency, got %d", lat)
	}
}

// Property: Access is idempotent on the hit path — two back-to-back accesses
// to the same address, the second always hits.
func TestAccessTwiceHitsProperty(t *testing.T) {
	c := NewCache(smallCfg())
	f := func(addr uint64) bool {
		c.Access(addr)
		return c.Access(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses == accesses at all times.
func TestStatsBalanceProperty(t *testing.T) {
	c := NewCache(smallCfg())
	f := func(addrs []uint64) bool {
		for _, a := range addrs {
			c.Access(a)
		}
		return c.Stats.Hits+c.Stats.Misses == c.Stats.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an N-way set never holds more than N distinct lines mapping to it
// — equivalently, accessing the same W lines of one set repeatedly always
// hits after the first round (no thrashing below capacity).
func TestWithinWaysNoThrash(t *testing.T) {
	c := NewCache(smallCfg()) // 2-way
	a, b := uint64(0), uint64(512)
	c.Access(a)
	c.Access(b)
	for i := 0; i < 100; i++ {
		if !c.Access(a) || !c.Access(b) {
			t.Fatal("working set within associativity thrashed")
		}
	}
}

func BenchmarkDataAccess(b *testing.B) {
	h := NewHierarchy(DefaultHierarchy())
	for i := 0; i < b.N; i++ {
		h.DataAccess(uint64(i) * 64)
	}
}
