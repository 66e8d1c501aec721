//go:build !race

package mem

import (
	"runtime"
	"testing"
)

// TestBuiltSetBytes pins what the default L2's sets cost once all are built
// (one Probe per set): 8,192 sets of 16 ways of one 8-byte word, 1 MiB in
// 32 blocks of 256 sets, under 1.1 MB in all. A way of a 24-byte line record
// took 3 MiB.
func TestBuiltSetBytes(t *testing.T) {
	cfg := DefaultHierarchy().L2
	c := NewCache(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range c.NumSets() {
		c.Probe(uint64(i * cfg.LineBytes))
	}
	runtime.ReadMemStats(&after)
	if c.built != c.NumSets() {
		t.Fatalf("%d of %d sets built", c.built, c.NumSets())
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if mb > 1.1 {
		t.Errorf("building every L2 set allocated %.2f MB, want <= 1.1", mb)
	}
	t.Logf("building every L2 set allocated %.2f MB in %d blocks", mb, len(c.blocks))
}
