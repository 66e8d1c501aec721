//go:build !race

package tvsched_test

import (
	"testing"

	"tvsched"
)

// TestNewSessionAllocs pins the heap allocations of building one session.
// Cache sets are carved from shared blocks rather than allocated one per set
// (an 8 MB L2 alone has 8,192 sets), and a session of a (benchmark, seed)
// whose program image is cached builds no program and no fault table: it
// only draws a generator from the shared image. An image hit stays under
// 170 allocations (136 measured); a miss, which builds the image, under
// 1,000. Guarded by !race because the race runtime changes allocation
// behaviour.
func TestNewSessionAllocs(t *testing.T) {
	cfg := tvsched.Config{Benchmark: "mcf", Scheme: tvsched.ABS, VDD: tvsched.VHighFault, Seed: 1}
	hit := testing.AllocsPerRun(5, func() {
		if _, err := tvsched.NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if hit > 170 {
		t.Errorf("NewSession(mcf) on a cached image made %.0f allocations, want <= 170", hit)
	}
	miss := testing.AllocsPerRun(5, func() {
		cfg.Seed++ // a fresh seed misses the image cache
		if _, err := tvsched.NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if miss > 1000 {
		t.Errorf("NewSession(mcf) building its image made %.0f allocations, want <= 1000", miss)
	}
	t.Logf("NewSession(mcf): %.0f allocations on an image hit, %.0f on a miss", hit, miss)
}
