//go:build !race

package tvsched_test

import (
	"testing"

	"tvsched"
)

// TestNewSessionAllocs pins the heap allocations of building one session:
// cache sets are carved from shared blocks rather than allocated one per set
// (an 8 MB L2 alone has 8,192 sets), so construction stays in the hundreds.
// Guarded by !race because the race runtime changes allocation behaviour.
func TestNewSessionAllocs(t *testing.T) {
	cfg := tvsched.Config{Benchmark: "mcf", Scheme: tvsched.ABS, VDD: tvsched.VHighFault, Seed: 1}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := tvsched.NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("NewSession(mcf) made %.0f allocations, want <= 1000", allocs)
	}
	t.Logf("NewSession(mcf): %.0f allocations", allocs)
}
