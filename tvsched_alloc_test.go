//go:build !race

package tvsched_test

import (
	"context"
	"runtime"
	"testing"

	"tvsched"
)

// TestNewSessionAllocs pins the heap allocations of building one session.
// NewSession builds no cache storage: a fresh cache carves its sets on its
// first access and a restored one decodes each set when it is first reached.
// A session of a (benchmark, seed) whose program image is cached builds no
// program and no fault table either: it only draws a generator from the
// shared image. An image hit stays under 50 allocations (37 measured); a
// miss, which builds the image, under 80 (48 measured). Guarded by !race
// because the race runtime changes allocation behaviour.
func TestNewSessionAllocs(t *testing.T) {
	cfg := tvsched.Config{Benchmark: "mcf", Scheme: tvsched.ABS, VDD: tvsched.VHighFault, Seed: 1}
	hit := testing.AllocsPerRun(5, func() {
		if _, err := tvsched.NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if hit > 50 {
		t.Errorf("NewSession(mcf) on a cached image made %.0f allocations, want <= 50", hit)
	}
	miss := testing.AllocsPerRun(5, func() {
		cfg.Seed++ // a fresh seed misses the image cache
		if _, err := tvsched.NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if miss > 80 {
		t.Errorf("NewSession(mcf) building its image made %.0f allocations, want <= 80", miss)
	}
	t.Logf("NewSession(mcf): %.0f allocations on an image hit, %.0f on a miss", hit, miss)
}

// TestRestoredCellAllocBytes pins the bytes a restored cell allocates:
// NewSession, Restore and an 8k-instruction Run over a donor snapshot taken
// after a 120k-instruction neutral warmup, the size of a checkpointed
// sweep's cells. A restored cell decodes only the cache sets it reaches, and
// its caches locate sets through a 4-byte word per set (32 KB for the L2),
// so it stays under 640 KB (493 and 479 KB measured).
func TestRestoredCellAllocBytes(t *testing.T) {
	ctx := context.Background()
	for _, bench := range []string{"mcf", "xalancbmk"} {
		cfg := tvsched.Config{Benchmark: bench, Scheme: tvsched.ABS, VDD: tvsched.VHighFault,
			Instructions: 8000, Warmup: 120000, Seed: 1}
		donor, err := tvsched.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := donor.WarmupNeutral(ctx); err != nil {
			t.Fatal(err)
		}
		snap, err := donor.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess, err := tvsched.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx, tvsched.RunOpts{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024
		if kb > 640 {
			t.Errorf("restored %s cell allocated %.0f KB, want <= 640", bench, kb)
		}
		t.Logf("restored %s cell: NewSession + Restore + Run(8k) allocated %.0f KB", bench, kb)
	}
}
