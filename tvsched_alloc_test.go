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
// sweep's cells. A restored cell decodes only the cache sets it reaches, its
// caches locate sets through a 4-byte word per set (32 KB for the L2), and a
// set is a word per way, so it stays under 400 KB (283 and 301 KB measured;
// 493 and 479 KB while a way was a 24-byte line record).
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
		if kb > 400 {
			t.Errorf("restored %s cell allocated %.0f KB, want <= 400", bench, kb)
		}
		t.Logf("restored %s cell: NewSession + Restore + Run(8k) allocated %.0f KB", bench, kb)
	}
}

// TestDonorAllocBytes pins the bytes a donor allocates: NewSession, a 20k
// WarmupNeutral and Snapshot, on a (benchmark, seed) whose program image is
// already cached — a warm group's donor or a served miss — and the length
// of its snapshot. New prefills the L2 by rule, so the donor builds only the
// L2 sets its warmup reaches, and Snapshot records the rule and only the
// sets that differ from it, in one buffer of the snapshot's final length; a
// set is a word per way, and a record a tag per line. mcf (a 4 MB warm
// region) stays under 0.75 MB with a snapshot of at most 160 KB, and sjeng
// (1 MB) under 0.40 MB and 68 KB (0.46 MB and 118 KB, 0.31 MB and 60 KB
// measured). With a 24-byte line record per way and a way index, tag and
// LRU stamp per recorded line, they took 0.98 MB and 240 KB, and 0.44 MB and
// 74 KB; a snapshot of every L2 set took 1,134 and 339 KB, and its donor 1.84
// and 0.70 MB; a donor that also built every L2 set and grew its snapshot by
// append took 9.5 and 4.7 MB.
func TestDonorAllocBytes(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		bench     string
		maxMB     float64
		maxSnapKB int
	}{{"mcf", 0.75, 160}, {"sjeng", 0.40, 68}} {
		cfg := tvsched.Config{Benchmark: tc.bench, Scheme: tvsched.ABS, VDD: tvsched.VHighFault,
			Instructions: 8000, Warmup: 20000, Seed: 1}
		if _, err := tvsched.NewSession(cfg); err != nil { // caches the image
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
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
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		if mb > tc.maxMB {
			t.Errorf("%s donor allocated %.2f MB, want <= %.2f", tc.bench, mb, tc.maxMB)
		}
		if kb := len(snap.Data) / 1024; kb > tc.maxSnapKB {
			t.Errorf("%s snapshot is %d KB, want <= %d", tc.bench, kb, tc.maxSnapKB)
		}
		if len(snap.Data) != cap(snap.Data) {
			t.Errorf("%s snapshot: %d bytes in a buffer of %d, want no spare capacity", tc.bench, len(snap.Data), cap(snap.Data))
		}
		t.Logf("%s donor: NewSession + WarmupNeutral(20k) + Snapshot allocated %.2f MB; snapshot %d KB",
			tc.bench, mb, len(snap.Data)/1024)
	}
}
