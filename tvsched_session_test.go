package tvsched_test

import (
	"context"
	"errors"
	"testing"

	"tvsched"
)

// TestSessionCheckpointLifecycle exercises the full lifecycle the serving
// layer builds on: a neutral warmup's snapshot restores into a fresh session
// of a different scheme and reproduces that scheme's run exactly.
func TestSessionCheckpointLifecycle(t *testing.T) {
	ctx := context.Background()
	cfg := tvsched.Config{Benchmark: "bzip2", Scheme: tvsched.CDS, VDD: tvsched.VHighFault,
		Instructions: 50000, Seed: 9}

	donor, err := tvsched.NewSession(tvsched.Config{Benchmark: cfg.Benchmark, Scheme: tvsched.ABS,
		VDD: tvsched.VLowFault, Instructions: cfg.Instructions, Seed: cfg.Seed})
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
	if snap.Key == "" || len(snap.Data) == 0 {
		t.Fatalf("empty snapshot: %+v", snap)
	}

	// The warm key is scheme- and VDD-independent: the donor (ABS at the low
	// supply) and the target (CDS at the high supply) share it.
	native, err := tvsched.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if native.WarmKey() != snap.Key {
		t.Fatal("warm key differs across (scheme, VDD) cells")
	}
	if err := native.WarmupNeutral(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := native.Run(ctx, tvsched.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	restored, err := tvsched.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Run(ctx, tvsched.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored run diverged from natively warmed run:\n  %+v\n  %+v", got, want)
	}
}

// TestSessionMisuse pins the lifecycle refusals.
func TestSessionMisuse(t *testing.T) {
	ctx := context.Background()
	cfg := tvsched.Config{Benchmark: "bzip2", Instructions: 20000, VDD: tvsched.VHighFault, Seed: 2}

	s, err := tvsched.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot before warmup accepted")
	}
	// A legacy warmup at a faulty supply is scheme/VDD-dependent state:
	// snapshot must refuse it.
	if err := s.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot of non-neutral warm state accepted")
	}
	if err := s.Restore(&tvsched.Snapshot{}); err == nil {
		t.Fatal("restore into a warmed session accepted")
	}

	// Key mismatch: a snapshot from another seed must be refused by Restore
	// before the machine even parses the bytes.
	donor, err := tvsched.NewSession(tvsched.Config{Benchmark: "bzip2", Instructions: 20000,
		VDD: tvsched.VNominal, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Warmup(ctx); err != nil { // nominal supply ⇒ neutral
		t.Fatal(err)
	}
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	target, err := tvsched.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := target.Restore(snap); !errors.Is(err, tvsched.ErrSnapshotUnsupported) {
		t.Fatalf("mismatched warm key: got %v", err)
	}
}
