package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/pipeline"
)

// TestDeferredPrefillMatchesEager pins that New's L2 prefill, paid at the
// first simulated cycle, builds the same machine as prefilling inside New
// (the eager reference pays the debt right after construction): every
// lifecycle yields identical statistics, and donors identical snapshots.
func TestDeferredPrefillMatchesEager(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Benchmark: "mcf", Scheme: core.ABS, VDD: fault.VHighFault, Warmup: 3000, Seed: 5}
	build := func(eager bool) *Session {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eager {
			s.payPrefill()
		}
		return s
	}
	lifecycles := []struct {
		name string
		warm func(*Session) error
	}{
		{"unwarmed", func(*Session) error { return nil }},
		{"warmup", func(s *Session) error { return s.Warmup(ctx) }},
		{"warmup-neutral", func(s *Session) error { return s.WarmupNeutral(ctx) }},
	}
	for _, lc := range lifecycles {
		var stats [2]pipeline.Stats
		for i, eager := range []bool{false, true} {
			s := build(eager)
			if err := lc.warm(s); err != nil {
				t.Fatal(err)
			}
			st, err := s.Run(ctx, 4000)
			if err != nil {
				t.Fatal(err)
			}
			if s.owesPrefill {
				t.Fatalf("%s: prefill still owed after simulating", lc.name)
			}
			stats[i] = st
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("%s: deferred prefill changed the run:\n got %+v\nwant %+v", lc.name, stats[0], stats[1])
		}
	}

	var snaps [2][]byte
	for i, eager := range []bool{false, true} {
		s := build(eager)
		if err := s.WarmupNeutral(ctx); err != nil {
			t.Fatal(err)
		}
		b, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("deferred prefill changed the donor snapshot")
	}

	// Restore replaces every L2 set, so it cancels the debt; the restored
	// run matches one restored over an eagerly prefilled machine.
	var stats [2]pipeline.Stats
	for i, eager := range []bool{false, true} {
		s := build(eager)
		if err := s.Restore(snaps[0]); err != nil {
			t.Fatal(err)
		}
		if s.owesPrefill {
			t.Fatal("Restore left the prefill owed")
		}
		st, err := s.Run(ctx, 4000)
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = st
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("restored run differs over a cold and a prefilled L2:\n got %+v\nwant %+v", stats[0], stats[1])
	}
}
