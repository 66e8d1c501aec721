package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/mem"
	"tvsched/internal/pipeline"
	"tvsched/internal/workload"
)

// loopPrefilled builds the session New builds for cfg, but installs the warm
// region the way Prefill did before it prefilled by rule: one access per
// line, in address order. The first line goes in alone — by rule, where
// one access would put it — which leaves the L2 non-empty, so every later
// line takes the per-line loop.
func loopPrefilled(t *testing.T, cfg Config) *Session {
	t.Helper()
	prof, err := workload.Lookup(cfg.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	img, err := imageOf(prof, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	gen := img.prog.NewGenerator()
	p, err := pipeline.New(cfg.machineConfig(prof.MispredictRate), gen, img.model, cfg.VDD)
	if err != nil {
		t.Fatal(err)
	}
	base, size := gen.WarmRegion()
	if base%64 != 0 || size <= 64 {
		t.Fatalf("warm region [%#x, +%d) does not start a line or spans one line", base, size)
	}
	p.PrefillData(base, 64)
	p.PrefillData(base+64, size-64)
	return &Session{cfg: cfg, prof: prof, p: p, retargeted: true}
}

// TestPrefillRuleMatchesLoop pins that a session whose L2 New prefills by
// rule is the machine the per-line prefill loop builds: every lifecycle
// yields identical statistics, and donors hold the same lines in every set
// of every cache. Their snapshots differ — the ruled donor's carries its L2's
// rule and records only the sets that differ from it, the loop-prefilled
// L2 has no rule and records every set it holds — but either restores into
// a fresh session over either L2 as the same machine: it holds the donors'
// lines, snapshots to its donor's bytes, and runs alike.
func TestPrefillRuleMatchesLoop(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Benchmark: "mcf", Scheme: core.ABS, VDD: fault.VHighFault, Warmup: 3000, Seed: 5}
	build := func(loop bool) *Session {
		t.Helper()
		if loop {
			return loopPrefilled(t, cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
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
		for i, loop := range []bool{false, true} {
			s := build(loop)
			if err := lc.warm(s); err != nil {
				t.Fatal(err)
			}
			st, err := s.Run(ctx, 4000)
			if err != nil {
				t.Fatal(err)
			}
			stats[i] = st
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("%s: the prefill rule changed the run:\n got %+v\nwant %+v", lc.name, stats[0], stats[1])
		}
	}

	// sameLines compares every set of every cache of s with the ruled
	// donor's, each unbuilt set as it would be built.
	var donors [2]*Session
	var snaps [2][]byte
	sameLines := func(s *Session, what string) {
		t.Helper()
		want, got := donors[0].p.Hierarchy(), s.p.Hierarchy()
		for _, c := range [][2]*mem.Cache{{got.L1I, want.L1I}, {got.L1D, want.L1D}, {got.L2, want.L2}} {
			if d := c[0].FirstDifferentSet(c[1]); d >= 0 {
				t.Fatalf("%s: %s set %d differs from the ruled donor's", what, c[0].Config().Name, d)
			}
		}
	}
	for i, loop := range []bool{false, true} {
		s := build(loop)
		if err := s.WarmupNeutral(ctx); err != nil {
			t.Fatal(err)
		}
		b, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		donors[i], snaps[i] = s, b
	}
	sameLines(donors[1], "the loop-prefilled donor")
	if len(snaps[0]) >= len(snaps[1]) {
		t.Errorf("the ruled donor's snapshot is %d bytes, the loop-prefilled one's %d: the rule should stand for the sets nobody changed",
			len(snaps[0]), len(snaps[1]))
	}

	// Restore replaces the rule New recorded, and the sets the loop built,
	// with the snapshot's rule and records.
	var stats []pipeline.Stats
	for d, donor := range snaps {
		for _, loop := range []bool{false, true} {
			what := fmt.Sprintf("donor %d restored over a prefilled L2 (loop %t)", d, loop)
			s := build(loop)
			if err := s.Restore(donor); err != nil {
				t.Fatal(err)
			}
			sameLines(s, what)
			b, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, donor) {
				t.Fatalf("%s: the session does not snapshot to its donor's bytes", what)
			}
			st, err := s.Run(ctx, 4000)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
	}
	for i := range stats {
		if !reflect.DeepEqual(stats[i], stats[0]) {
			t.Errorf("restored run %d differs from restored run 0:\n got %+v\nwant %+v", i, stats[i], stats[0])
		}
	}
}

// TestImageSharedAcrossConcurrentSessions runs the five schemes of one
// (benchmark, seed) at the same time on one image — one program walked by
// five generators, one fault model and its tail-mask table — and requires
// every cell's Stats to equal the same cell run alone on an image built for
// it. All five must hit the shared image.
func TestImageSharedAcrossConcurrentSessions(t *testing.T) {
	ctx := context.Background()
	const seed = 7
	prof, err := workload.Lookup("sjeng")
	if err != nil {
		t.Fatal(err)
	}
	key := imageKey{prof, seed}
	fresh := func() *image {
		img, err := buildImage(prof, seed)
		if err != nil {
			t.Fatal(err)
		}
		images.Put(key, img)
		return img
	}
	schemes := []core.Scheme{core.Razor, core.EP, core.ABS, core.FFS, core.CDS}
	run := func(sc core.Scheme) (pipeline.Stats, error) {
		s, err := New(Config{Benchmark: "sjeng", Scheme: sc, VDD: fault.VHighFault, Warmup: 4000, Seed: seed})
		if err != nil {
			return pipeline.Stats{}, err
		}
		if err := s.WarmupNeutral(ctx); err != nil {
			return pipeline.Stats{}, err
		}
		return s.Run(ctx, 12000)
	}

	want := make([]pipeline.Stats, len(schemes))
	for i, sc := range schemes {
		fresh()
		if want[i], err = run(sc); err != nil {
			t.Fatal(err)
		}
	}

	shared := fresh()
	got := make([]pipeline.Stats, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, sc := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(sc)
		}()
	}
	wg.Wait()
	for i, sc := range schemes {
		if errs[i] != nil {
			t.Fatalf("%v: %v", sc, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%v: a shared image changed the run:\n got %+v\nwant %+v", sc, got[i], want[i])
		}
	}
	if img, ok := images.Get(key); !ok || img != shared {
		t.Error("a session rebuilt the image it should have shared")
	}
}

// TestRestoreSharedSnapshotConcurrently restores one donor snapshot — a
// single []byte, which each restored cache reads its sets from as it first
// touches them — into the five schemes of one (benchmark, seed) at the same
// time. Before it runs, every restored session must snapshot to the donor's
// exact bytes, and every cell's Stats must equal the same cell restored from
// a private copy and run alone.
func TestRestoreSharedSnapshotConcurrently(t *testing.T) {
	ctx := context.Background()
	cfg := func(sc core.Scheme) Config {
		return Config{Benchmark: "xalancbmk", Scheme: sc, VDD: fault.VHighFault, Warmup: 20000, Seed: 9}
	}
	donor, err := New(cfg(core.ABS))
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.WarmupNeutral(ctx); err != nil {
		t.Fatal(err)
	}
	shared, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	schemes := []core.Scheme{core.Razor, core.EP, core.ABS, core.FFS, core.CDS}
	run := func(sc core.Scheme, b []byte) (pipeline.Stats, error) {
		s, err := New(cfg(sc))
		if err != nil {
			return pipeline.Stats{}, err
		}
		if err := s.Restore(b); err != nil {
			return pipeline.Stats{}, err
		}
		again, err := s.Snapshot()
		if err != nil {
			return pipeline.Stats{}, err
		}
		if !bytes.Equal(again, shared) {
			return pipeline.Stats{}, fmt.Errorf("a restored session snapshots to other bytes than its donor")
		}
		return s.Run(ctx, 8000)
	}

	want := make([]pipeline.Stats, len(schemes))
	for i, sc := range schemes {
		if want[i], err = run(sc, bytes.Clone(shared)); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
	}
	got := make([]pipeline.Stats, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, sc := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(sc, shared)
		}()
	}
	wg.Wait()
	for i, sc := range schemes {
		if errs[i] != nil {
			t.Fatalf("%v: %v", sc, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%v: restoring a shared snapshot changed the run:\n got %+v\nwant %+v", sc, got[i], want[i])
		}
	}
}

// TestImageCacheKeys pins what the image cache keys on: a second session of
// one (profile, seed) reuses the first one's image whatever its scheme and
// supply, another seed builds its own, and a profile that holds a NaN —
// equal to no key, itself included — simulates without entering the cache.
func TestImageCacheKeys(t *testing.T) {
	prof, err := workload.Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg Config) {
		t.Helper()
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	build(Config{Benchmark: "gcc", Scheme: core.ABS, VDD: fault.VHighFault, Seed: 3})
	first, ok := images.Get(imageKey{prof, 3})
	if !ok {
		t.Fatal("New left no image in the cache")
	}
	build(Config{Profile: &prof, Scheme: core.Razor, VDD: fault.VLowFault, Seed: 3})
	if again, _ := images.Get(imageKey{prof, 3}); again != first {
		t.Error("a second session of one (profile, seed) rebuilt its image")
	}
	build(Config{Benchmark: "gcc", Scheme: core.ABS, VDD: fault.VHighFault, Seed: 4})
	if other, _ := images.Get(imageKey{prof, 4}); other == nil || other == first {
		t.Error("another seed did not get an image of its own")
	}

	nan := prof
	nan.PaperIPC = math.NaN()
	s, err := New(Config{Profile: &nan, Scheme: core.ABS, VDD: fault.VHighFault, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	for _, k := range images.Keys() {
		if k != k {
			t.Error("a NaN profile entered the image cache")
		}
	}
}
