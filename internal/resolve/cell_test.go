package resolve

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"tvsched"
	"tvsched/internal/lru"
	"tvsched/internal/store"
)

// TestSimulateSnapshotPaths runs one cell cold, restored from a donor's
// snapshot, and against an unusable snapshot: the restored run reports
// Restored, the unusable snapshot falls back to a cold warmup, and all three
// produce the same result.
func TestSimulateSnapshotPaths(t *testing.T) {
	ctx := context.Background()
	cfg := tvsched.Config{Benchmark: "bzip2", VDD: 0.97, Instructions: 2000, Warmup: 2000, Seed: 3}.Normalized()
	cold, src, warm, err := Simulate(ctx, cfg, nil, nil)
	if err != nil || src != Cold || warm != None {
		t.Fatalf("cold run: %v, warm %v, %v", src, warm, err)
	}

	snaps := &Flight{Memo: lru.New[string, []byte](1)}
	restored, src, warm, err := Simulate(ctx, cfg, snaps, nil)
	if err != nil || src != Restored || warm != Cold {
		t.Fatalf("checkpointed run: %v, warm %v, %v; want Restored from a donor", src, warm, err)
	}
	if snaps.Memo.Len() != 1 {
		t.Fatal("the donor's snapshot was not memoized")
	}
	if _, _, warm, _ := Simulate(ctx, cfg, snaps, nil); warm != Memory {
		t.Fatalf("second checkpointed run took its warm state from %v, want the memo", warm)
	}

	snaps.Memo.Put(cfg.WarmKey(), []byte("not a snapshot"))
	fallback, src, warm, err := Simulate(ctx, cfg, snaps, nil)
	if err != nil || src != Cold || warm != None {
		t.Fatalf("run over an unusable snapshot: %v, warm %v, %v; want a cold fallback", src, warm, err)
	}

	if !reflect.DeepEqual(cold, restored) || !reflect.DeepEqual(cold, fallback) {
		t.Fatalf("results differ across snapshot paths:\ncold     %+v\nrestored %+v\nfallback %+v",
			cold.Stats, restored.Stats, fallback.Stats)
	}
}

// phaseLog returns cfg with a PhaseHook that records the phases it sees.
func phaseLog(cfg tvsched.Config) (tvsched.Config, *[]string) {
	var phases []string
	cfg.PhaseHook = func(phase string, _ time.Duration) { phases = append(phases, phase) }
	return cfg, &phases
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestSimulateStoreTier runs a cell through a flight over a store, then
// through a fresh flight over the store reopened: the second run restores
// the warm state the first one's donor wrote back, runs no donor warmup, and
// returns the cold result field for field. Only a WarmStatePrefix record is
// written, and a memo hit reads nothing from the store.
func TestSimulateStoreTier(t *testing.T) {
	ctx := context.Background()
	base := tvsched.Config{Benchmark: "mcf", VDD: 0.97, Instructions: 2000, Warmup: 3000, Seed: 2}.Normalized()
	cold, _, _, err := Simulate(ctx, base, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	cfg, phases := phaseLog(base)
	first, src, warm, err := Simulate(ctx, cfg, &Flight{Memo: lru.New[string, []byte](1)}, st)
	if err != nil || src != Restored || warm != Cold {
		t.Fatalf("first run: %v, warm %v, %v; want Restored from a donor", src, warm, err)
	}
	if !slices.Contains(*phases, "warmup_neutral") {
		t.Fatalf("first run phases %v: no donor warmup", *phases)
	}
	if keys := st.Keys(); len(keys) != 1 || keys[0] != WarmStatePrefix+base.WarmKey() {
		t.Fatalf("store keys %q, want only the warm state of %s", keys, base.WarmKey())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, dir)
	cfg, phases = phaseLog(base)
	snaps := &Flight{Memo: lru.New[string, []byte](1)}
	second, src, warm, err := Simulate(ctx, cfg, snaps, st)
	if err != nil || src != Restored || warm != Store {
		t.Fatalf("run over the reopened store: %v, warm %v, %v; want Restored from the store", src, warm, err)
	}
	if slices.Contains(*phases, "warmup_neutral") {
		t.Fatalf("run over the reopened store phases %v: a donor warmed up", *phases)
	}
	if _, _, warm, _ := Simulate(ctx, base, snaps, st); warm != Memory {
		t.Fatalf("a repeat run took its warm state from %v, want the memo", warm)
	}
	if !reflect.DeepEqual(cold, first) || !reflect.DeepEqual(cold, second) {
		t.Fatalf("results differ across the store tier:\ncold   %+v\nfirst  %+v\nsecond %+v",
			cold.Stats, first.Stats, second.Stats)
	}
}

// TestSimulateRefusedStoreRecord puts bytes RestoreState refuses under the
// cell's warm-state key: the run falls back to a cold warmup and returns the
// cold result.
func TestSimulateRefusedStoreRecord(t *testing.T) {
	ctx := context.Background()
	cfg := tvsched.Config{Benchmark: "sjeng", VDD: 0.97, Instructions: 2000, Warmup: 2000, Seed: 5}.Normalized()
	cold, _, _, err := Simulate(ctx, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, t.TempDir())
	if err := st.Put(WarmStatePrefix+cfg.WarmKey(), []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	got, src, warm, err := Simulate(ctx, cfg, &Flight{Memo: lru.New[string, []byte](1)}, st)
	if err != nil || src != Cold || warm != None {
		t.Fatalf("run over a refused record: %v, warm %v, %v; want a cold fallback", src, warm, err)
	}
	if !reflect.DeepEqual(cold, got) {
		t.Fatalf("cold fallback differs from the cold run:\ncold     %+v\nfallback %+v", cold.Stats, got.Stats)
	}
}

// TestSimulateNilStore pins the paths that must not touch a store: a nil
// store with checkpointing is the memo-and-donor path, and a store without
// checkpointing is never read or written.
func TestSimulateNilStore(t *testing.T) {
	ctx := context.Background()
	cfg := tvsched.Config{Benchmark: "gcc", VDD: 0.97, Instructions: 2000, Warmup: 2000, Seed: 1}.Normalized()
	snaps := &Flight{Memo: lru.New[string, []byte](1)}
	if _, src, warm, err := Simulate(ctx, cfg, snaps, nil); err != nil || src != Restored || warm != Cold {
		t.Fatalf("nil store: %v, warm %v, %v; want Restored from a donor", src, warm, err)
	}
	if snaps.Memo.Len() != 1 {
		t.Fatal("nil store: the donor's snapshot was not memoized")
	}
	st := openStore(t, t.TempDir())
	if _, src, warm, err := Simulate(ctx, cfg, nil, st); err != nil || src != Cold || warm != None {
		t.Fatalf("no checkpoint: %v, warm %v, %v; want cold", src, warm, err)
	}
	if st.Len() != 0 {
		t.Fatalf("a run without checkpointing wrote %d store records", st.Len())
	}
}
