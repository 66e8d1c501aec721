package resolve

import (
	"context"
	"reflect"
	"testing"

	"tvsched"
	"tvsched/internal/lru"
)

// TestSimulateSnapshotPaths runs one cell cold, restored from a donor's
// snapshot, and against an unusable snapshot: the restored run reports
// Restored, the unusable snapshot falls back to a cold warmup, and all three
// produce the same result.
func TestSimulateSnapshotPaths(t *testing.T) {
	ctx := context.Background()
	cfg := tvsched.Config{Benchmark: "bzip2", VDD: 0.97, Instructions: 2000, Warmup: 2000, Seed: 3}.Normalized()
	cold, src, err := Simulate(ctx, cfg, nil)
	if err != nil || src != Cold {
		t.Fatalf("cold run: %v, %v", src, err)
	}

	snaps := &Flight{Memo: lru.New[string, []byte](1)}
	restored, src, err := Simulate(ctx, cfg, snaps)
	if err != nil || src != Restored {
		t.Fatalf("checkpointed run: %v, %v", src, err)
	}
	if snaps.Memo.Len() != 1 {
		t.Fatal("the donor's snapshot was not memoized")
	}

	snaps.Memo.Put(cfg.WarmKey(), []byte("not a snapshot"))
	fallback, src, err := Simulate(ctx, cfg, snaps)
	if err != nil || src != Cold {
		t.Fatalf("run over an unusable snapshot: %v, %v; want a cold fallback", src, err)
	}

	if !reflect.DeepEqual(cold, restored) || !reflect.DeepEqual(cold, fallback) {
		t.Fatalf("results differ across snapshot paths:\ncold     %+v\nrestored %+v\nfallback %+v",
			cold.Stats, restored.Stats, fallback.Stats)
	}
}
