package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalBytesGolden pins the journal's on-disk bytes: one fixed plan,
// one fixed sequence of appends (out of order, with a duplicate), hashed
// whole. A journal written by one build must resume under the next, so the
// framing, the header and the record encoding may not drift; a deliberate
// format change bumps JournalSchema and this hash together.
func TestJournalBytesGolden(t *testing.T) {
	plan, err := NewPlan(Spec{
		Tag:        "golden",
		Benchmarks: []string{"bzip2", "mcf"},
		Schemes:    []string{"ABS", "Razor"},
		VDDs:       []float64{0.97},
		Seeds:      []uint64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	appends := []struct {
		index int
		class Class
		line  string
	}{
		{0, ClassCold, `{"index":0,"ipc":1.25}`},
		{2, ClassRestored, `{"index":2,"ipc":0.5}`},
		{1, ClassHit, `{"index":1,"ipc":1}`},
		{2, ClassCold, `{"index":2,"overwrite":true}`}, // duplicate: a no-op
		{7, ClassStolen, `{"index":7,"error":"boom"}`},
	}
	for _, a := range appends {
		if err := j.Append(a.index, a.class, []byte(a.line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	const want = "9703188a35e69291d33212530772bb8a133f38af93c8c7b96db2c8c6408a4659"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("journal bytes drifted: %d bytes, sha256 %s, want %s", len(blob), got, want)
	}
}
