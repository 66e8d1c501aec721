package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"tvsched/internal/resil/chaos"
	"tvsched/internal/store"
)

func testPlan(t *testing.T) *Plan {
	t.Helper()
	plan, err := NewPlan(Spec{
		Benchmarks: []string{"bzip2"},
		Schemes:    []string{"ABS", "FFS"},
		VDDs:       []float64{0.97},
		Seeds:      []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func lineFor(plan *Plan, i int) []byte {
	return []byte(fmt.Sprintf(`{"index":%d,"digest":%q}`, i, plan.Cell(i).Config.Digest()[:12]))
}

// frameHeaderLen is the store.Log frame header: magic, payload length and
// CRC-32.
const frameHeaderLen = 12

// frameOffsets scans the journal file's frames and returns each intact
// frame's byte offset (the header frame included).
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	var offs []int64
	log, err := store.OpenLog(path, store.JournalMagic, func(off int64, _ []byte) bool {
		offs = append(offs, off)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	return offs
}

func TestJournalAppendAndResume(t *testing.T) {
	plan := testPlan(t)
	path := filepath.Join(t.TempDir(), "c.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(i, ClassRestored, lineFor(plan, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate appends are no-ops.
	if err := j.Append(2, ClassCold, []byte(`{"overwrite":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Truncated != 0 {
		t.Fatalf("clean journal reopened with %d truncated bytes", j2.Truncated)
	}
	if got := j2.DoneCount(); got != 4 {
		t.Fatalf("DoneCount = %d, want 4", got)
	}
	for i := 0; i < plan.Total(); i++ {
		class, line, ok, err := j2.ReadLine(i)
		if err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			if !ok || class != ClassRestored || string(line) != string(lineFor(plan, i)) {
				t.Fatalf("cell %d: ok=%v class=%v line=%s", i, ok, class, line)
			}
		} else if ok {
			t.Fatalf("cell %d unexpectedly journaled", i)
		}
	}

	// LoadJournal rebuilds the plan from the embedded spec alone.
	j3, plan3, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if plan3.Hash() != plan.Hash() || j3.DoneCount() != 4 {
		t.Fatalf("LoadJournal: hash %s done %d", plan3.Hash(), j3.DoneCount())
	}
}

func TestJournalPlanMismatch(t *testing.T) {
	plan := testPlan(t)
	path := filepath.Join(t.TempDir(), "c.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other, err := NewPlan(Spec{Benchmarks: []string{"sjeng"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, other); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("foreign plan opened the journal: %v", err)
	}
}

// TestJournalTearTail kills the last record mid-frame (a process killed
// mid-write) and proves open truncates back to the last intact frame: every
// earlier cell stays completed, the torn one reverts to pending, and the
// journal accepts its re-append.
func TestJournalTearTail(t *testing.T) {
	plan := testPlan(t)
	path := filepath.Join(t.TempDir(), "c.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(i, ClassRestored, lineFor(plan, i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if err := chaos.TearTail(path, 3); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Truncated == 0 {
		t.Fatal("torn tail not detected")
	}
	if got := j2.DoneCount(); got != 3 {
		t.Fatalf("DoneCount after tear = %d, want 3", got)
	}
	if j2.Done(3) {
		t.Fatal("torn cell still reads as completed")
	}
	for i := 0; i < 3; i++ {
		if _, line, ok, err := j2.ReadLine(i); err != nil || !ok || string(line) != string(lineFor(plan, i)) {
			t.Fatalf("cell %d damaged by tear recovery: ok=%v err=%v line=%s", i, ok, err, line)
		}
	}
	if err := j2.Append(3, ClassRestored, lineFor(plan, 3)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Truncated != 0 || j3.DoneCount() != 4 {
		t.Fatalf("after re-append: truncated %d, done %d", j3.Truncated, j3.DoneCount())
	}
}

// TestJournalFlipBit corrupts one bit inside a mid-file record. The checksum
// catches it, and — append-only logs having no way to trust anything past a
// corrupt frame — the journal truncates from that frame on: earlier records
// survive bit-exact, later ones revert to pending for re-execution.
func TestJournalFlipBit(t *testing.T) {
	plan := testPlan(t)
	path := filepath.Join(t.TempDir(), "c.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(i, ClassCold, lineFor(plan, i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	offs := frameOffsets(t, path)
	if len(offs) != 6 { // header + 5 records
		t.Fatalf("frame count = %d, want 6", len(offs))
	}
	// Flip a payload bit of the third record (cell 2).
	if err := chaos.FlipBit(path, offs[3]+frameHeaderLen+2, 4); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Truncated == 0 {
		t.Fatal("flipped bit not detected")
	}
	if got := j2.DoneCount(); got != 2 {
		t.Fatalf("DoneCount after flip = %d, want 2 (cells 0-1)", got)
	}
	for i := 0; i < 2; i++ {
		if _, line, ok, err := j2.ReadLine(i); err != nil || !ok || string(line) != string(lineFor(plan, i)) {
			t.Fatalf("cell %d damaged by flip recovery: ok=%v err=%v line=%s", i, ok, err, line)
		}
	}
	for i := 2; i < 5; i++ {
		if j2.Done(i) {
			t.Fatalf("cell %d past the corrupt frame still reads as completed", i)
		}
	}
}

// TestJournalHeaderDestroyed: when not even the header frame survives, the
// file is reinitialized for the plan instead of failing forever.
func TestJournalHeaderDestroyed(t *testing.T) {
	plan := testPlan(t)
	path := filepath.Join(t.TempDir(), "c.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(0, ClassCold, lineFor(plan, 0))
	j.Close()
	if err := chaos.FlipBit(path, frameHeaderLen+1, 2); err != nil { // inside the header payload
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.DoneCount() != 0 {
		t.Fatalf("reinitialized journal reports %d done cells", j2.DoneCount())
	}
	if err := j2.Append(0, ClassCold, lineFor(plan, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReadLineVerifies rots one bit of a record after the journal
// opened, where the line stays valid JSON and only the checksum can tell.
// ReadLine must report the damage rather than hand back the changed line,
// and Execute must fail before it replays that cell.
func TestJournalReadLineVerifies(t *testing.T) {
	plan := testPlan(t)
	path := filepath.Join(t.TempDir(), "c.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if err := j.Append(i, ClassCold, lineFor(plan, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := lineFor(plan, 1)
	at := bytes.Index(blob, line)
	if at < 0 {
		t.Fatal("cell 1's line is not in the journal")
	}
	// Bit 0 of the first digest character keeps it a printable character.
	at += bytes.Index(line, []byte(`"digest":"`)) + len(`"digest":"`)
	if err := chaos.FlipBit(path, int64(at), 0); err != nil {
		t.Fatal(err)
	}

	if _, got, ok, err := j.ReadLine(1); !errors.Is(err, store.ErrCorrupt) || got != nil || ok {
		t.Fatalf("ReadLine(1) of a rotted record: ok=%v err=%v line=%s; want ErrCorrupt and no bytes", ok, err, got)
	}
	var out bytes.Buffer
	var execs atomic.Int64
	if _, err := Execute(context.Background(), plan, j, fakeRunner(&execs), &out, Options{Workers: 1}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Execute over a rotted record: %v, want ErrCorrupt", err)
	}
	if want := string(lineFor(plan, 0)) + "\n"; out.String() != want {
		t.Fatalf("Execute emitted %q, want only cell 0's line %q", out.String(), want)
	}
}
