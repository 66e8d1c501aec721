package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"tvsched/internal/resil/chaos"
)

// recordSize is the on-disk footprint of one record, for tests that need
// to tear the log at exact frame boundaries.
func recordSize(digest string, body []byte) int64 {
	return int64(headerLen + len(digest) + len(body))
}

// TestTornTailOnFrameBoundary pins the Truncated accounting at its edge:
// a crash that happens to cut the log exactly between two records loses
// the tail record but leaves a perfectly well-formed file — Open must
// report zero truncated bytes, because nothing it kept was damaged.
func TestTornTailOnFrameBoundary(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	keep1, keep2, lost := []byte("first\n"), []byte("second\n"), []byte("third, torn away\n")
	if err := s.Put("digest-1", keep1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("digest-2", keep2); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("digest-3", lost); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if err := chaos.TearTail(filepath.Join(dir, logName), recordSize("digest-3", lost)); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, 0)
	if r.Truncated != 0 {
		t.Fatalf("Truncated = %d after a frame-boundary tear, want 0 (the file is well-formed)", r.Truncated)
	}
	if r.Len() != 2 {
		t.Fatalf("len %d, want 2", r.Len())
	}
	for key, want := range map[string][]byte{"digest-1": keep1, "digest-2": keep2} {
		got, ok, err := r.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("get %s: %q ok=%v err=%v, want %q", key, got, ok, err, want)
		}
	}
	if _, ok, _ := r.Get("digest-3"); ok {
		t.Fatal("the torn-away record still serves")
	}
}

// TestTornTailMidRecord cuts the log inside the final record and checks
// Open discards exactly the partial bytes — Truncated equals what was left
// of the damaged record, and every earlier record survives.
func TestTornTailMidRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	keep, lost := []byte("survivor\n"), []byte("this record gets torn mid-body\n")
	if err := s.Put("digest-a", keep); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("digest-b", lost); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	const torn = 5 // bytes sheared off the end, mid-record
	if err := chaos.TearTail(filepath.Join(dir, logName), torn); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, 0)
	wantTrunc := recordSize("digest-b", lost) - torn
	if r.Truncated != wantTrunc {
		t.Fatalf("Truncated = %d, want %d (the partial record left behind)", r.Truncated, wantTrunc)
	}
	if got, ok, err := r.Get("digest-a"); err != nil || !ok || !bytes.Equal(got, keep) {
		t.Fatalf("get digest-a: %q ok=%v err=%v, want %q", got, ok, err, keep)
	}
	if _, ok, _ := r.Get("digest-b"); ok {
		t.Fatal("the torn record still serves")
	}
}

// TestFlippedBitInBody flips one bit inside the last record's body and
// checks the CRC catches it: Open drops exactly that record (Truncated is
// its full size), never serving silently corrupted bytes.
func TestFlippedBitInBody(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	keep, poisoned := []byte("clean\n"), []byte("one of these bits is about to flip\n")
	if err := s.Put("digest-x", keep); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("digest-y", poisoned); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Offset -10 lands inside the last record's body (well past its
	// digest), counted from the end of the file.
	if err := chaos.FlipBit(filepath.Join(dir, logName), -10, 3); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, 0)
	if want := recordSize("digest-y", poisoned); r.Truncated != want {
		t.Fatalf("Truncated = %d, want %d (the whole poisoned record)", r.Truncated, want)
	}
	if got, ok, err := r.Get("digest-x"); err != nil || !ok || !bytes.Equal(got, keep) {
		t.Fatalf("get digest-x: %q ok=%v err=%v, want %q", got, ok, err, keep)
	}
	if _, ok, _ := r.Get("digest-y"); ok {
		t.Fatal("the bit-flipped record still serves")
	}
}

// TestGarbageHeaderStopsScan smashes a bit in the magic of the final
// record's header: the scan must stop there cleanly and truncate it.
func TestGarbageHeaderStopsScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	keep, lost := []byte("intact\n"), []byte("header about to rot\n")
	if err := s.Put("digest-k", keep); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("digest-l", lost); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The final record starts headerLen+digest+body bytes from the end;
	// flip a bit in its first header byte (the magic).
	off := -recordSize("digest-l", lost)
	if err := chaos.FlipBit(filepath.Join(dir, logName), off, 0); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, 0)
	if want := recordSize("digest-l", lost); r.Truncated != want {
		t.Fatalf("Truncated = %d, want %d", r.Truncated, want)
	}
	if got, ok, err := r.Get("digest-k"); err != nil || !ok || !bytes.Equal(got, keep) {
		t.Fatalf("get digest-k: %q ok=%v err=%v, want %q", got, ok, err, keep)
	}
}

// TestCompactionRacesConcurrentGets hammers reads against a store whose
// bound forces compaction after compaction, pinning the locking contract:
// every Get during a compaction returns either a clean miss (evicted) or
// the exact bytes written for that key — never torn or relocated garbage.
// Run under -race this also audits the offset bookkeeping the swap does.
func TestCompactionRacesConcurrentGets(t *testing.T) {
	dir := t.TempDir()
	// Each record is ~1 KiB; a 4 KiB bound keeps compaction continuous.
	s := mustOpen(t, dir, 4096)

	value := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26)}, 1000)
	}
	key := func(i int) string { return fmt.Sprintf("digest-%03d", i) }

	const writes = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % writes
				got, ok, err := s.Get(key(k))
				if err != nil {
					t.Errorf("get %s: %v", key(k), err)
					return
				}
				if ok && !bytes.Equal(got, value(k)) {
					t.Errorf("get %s returned wrong bytes under compaction", key(k))
					return
				}
			}
		}(g)
	}
	for i := 0; i < writes; i++ {
		if err := s.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The bound held throughout and the hottest entries still read back.
	if s.Bytes() > 4096 {
		t.Fatalf("live bytes %d exceed the 4096 bound after compactions", s.Bytes())
	}
	last := key(writes - 1)
	if got, ok, err := s.Get(last); err != nil || !ok || !bytes.Equal(got, value(writes-1)) {
		t.Fatalf("hottest key %s lost across compactions: ok=%v err=%v", last, ok, err)
	}
}

// TestCompactionDropsRottedSurvivor rots a hot record on disk after its
// last read, then forces a compaction that keeps it. Compaction checks each
// survivor again: the rotted one is dropped, not copied, so the compacted
// log holds no damaged frame that would cut the records after it on the
// next open.
func TestCompactionDropsRottedSurvivor(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("r"), 100)
	recLen := recordSize("key-0", body)
	s := mustOpen(t, dir, 4*recLen)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), body); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Get("key-0"); !ok || err != nil { // key-0 is now second hottest
		t.Fatalf("key-0: ok=%v err=%v", ok, err)
	}
	// key-0 is the log's first record; flip a bit of its body.
	if err := chaos.FlipBit(filepath.Join(dir, logName), headerLen+int64(len("key-0"))+3, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-4", body); err != nil { // over the bound: compacts
		t.Fatal(err)
	}
	if got, ok, err := s.Get("key-0"); ok || err != nil {
		t.Fatalf("rotted key-0 after compaction: %q ok=%v err=%v, want a clean miss", got, ok, err)
	}
	s.Close()

	r := mustOpen(t, dir, 4*recLen)
	if r.Truncated != 0 {
		t.Fatalf("the compacted log lost %d bytes on reopen", r.Truncated)
	}
	if got, ok, err := r.Get("key-4"); err != nil || !ok || !bytes.Equal(got, body) {
		t.Fatalf("key-4 after compaction and reopen: ok=%v err=%v", ok, err)
	}
}
