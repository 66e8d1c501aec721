package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	body := []byte(`{"ipc":1.5}` + "\n")
	if err := s.Put("sha256:abc", body); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("sha256:abc")
	if err != nil || !ok || !bytes.Equal(got, body) {
		t.Fatalf("get: %q ok=%v err=%v, want %q", got, ok, err, body)
	}
	if _, ok, _ := s.Get("sha256:nope"); ok {
		t.Fatal("phantom hit")
	}
	if s.Len() != 1 {
		t.Fatalf("len %d, want 1", s.Len())
	}
}

// TestLargePutKeepsNoCopy pins that the store keeps no record-sized buffer:
// after a 400 KB Put (a warm state's size class) and a read back, no byte
// slice the Store or its Log holds for reuse is longer than maxScratch.
func TestLargePutKeepsNoCopy(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	body := bytes.Repeat([]byte{0x5a, 0xa5}, 200<<10)
	key := "warm-state/" + benchKey(1)
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(got, body) {
		t.Fatalf("get: %d bytes ok=%v err=%v, want the %d put", len(got), ok, err, len(body))
	}
	for _, v := range []reflect.Value{reflect.ValueOf(s).Elem(), reflect.ValueOf(s.log).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Uint8 && f.Cap() > maxScratch {
				t.Errorf("%s.%s keeps %d bytes after the Put, want at most %d",
					v.Type().Name(), v.Type().Field(i).Name, f.Cap(), maxScratch)
			}
		}
	}
}

// TestReopenRebuildsIndex is the persistence property the serving layer's
// restart story rests on: everything acknowledged before Close is served
// after a fresh Open, byte-identical.
func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("digest-%02d", i)
		v := bytes.Repeat([]byte{byte(i)}, 10+i)
		want[k] = v
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede one entry with different-length bytes: last write must win
	// across the reopen.
	want["digest-03"] = []byte("superseded-much-longer-body")
	if err := s.Put("digest-03", want["digest-03"]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := mustOpen(t, dir, 0)
	if r.Truncated != 0 {
		t.Fatalf("clean log reported %d truncated bytes", r.Truncated)
	}
	if r.Len() != len(want) {
		t.Fatalf("reopened len %d, want %d", r.Len(), len(want))
	}
	for k, v := range want {
		got, ok, err := r.Get(k)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("%s after reopen: %q ok=%v err=%v, want %q", k, got, ok, err, v)
		}
	}
}

// TestCorruptTailTruncated simulates a crash mid-append: the damaged tail is
// discarded on open, every record before it survives.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put("good", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-half-record-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, dir, 0)
	if r.Truncated == 0 {
		t.Fatal("torn tail not reported")
	}
	got, ok, err := r.Get("good")
	if err != nil || !ok || string(got) != "intact" {
		t.Fatalf("record before the torn tail lost: %q ok=%v err=%v", got, ok, err)
	}
	// The truncation must be durable: a third open sees a clean log.
	r.Close()
	rr := mustOpen(t, dir, 0)
	if rr.Truncated != 0 {
		t.Fatalf("truncation did not persist (%d bytes reported)", rr.Truncated)
	}
}

// TestCorruptMiddleStopsScan pins the recovery rule: the scan stops at the
// first damaged record, so entries after it are sacrificed (the log is a
// prefix-valid structure, not a skip list).
func TestCorruptMiddleStopsScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put("first", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	firstEnd := s.log.Size()
	if err := s.Put("second", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's body.
	if _, err := f.WriteAt([]byte{0xFF}, firstEnd+headerLen+int64(len("second"))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, dir, 0)
	if r.Len() != 1 || r.Truncated == 0 {
		t.Fatalf("len %d truncated %d, want the scan to stop at the corrupt record", r.Len(), r.Truncated)
	}
	if _, ok, _ := r.Get("second"); ok {
		t.Fatal("corrupt record served")
	}
}

// TestCompactionEvictsColdest fills past the byte bound and checks the LRU
// contract: recently used entries survive compaction, the cold tail goes.
func TestCompactionEvictsColdest(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("x"), 100)
	recLen := int64(headerLen + len("key-00") + len(body))
	s := mustOpen(t, dir, 5*recLen)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), body); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key-00 so key-01 is the coldest when the bound trips.
	if _, ok, _ := s.Get("key-00"); !ok {
		t.Fatal("key-00 missing before compaction")
	}
	if err := s.Put("key-05", body); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("key-01"); ok {
		t.Fatal("coldest entry survived compaction")
	}
	// The survivors are the hottest entries that fit in half the bound.
	for _, k := range []string{"key-00", "key-05"} {
		if _, ok, _ := s.Get(k); !ok {
			t.Fatalf("%s evicted, want the hottest entries kept", k)
		}
	}
	if s.Bytes() > 5*recLen {
		t.Fatalf("live bytes %d over bound %d after compaction", s.Bytes(), 5*recLen)
	}

	// Recency must survive the compaction rewrite: reopen and check the
	// same set is present.
	s.Close()
	r := mustOpen(t, dir, 5*recLen)
	if r.Len() != 2 {
		t.Fatalf("reopened len %d, want 2", r.Len())
	}
	if _, ok, _ := r.Get("key-00"); !ok {
		t.Fatal("key-00 lost across compaction+reopen")
	}
}

// TestCompactionDropsDeadBytes: superseding the same digest repeatedly
// leaves dead records; compaction reclaims them without losing live data.
func TestCompactionDropsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 4096)
	for i := 0; i < 200; i++ {
		// Alternate lengths so every Put supersedes rather than dedupes.
		if err := s.Put("hot", bytes.Repeat([]byte("y"), 100+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("len %d, want 1", s.Len())
	}
	if s.log.Size() > 4096 {
		t.Fatalf("log size %d never compacted under bound 4096", s.log.Size())
	}
	got, ok, err := s.Get("hot")
	if err != nil || !ok || len(got) != 100+199%2 {
		t.Fatalf("live entry lost after dead-byte compaction: ok=%v err=%v len=%d", ok, err, len(got))
	}
}

// TestCompactionAmortized pins the half-bound rule: a compaction keeps at
// most half the bound, so once the live set fills the bound, the Puts after
// a compaction that add up to less than half the bound compact nothing. A
// store that kept the whole bound would rewrite its log on every Put.
func TestCompactionAmortized(t *testing.T) {
	dir := t.TempDir()
	const bound = 64 << 10
	s := mustOpen(t, dir, bound)
	body := bytes.Repeat([]byte("z"), 900)
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	path := filepath.Join(dir, logName)
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}

	// Fill until the first compaction swaps a fresh log in.
	i, before := 0, stat()
	for ; os.SameFile(before, stat()); i++ {
		if i > 2*bound/len(body) {
			t.Fatal("no compaction after twice the bound of Puts")
		}
		if err := s.Put(key(i), body); err != nil {
			t.Fatal(err)
		}
	}

	compacted := stat()
	var added int64
	for n := recordSize(key(i), body); added+n < bound/2; i++ {
		if err := s.Put(key(i), body); err != nil {
			t.Fatal(err)
		}
		added += n
		if !os.SameFile(compacted, stat()) {
			t.Fatalf("compacted again after %d bytes of Puts, want none before half the bound (%d)", added, bound/2)
		}
	}
}

func TestKeysRecencyOrder(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	s.Get("a")
	got := s.Keys()
	want := []string{"a", "c", "b"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("keys %v, want %v", got, want)
	}
}

// TestConcurrentAccess lets the race detector audit the single-lock design.
func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 64<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("k-%d-%d", g, i%10)
				if err := s.Put(k, bytes.Repeat([]byte{byte(g)}, 64)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(k); err != nil {
					t.Error(err)
					return
				}
				s.Keys()
				s.Bytes()
			}
		}(g)
	}
	wg.Wait()
}
