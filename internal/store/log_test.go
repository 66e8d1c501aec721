package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// damagePayloads are the frames of the constructed log the damage tests cut
// and flip: 0, 1, 2, 37 and 300 bytes, so an empty frame, the shortest
// non-empty ones and two longer ones sit side by side.
var damagePayloads = [][]byte{
	{},
	{0x01},
	{0xfe, 0xff},
	bytes.Repeat([]byte("thirty-seven bytes!"), 2)[:37],
	bytes.Repeat([]byte{0x00, 0x5a, 0xa5, 0xff}, 75),
}

// buildLog appends payloads to a fresh log and returns its bytes and each
// frame's end offset.
func buildLog(t testing.TB, payloads [][]byte) ([]byte, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "built.log")
	l, err := createLog(path, StoreMagic)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i, p := range payloads {
		off, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && off != ends[i-1] {
			t.Fatalf("frame %d appended at %d, want %d", i, off, ends[i-1])
		}
		ends = append(ends, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob, ends
}

// openAll opens the log at path, accepting every intact frame, and returns
// the log with copies of the payloads it visited.
func openAll(t testing.TB, path string) (*Log, [][]byte) {
	t.Helper()
	var kept [][]byte
	l, err := OpenLog(path, StoreMagic, func(_ int64, p []byte) bool {
		kept = append(kept, bytes.Clone(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, kept
}

// TestLogDamage cuts the constructed log at every byte offset and, one at a
// time, flips every bit of it. Each open must visit exactly the frames that
// end before the damage, cut everything from the damaged frame on, report
// those bytes as Truncated, leave the file at the kept length and reopen
// clean.
func TestLogDamage(t *testing.T) {
	clean, ends := buildLog(t, damagePayloads)
	path := filepath.Join(t.TempDir(), "damaged.log")
	check := func(what string, damaged []byte, damageAt int64) {
		t.Helper()
		keep := 0
		for keep < len(ends) && ends[keep] <= damageAt {
			keep++
		}
		var wantLen int64
		if keep > 0 {
			wantLen = ends[keep-1]
		}
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		var offs []int64
		var kept [][]byte
		l, err := OpenLog(path, StoreMagic, func(off int64, p []byte) bool {
			offs = append(offs, off)
			kept = append(kept, bytes.Clone(p))
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(kept) != keep {
			t.Fatalf("%s: visited %d frames, want %d", what, len(kept), keep)
		}
		for i, p := range kept {
			var start int64
			if i > 0 {
				start = ends[i-1]
			}
			if offs[i] != start || !bytes.Equal(p, damagePayloads[i]) {
				t.Fatalf("%s: frame %d at %d = %x, want %x at %d", what, i, offs[i], p, damagePayloads[i], start)
			}
		}
		if l.Truncated != int64(len(damaged))-wantLen || l.Size() != wantLen {
			t.Fatalf("%s: Truncated %d, Size %d; want %d, %d", what, l.Truncated, l.Size(), int64(len(damaged))-wantLen, wantLen)
		}
		l.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != wantLen {
			t.Fatalf("%s: file left at %d bytes, want %d", what, fi.Size(), wantLen)
		}
		r, again := openAll(t, path)
		r.Close()
		if r.Truncated != 0 || len(again) != keep {
			t.Fatalf("%s: reopen cut %d bytes and kept %d frames, want 0 and %d", what, r.Truncated, len(again), keep)
		}
	}

	for cut := 0; cut <= len(clean); cut++ {
		check(fmt.Sprintf("cut at %d", cut), clean[:cut], int64(cut))
	}
	for bit := 0; bit < 8*len(clean); bit++ {
		damaged := bytes.Clone(clean)
		damaged[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), damaged, int64(bit/8))
	}

	// A lone header that claims a 1 GiB payload is cut without allocating
	// anything near what it claims.
	huge := []byte{0x54, 0x56, 0x52, 0x53, 0x40, 0x00, 0x00, 0x00, 0, 0, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	check("header claiming 1 GiB", huge, 0)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("opening a header that claims 1 GiB allocated %d bytes", grew)
	}
}

// TestLogReadAtVerifies: a frame that rots after the open is ErrCorrupt on
// read, as is an offset that is no frame's start.
func TestLogReadAtVerifies(t *testing.T) {
	clean, ends := buildLog(t, damagePayloads)
	path := filepath.Join(t.TempDir(), "rot.log")
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _ := openAll(t, path)
	defer l.Close()
	if p, err := l.ReadAt(ends[2]); err != nil || !bytes.Equal(p, damagePayloads[3]) {
		t.Fatalf("intact frame read %x, %v", p, err)
	}
	if _, err := l.ReadAt(ends[2] + 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read at a frame's second byte: %v, want ErrCorrupt", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{'X'}, ends[2]+frameHeaderLen+5); err != nil {
		t.Fatal(err)
	}
	if p, err := l.ReadAt(ends[2]); !errors.Is(err, ErrCorrupt) || p != nil {
		t.Fatalf("rotted frame read %x, %v; want no bytes and ErrCorrupt", p, err)
	}
}

// FuzzOpenLog feeds arbitrary bytes to OpenLog. It must never panic; the
// frames it keeps, appended again into a fresh log, must reproduce the kept
// prefix byte for byte; and a reopen must cut nothing.
func FuzzOpenLog(f *testing.F) {
	clean, _ := buildLog(f, damagePayloads)
	for cut := 0; cut <= len(clean); cut++ {
		f.Add(clean[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, kept := openAll(t, path)
		size := l.Size()
		l.Close()
		if size+l.Truncated != int64(len(data)) {
			t.Fatalf("kept %d and cut %d of %d bytes", size, l.Truncated, len(data))
		}

		fresh, err := createLog(filepath.Join(dir, "fresh.log"), StoreMagic)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range kept {
			if _, err := fresh.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		fresh.Close()
		rebuilt, err := os.ReadFile(filepath.Join(dir, "fresh.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt, data[:size]) {
			t.Fatalf("%d kept frames re-append to %d bytes that differ from the kept %d-byte prefix", len(kept), len(rebuilt), size)
		}

		r, again := openAll(t, path)
		r.Close()
		if r.Truncated != 0 || r.Size() != size || len(again) != len(kept) {
			t.Fatalf("reopen cut %d bytes and kept %d of %d frames", r.Truncated, len(again), len(kept))
		}
	})
}
