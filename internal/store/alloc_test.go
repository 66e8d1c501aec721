//go:build !race

package store

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestLogAppendAllocs pins that appending a frame allocates nothing: the
// frame is built in a buffer the log reuses.
func TestLogAppendAllocs(t *testing.T) {
	l, err := createLog(filepath.Join(t.TempDir(), "append.log"), StoreMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("p"), 1000)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Log.Append allocated %.1f times per frame, want 0", allocs)
	}
}
