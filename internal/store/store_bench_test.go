package store

import (
	"bytes"
	"fmt"
	"testing"
)

// The store benchmarks use result-sized records: a 64-hex-digit digest and
// a 900-byte body.
var benchBody = bytes.Repeat([]byte("b"), 900)

func benchKey(i int) string { return fmt.Sprintf("%064x", i) }

// BenchmarkStorePut appends and fsyncs one new record per op.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(benchKey(i), benchBody); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet reads and verifies one of 1,000 records per op.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 1000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = benchKey(i)
		if err := s.Put(keys[i], benchBody); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(keys[i%n]); !ok || err != nil {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStoreOpen rebuilds the index of a 2,000-record log per op.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := s.Put(benchKey(i), benchBody); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, 0)
		if err != nil || r.Len() != 2000 {
			b.Fatalf("open: len %d, err %v", r.Len(), err)
		}
		r.Close()
	}
}
