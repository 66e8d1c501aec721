package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkJournalAppend journals one cell line of about 900 bytes per op,
// with the journal's fsync every 64 appends.
func BenchmarkJournalAppend(b *testing.B) {
	seeds := make([]uint64, 25000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	plan, err := NewPlan(Spec{
		Benchmarks: []string{"bzip2", "mcf"},
		Schemes:    []string{"ABS", "Razor"},
		VDDs:       []float64{0.97, 1.04},
		Seeds:      seeds,
	})
	if err != nil {
		b.Fatal(err)
	}
	pad := bytes.Repeat([]byte("r"), 860)
	line := func(i int) []byte { return []byte(fmt.Sprintf(`{"index":%d,"report":"%s"}`, i, pad)) }
	dir := b.TempDir()
	var j *Journal
	reopen := func(n int) {
		if j != nil {
			j.Close()
		}
		if j, err = OpenJournal(filepath.Join(dir, fmt.Sprintf("j%d.tvcj", n)), plan); err != nil {
			b.Fatal(err)
		}
	}
	reopen(0)
	lines := make([][]byte, 1024)
	for i := range lines {
		lines[i] = line(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % plan.Total()
		if k == 0 && i > 0 {
			b.StopTimer()
			reopen(i)
			b.StartTimer()
		}
		if err := j.Append(k, ClassCold, lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	j.Close()
}
