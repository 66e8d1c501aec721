package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tvsched/internal/rng"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// statsGolden holds one "<case index> <sha256>" line per case of the CI sweep.
var statsGolden = filepath.Join("testdata", "stats.golden")

// The CI sweep's parameters: `tvfuzz -n 200 -seed 1` at the default -insts.
const (
	goldenCases = 200
	goldenSeed  = 1
	goldenInsts = 6000
)

// TestStatsGolden pins the full pipeline.Stats of every case of the CI sweep
// across commits. The fuzzer's own checks compare a run with itself (the
// determinism rerun) or with invariants, so a speed-only change that moves a
// counter no run report prints — SumReadyCands, CriticalMarks, SlotFreezes,
// SquashedInsts — passes them all. This pin does not: each case is built as
// runCase's determinism rerun builds it (Debug off, no observer) and the
// SHA-256 of its Stats must match the golden line for its index.
//
// A mismatch means simulated behaviour changed; regenerate with
// -update-golden only for a deliberate model change.
func TestStatsGolden(t *testing.T) {
	got := make([]string, goldenCases)
	errs := make([]error, goldenCases)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				got[i], errs[i] = caseDigest(i)
			}
		}()
	}
	for i := 0; i < goldenCases; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}

	if *updateGolden {
		var b bytes.Buffer
		for i, sum := range got {
			fmt.Fprintf(&b, "%d %s\n", i, sum)
		}
		if err := os.WriteFile(statsGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(statsGolden)
	if err != nil {
		t.Fatalf("%v (rerun with -update-golden to regenerate)", err)
	}
	defer f.Close()
	want := map[int]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n, sum, ok := strings.Cut(sc.Text(), " ")
		i, err := strconv.Atoi(n)
		if !ok || err != nil {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[i] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != goldenCases {
		t.Errorf("golden file has %d entries, the sweep has %d cases", len(want), goldenCases)
	}
	for i, sum := range got {
		if w, ok := want[i]; !ok {
			t.Errorf("case %d: not in the golden file", i)
		} else if w != sum {
			t.Errorf("case %d: Stats drifted (sha256 %s, golden %s); reproduce with tvfuzz -seed %d -only %d -v",
				i, sum, w, goldenSeed, i)
		}
	}
}

// caseDigest runs case i of the CI sweep and hashes its Stats.
func caseDigest(i int) (string, error) {
	spec := randomCase(rng.New(goldenSeed).Derive(uint64(i)), goldenInsts)
	p, err := build(spec, false, nil)
	if err != nil {
		return "", err
	}
	st, err := execute(p, spec, nil)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", st)))
	return hex.EncodeToString(sum[:]), nil
}
