package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tvsched/internal/isa"
	"tvsched/internal/rng"
	"tvsched/internal/snap"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// streamGolden holds one "<case> <sha256>" line per pinned generator.
var streamGolden = filepath.Join("testdata", "stream.golden")

// goldenInsts is the stream prefix each golden case hashes.
const goldenInsts = 200_000

// streamCase is one (profile, seed) the stream golden pins.
type streamCase struct {
	name string
	prof Profile
	seed uint64
}

// streamCases lists every bundled profile at seeds 1–3 and 50 random
// profiles (the fuzzer's workload space), each at its own seed.
func streamCases() []streamCase {
	var cs []streamCase
	for _, p := range SPEC2006() {
		for seed := uint64(1); seed <= 3; seed++ {
			cs = append(cs, streamCase{fmt.Sprintf("%s/%d", p.Name, seed), p, seed})
		}
	}
	r := rng.New(19)
	for i := 0; i < 50; i++ {
		p := RandomProfile(r)
		cs = append(cs, streamCase{fmt.Sprintf("%s/%d", p.Name, i+1), p, uint64(i + 1)})
	}
	return cs
}

// streamHasher folds instructions, every isa.Inst field, into a SHA-256.
type streamHasher struct {
	buf []byte
}

func (h *streamHasher) add(in isa.Inst) {
	b := h.buf
	b = binary.LittleEndian.AppendUint64(b, in.PC)
	b = append(b, byte(in.Class), byte(in.Dest), byte(in.Src1), byte(in.Src2))
	b = binary.LittleEndian.AppendUint64(b, in.Addr)
	if in.Taken {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, in.Target)
	h.buf = binary.LittleEndian.AppendUint64(b, in.NextPC)
}

// sum appends the generator's AppendState bytes and returns the digest.
func (h *streamHasher) sum(g *Generator) string {
	var w snap.Writer
	g.AppendState(&w)
	s := sha256.Sum256(append(h.buf, w.B...))
	return hex.EncodeToString(s[:])
}

// streamDigest hashes the first n instructions of g and then its state.
func streamDigest(g *Generator, n int) string {
	h := &streamHasher{buf: make([]byte, 0, n*37)}
	for i := 0; i < n; i++ {
		h.add(g.Next())
	}
	return h.sum(g)
}

// loadStreamGolden reads the golden file.
func loadStreamGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(streamGolden)
	if err != nil {
		t.Fatalf("%v (rerun with -update-golden to regenerate)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[n] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestStreamGolden pins, across commits, the first 200k instructions (every
// isa.Inst field) and then the snapshot state of every bundled profile at
// seeds 1–3 and of 50 random profiles. A mismatch means the generated
// workload changed, which moves every simulated byte downstream; regenerate
// with -update-golden only for a deliberate model change.
func TestStreamGolden(t *testing.T) {
	cases := streamCases()
	names := make([]string, len(cases))
	got := map[string]string{}
	for i, c := range cases {
		g, err := NewGenerator(c.prof, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		names[i] = c.name
		got[c.name] = streamDigest(g, goldenInsts)
	}
	if *updateGolden {
		var b bytes.Buffer
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(streamGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadStreamGolden(t)
	if len(want) != len(names) {
		t.Errorf("golden file has %d entries, the test has %d cases", len(want), len(names))
	}
	for _, n := range names {
		if w, ok := want[n]; !ok {
			t.Errorf("%s: not in the golden file", n)
		} else if w != got[n] {
			t.Errorf("%s: stream drifted (sha256 %s, golden %s)", n, got[n], w)
		}
	}
}

// TestSharedProgramStreamsGolden walks two generators over one Program,
// stepping them alternately in uneven strides, and requires each to produce
// its golden stream: a generator's walk never writes the program, so
// generators sharing one cannot see each other. Every PC must also be a
// program index, CodeBase+4i with i below the footprint — the range a fault
// model's tail-mask table covers.
func TestSharedProgramStreamsGolden(t *testing.T) {
	if *updateGolden {
		t.Skip("the golden file is being rewritten")
	}
	// Every bundled profile at seed 1, and the first ten random profiles.
	all := streamCases()
	var cases []streamCase
	for i := 0; i < 36; i += 3 {
		cases = append(cases, all[i])
	}
	cases = append(cases, all[36:46]...)
	want := loadStreamGolden(t)
	for _, c := range cases {
		prog, err := NewProgram(c.prof, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		end := pcOf(prog.StaticFootprint())
		gens := [2]*Generator{prog.NewGenerator(), prog.NewGenerator()}
		hs := [2]*streamHasher{{buf: make([]byte, 0, goldenInsts*37)}, {buf: make([]byte, 0, goldenInsts*37)}}
		for step, done := 0, [2]int{}; done[0] < goldenInsts || done[1] < goldenInsts; step++ {
			for k, g := range gens {
				for n := 1 + (step+3*k)%7; n > 0 && done[k] < goldenInsts; n-- {
					in := g.Next()
					if in.PC < CodeBase || in.PC >= end || in.PC%4 != 0 {
						t.Fatalf("%s: PC %#x outside the program's [%#x, %#x)", c.name, in.PC, CodeBase, end)
					}
					hs[k].add(in)
					done[k]++
				}
			}
		}
		for k, g := range gens {
			if got := hs[k].sum(g); got != want[c.name] {
				t.Errorf("%s: generator %d of a shared program drifted (sha256 %s, golden %s)", c.name, k, got, want[c.name])
			}
		}
	}
}
