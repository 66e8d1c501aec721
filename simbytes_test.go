package tvsched_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tvsched"
	"tvsched/internal/core"
	"tvsched/internal/experiments"
	"tvsched/internal/obs"
	"tvsched/internal/pipeline"
	"tvsched/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// simBytesGolden holds one "<name> <sha256>" line per pinned artifact.
var simBytesGolden = filepath.Join("testdata", "simbytes.golden")

// simBytes is the run-report/v1, snapshot and event byte stream this file
// pins.
type simBytes struct {
	names   []string
	digests map[string]string
}

func (d *simBytes) add(t *testing.T, name string, b []byte) {
	t.Helper()
	sum := sha256.Sum256(b)
	d.addSum(t, name, sum[:])
}

// addSum records an artifact that was hashed as it streamed by.
func (d *simBytes) addSum(t *testing.T, name string, sum []byte) {
	t.Helper()
	if _, dup := d.digests[name]; dup {
		t.Fatalf("duplicate golden entry %q", name)
	}
	d.names = append(d.names, name)
	d.digests[name] = hex.EncodeToString(sum)
}

// TestSimulatedBytesGolden pins the simulated bytes of every path a speed-only
// change can silently perturb, across commits rather than within one:
//
//   - run-report/v1 of every bundled benchmark × scheme at 0.97 V, once
//     cold (WarmupNeutral) and once restored from that benchmark's donor
//     snapshot;
//   - each donor's snapshot bytes (cache, predictor, TEP, thermal and
//     workload state at the warm boundary);
//   - one legacy Warmup cell (warm state at the faulty supply) and one asm
//     session (no L2 prefill, custom fault bias);
//   - a storm report over every hazard scenario, which drives the fault
//     model's TailScale and Delay perturbations and the supervisor;
//   - the observer event stream (SHA-256 over every field of every Event,
//     warmup included) of EP, Razor and CDS cells at 0.97 V and of
//     FullFlushReplay cells, which no report prints: issue-time wakeup
//     and completion cycles, slot freezes, stall causes and flushes.
//
// A mismatch means simulated behaviour changed. That is never a side effect
// of an optimization; regenerate with -update-golden only for a deliberate
// model change.
func TestSimulatedBytesGolden(t *testing.T) {
	got := collectSimBytes(t)
	if *updateGolden {
		var b bytes.Buffer
		for _, n := range got.names {
			fmt.Fprintf(&b, "%s %s\n", n, got.digests[n])
		}
		if err := os.WriteFile(simBytesGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(simBytesGolden)
	if err != nil {
		t.Fatalf("%v (rerun with -update-golden to regenerate)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range got.names {
		switch w, ok := want[n]; {
		case !ok:
			t.Errorf("%s: not in the golden file", n)
		case w != got.digests[n]:
			t.Errorf("%s: simulated bytes drifted (sha256 %s, golden %s)", n, got.digests[n], w)
		}
	}
	if len(want) != len(got.names) {
		t.Errorf("golden file has %d entries, the test produced %d", len(want), len(got.names))
	}
}

func collectSimBytes(t *testing.T) *simBytes {
	ctx := context.Background()
	d := &simBytes{digests: map[string]string{}}
	schemes := []tvsched.Scheme{tvsched.Razor, tvsched.EP, tvsched.ABS, tvsched.FFS, tvsched.CDS}
	report := func(name string, s *tvsched.Session) {
		t.Helper()
		res, err := s.Run(ctx, tvsched.RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := experiments.RunReportJSON("simbytes", s.Config(), res)
		if err != nil {
			t.Fatal(err)
		}
		d.add(t, name, b)
	}
	session := func(cfg tvsched.Config) *tvsched.Session {
		t.Helper()
		s, err := tvsched.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, bench := range tvsched.Benchmarks() {
		base := tvsched.Config{Benchmark: bench, VDD: tvsched.VHighFault,
			Instructions: 2000, Warmup: 2000, Seed: 1}
		donor := session(base)
		if err := donor.WarmupNeutral(ctx); err != nil {
			t.Fatal(err)
		}
		snap, err := donor.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		d.add(t, "snapshot/"+bench, snap.Data)
		for _, sch := range schemes {
			cfg := base
			cfg.Scheme = sch
			cold := session(cfg)
			if err := cold.WarmupNeutral(ctx); err != nil {
				t.Fatal(err)
			}
			report(fmt.Sprintf("cold/%s/%s", bench, sch), cold)
			restored := session(cfg)
			if err := restored.Restore(snap); err != nil {
				t.Fatal(err)
			}
			report(fmt.Sprintf("restored/%s/%s", bench, sch), restored)
		}
	}

	legacy := session(tvsched.Config{Benchmark: "sjeng", Scheme: tvsched.CDS,
		VDD: tvsched.VHighFault, Instructions: 4000, Warmup: 4000, Seed: 3})
	if err := legacy.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	report("legacy-warmup/sjeng/CDS", legacy)

	const kernel = `
    li   r1, 0x10000
    li   r2, 0
    li   r3, 4096
loop:
    ld   r4, 0(r1)
    addi r4, r4, 1
    st   r4, 0(r1)
    addi r1, r1, 8
    addi r2, r2, 1
    blt  r2, r3, loop
    halt
`
	asmSess, err := tvsched.NewAsmSession(tvsched.Config{Scheme: tvsched.ABS,
		VDD: tvsched.VHighFault, Instructions: 4000, Warmup: 2000, FaultBias: 40}, kernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := asmSess.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	report("asm/ABS", asmSess)

	sc := experiments.DefaultStormConfig()
	sc.Insts, sc.Warmup = 4000, 500
	sc.Policy.Window = 1000
	sc.Parallel = false
	rep, err := experiments.RunStorm(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	var escalated, died int
	for _, c := range rep.Cells {
		if c.Supervised.Escalations > 0 {
			escalated++
		}
		if !c.Unsupervised.Survived {
			died++
		}
	}
	if escalated == 0 || died == 0 {
		t.Fatalf("storm too mild to cover the supervisor: %d escalated, %d died", escalated, died)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	d.add(t, "storm/"+sc.Bench, blob)

	for _, c := range []struct {
		bench  string
		scheme core.Scheme
		flush  bool
	}{
		{"mcf", core.EP, false},
		{"mcf", core.Razor, false},
		{"mcf", core.CDS, false},
		{"bzip2", core.EP, false},
		{"bzip2", core.Razor, false},
		{"bzip2", core.CDS, false},
		{"mcf", core.Razor, true},
		{"mcf", core.EP, true},
		{"bzip2", core.CDS, true},
	} {
		name := fmt.Sprintf("events/%s/%s", c.bench, c.scheme)
		if c.flush {
			name = fmt.Sprintf("events-flush/%s/%s", c.bench, c.scheme)
		}
		d.addSum(t, name, eventStream(t, c.bench, c.scheme, c.flush))
	}
	return d
}

// eventStream runs a legacy-Warmup cell at 0.97 V (warm state built at the
// faulty supply, so warmup violates too) with an observer attached from
// construction, and returns the SHA-256 of every field of every event.
func eventStream(t *testing.T, bench string, scheme core.Scheme, flush bool) []byte {
	t.Helper()
	h := sha256.New()
	var buf [53]byte // kind, stage, class, lane, then six uint64 fields
	o := obs.ObserverFunc(func(e obs.Event) {
		b := buf[:0]
		b = append(b, byte(e.Kind), byte(e.Stage), byte(e.Class))
		b = binary.LittleEndian.AppendUint16(b, uint16(e.Lane))
		for _, v := range [...]uint64{e.Cycle, e.Seq, e.PC, e.A, e.B, e.C} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		h.Write(b)
	})
	mc := pipeline.DefaultConfig()
	mc.FullFlushReplay = flush
	s, err := sim.New(sim.Config{Benchmark: bench, Scheme: scheme, VDD: tvsched.VHighFault,
		Warmup: 2000, Seed: 1, Observer: o, Machine: &mc})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 4000); err != nil {
		t.Fatal(err)
	}
	return h.Sum(nil)
}
