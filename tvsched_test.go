package tvsched

import (
	"context"
	"errors"
	"testing"
	"time"

	"tvsched/internal/energy"
	"tvsched/internal/pipeline"
)

// simulate runs one cell through the Session lifecycle: build, warm up at
// the cell's own operating point, measure.
func simulate(ctx context.Context, cfg Config) (Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return Result{}, err
	}
	return measure(ctx, s)
}

// measure warms a freshly built session up and runs its measured phase.
func measure(ctx context.Context, s *Session) (Result, error) {
	if err := s.Warmup(ctx); err != nil {
		return Result{}, err
	}
	return s.Run(ctx, RunOpts{})
}

func mustSimulate(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSentinelErrors(t *testing.T) {
	if _, err := NewSession(Config{Benchmark: "nope", Instructions: 1000}); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark not matchable: %v", err)
	}
	if _, err := ParseScheme("nope"); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme not matchable: %v", err)
	}
	// ErrBadConfig is the same sentinel the machine-configuration layer
	// wraps, so machine-geometry errors are matchable at the facade.
	bad := pipeline.DefaultConfig()
	bad.Width = 0
	if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config not matchable: %v", err)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := simulate(ctx, Config{Instructions: 500000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled run took %v", d)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := simulate(ctx, Config{Benchmark: "sjeng", Instructions: 50_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run deadline: %v", err)
	}
	// The hot loop polls every 1024 cycles, so cancellation must land well
	// before a 50M-instruction run could finish.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestConfigObserverSeesRetires(t *testing.T) {
	var retires, violations uint64
	cfg := Config{
		Benchmark:    "sjeng",
		Scheme:       ABS,
		VDD:          VHighFault,
		Instructions: 30000,
		Warmup:       5000,
		Observer: ObserverFunc(func(e Event) {
			switch e.Kind {
			case EventRetire:
				retires++
			case EventViolationPredicted, EventViolationActual:
				violations++
			}
		}),
	}
	res := mustSimulate(t, cfg)
	// The observer is attached for warmup and the measured phase; commit
	// width lets each phase overshoot its target by a few instructions.
	total := cfg.Warmup + cfg.Instructions
	if retires < total || retires > total+16 {
		t.Fatalf("retire events %d for %d simulated instructions", retires, total)
	}
	if retires < res.Stats.Committed {
		t.Fatalf("retire events %d below committed %d", retires, res.Stats.Committed)
	}
	if violations == 0 {
		t.Fatal("no violation events at 0.97V")
	}
}

func TestCompareRespectsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison is slow in -short mode")
	}
	ipc := func(seed uint64) float64 {
		return mustSimulate(t, Config{Benchmark: "bzip2", Scheme: ABS, VDD: VHighFault, Instructions: 40000, Seed: seed}).IPC
	}
	a, b, c := ipc(3), ipc(3), ipc(7)
	if a != b {
		t.Fatalf("same seed, different IPC: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("seed ignored: IPC %v for both seeds", a)
	}
}

func TestRunDefaults(t *testing.T) {
	res := mustSimulate(t, Config{Instructions: 30000})
	if res.IPC <= 0 {
		t.Fatal("no progress")
	}
	if res.FaultRate != 0 {
		t.Fatal("defaults must be fault-free (nominal voltage)")
	}
	if res.Energy.TotalPJ() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestRunFaultyEnvironment(t *testing.T) {
	res := mustSimulate(t, Config{
		Benchmark:    "sjeng",
		Scheme:       FFS,
		VDD:          VHighFault,
		Instructions: 40000,
	})
	if res.FaultRate <= 0.02 || res.FaultRate > 0.15 {
		t.Fatalf("fault rate %v outside the 0.97V band", res.FaultRate)
	}
	if res.Coverage < 0.7 {
		t.Fatalf("TEP coverage %v too low", res.Coverage)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := simulate(context.Background(), Config{Benchmark: "nope", Instructions: 1000}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestParseScheme(t *testing.T) {
	s, err := ParseScheme("CDS")
	if err != nil || s != CDS {
		t.Fatalf("ParseScheme: %v %v", s, err)
	}
	if _, err := ParseScheme("zzz"); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 12 {
		t.Fatalf("12 benchmarks expected, got %d", len(bs))
	}
}

// TestCompareOrdering runs one session per scheme beside a fault-free one
// and checks the overheads order as the paper's Table 1 does.
func TestCompareOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison is slow in -short mode")
	}
	cfg := Config{Benchmark: "bzip2", Scheme: ABS, VDD: VNominal, Instructions: 60000}
	base := mustSimulate(t, cfg)
	type overheads struct{ perf, ed float64 }
	ov := map[Scheme]overheads{}
	for _, sch := range []Scheme{Razor, EP, ABS} {
		cfg.Scheme, cfg.VDD = sch, VHighFault
		r := mustSimulate(t, cfg)
		ov[sch] = overheads{max(0, base.IPC/r.IPC-1), max(0, energy.Overhead(r.Energy, base.Energy))}
	}
	razor, ep, abs := ov[Razor], ov[EP], ov[ABS]
	if !(razor.perf > ep.perf && ep.perf > abs.perf) {
		t.Fatalf("overhead ordering broken: razor=%v ep=%v abs=%v", razor.perf, ep.perf, abs.perf)
	}
	// The paper's headline: the proposed scheme eliminates most of the EP
	// baseline's overhead.
	if abs.perf > ep.perf*0.5 {
		t.Fatalf("ABS %v not well below EP %v", abs.perf, ep.perf)
	}
	if abs.ed > ep.ed*0.6 {
		t.Fatalf("ABS ED %v not well below EP ED %v", abs.ed, ep.ed)
	}
}

func TestRunProfileCustomWorkload(t *testing.T) {
	prof, ok := Profile("bzip2")
	if !ok {
		t.Fatal("bundled profile missing")
	}
	// Derive a more memory-bound variant of bzip2.
	prof.Name = "bzip2-membound"
	prof.DRAMRate = 0.02
	s, err := NewProfileSession(Config{
		Scheme: ABS, VDD: VHighFault, Instructions: 30000,
	}, prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	base := mustSimulate(t, Config{
		Benchmark: "bzip2", Scheme: ABS, VDD: VHighFault, Instructions: 30000,
	})
	if res.IPC >= base.IPC {
		t.Fatalf("memory-bound variant IPC %v not below baseline %v", res.IPC, base.IPC)
	}
}

func TestRunProfileInvalid(t *testing.T) {
	var bad WorkloadProfile // zero profile fails validation
	if _, err := NewProfileSession(Config{Instructions: 100}, bad); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestRunAsmKernel(t *testing.T) {
	const kernel = `
    li   r1, 0x10000    ; base
    li   r2, 0          ; i
    li   r3, 4096       ; n
loop:
    ld   r4, 0(r1)
    addi r4, r4, 1
    st   r4, 0(r1)
    addi r1, r1, 8
    addi r2, r2, 1
    blt  r2, r3, loop
    halt
`
	s, err := NewAsmSession(Config{
		Scheme: ABS, VDD: VHighFault, Instructions: 20000, Warmup: 5000,
	}, kernel, func(m *AsmMachine) {
		m.SetReg(9, 7) // exercise the init hook
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Stats.Committed != 20000 {
		t.Fatalf("kernel run degenerate: %+v", res.Stats.Committed)
	}
	if res.FaultRate == 0 {
		t.Fatal("no faults at 0.97V")
	}
}

func TestRunAsmSyntaxError(t *testing.T) {
	if _, err := NewAsmSession(Config{Instructions: 10}, "frobnicate r1", nil); err == nil {
		t.Fatal("bad kernel accepted")
	}
}
