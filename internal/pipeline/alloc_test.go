//go:build !race

package pipeline

import (
	"testing"

	"tvsched/internal/fault"
	"tvsched/internal/workload"
)

// TestCycleLoopZeroAlloc pins the observer-off steady-state cycle loop at
// zero heap allocations per run: dynInst records recycle through the arena,
// the front-end ring never reallocates, and select/issue use no closures.
// Guarded by !race because the race runtime changes allocation behaviour.
//
// The caches build a set the first time something reaches it, from the
// prefill rule in the L2, so a window this short can still reach a set the
// warmup did not (bzip2 and mcf each do). One probe per L2 set builds them
// all before the window — a probe changes no set and counts nothing —
// so the window reads an exact 0, not one that AllocsPerRun's rounding hides.
func TestCycleLoopZeroAlloc(t *testing.T) {
	for _, bench := range []string{"bzip2", "mcf"} {
		prof, err := workload.Lookup(bench)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewGenerator(prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MispredictRate = prof.MispredictRate
		cfg.Seed = 42
		fcfg := fault.DefaultConfig(42)
		fcfg.Bias = prof.FaultBias
		p, err := New(cfg, gen, fault.New(fcfg), fault.VHighFault)
		if err != nil {
			t.Fatal(err)
		}
		p.PrefillData(gen.WarmRegion())
		// Reach steady state: caches, predictor, TEP and the store-forwarding
		// CAM are all warm, so the measured window exercises only the
		// recycled fast path.
		if err := p.Warmup(30000); err != nil {
			t.Fatal(err)
		}
		l2 := p.hier.L2
		for i := range l2.NumSets() {
			l2.Probe(uint64(i * l2.Config().LineBytes))
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := p.Run(2000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state cycle loop allocates: %.1f allocs per 2000-instruction run, want 0", bench, allocs)
		}
	}
}
