package pipeline

import (
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/workload"
)

// TestWakeupWorkPin is the deterministic gate on the event wakeup's
// algorithmic cost, free of host noise: it counts the issue-queue entries
// the wakeup and select stages examine (wheel-slot visits, ready entries
// offered to select, consumer-chain entries woken) on real cells — prefilled
// L2, warmed up, measured at 0.97 V under ABS.
//
//   - On every benchmark, examined ≤ SumReadyCands + 3 × Dispatched: each
//     ready entry is offered once per cycle it waits, and each dispatch
//     costs at most one wheel visit and two chain visits.
//   - On mcf, whose misses keep the queue full, examined per cycle stays ≤ 2,
//     where a scan of the whole queue every cycle examines its mean
//     occupancy (~16 entries).
func TestWakeupWorkPin(t *testing.T) {
	for _, name := range workload.Names() {
		prof := mustProfile(t, name)
		gen, err := workload.NewGenerator(prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Scheme = core.ABS
		cfg.MispredictRate = prof.MispredictRate
		fc := fault.DefaultConfig(1)
		fc.Bias = prof.FaultBias
		p, err := New(cfg, gen, fault.New(fc), fault.VHighFault)
		if err != nil {
			t.Fatal(err)
		}
		p.PrefillData(gen.WarmRegion())
		if err := p.Warmup(10000); err != nil {
			t.Fatal(err)
		}
		before := p.examined
		st, err := p.Run(30000)
		if err != nil {
			t.Fatal(err)
		}
		examined := p.examined - before
		perCycle := float64(examined) / float64(st.Cycles)
		t.Logf("%-10s examined %.2f per cycle, mean IQ occupancy %.1f", name, perCycle, st.MeanIQOcc())
		if bound := st.SumReadyCands + 3*st.Dispatched; examined > bound {
			t.Errorf("%s: examined %d entries, above SumReadyCands + 3 × Dispatched = %d", name, examined, bound)
		}
		if name != "mcf" {
			continue
		}
		if perCycle > 2 {
			t.Errorf("mcf: examined %.2f entries per cycle, want ≤ 2", perCycle)
		}
		if occ := st.MeanIQOcc(); occ < 10 {
			t.Errorf("mcf: mean IQ occupancy %.1f; the pin needs the full queue a whole-queue scan would pay for", occ)
		}
	}
}
