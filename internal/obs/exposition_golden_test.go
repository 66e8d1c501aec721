package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tvsched/internal/isa"
	"tvsched/internal/obs"
	"tvsched/internal/obs/span"
)

// goldenSources builds one populated source of every kind the exposition
// renders: a pipeline Metrics registry and a CPIStack fed the same event
// stream, a ServeMetrics touching every serving family, and a span tracer
// with fixed child durations.
func goldenSources() (*obs.Metrics, *obs.CPIStack, *obs.ServeMetrics, *span.Tracer) {
	m := obs.NewMetrics()
	s := obs.NewCPIStack(obs.CPIStackConfig{})
	for i := uint64(1); i <= 120; i++ {
		evs := []obs.Event{
			{Kind: obs.KindFetch, Cycle: i, PC: i % 16, A: i % 11 / 10, B: i % 7 / 6},
			{Kind: obs.KindIssue, Cycle: i, PC: i % 16, Class: isa.Load, A: i + 30, B: i + 31, C: 1 + 27*(i%13/12)},
		}
		if i%4 != 0 {
			evs = append(evs, obs.Event{Kind: obs.KindRetire, Cycle: i, PC: i % 16, A: i - 1})
		}
		if i%3 == 0 && i/40 != 1 { // two bursts, the second still open
			evs = append(evs, obs.Event{Kind: obs.KindViolationPredicted, Stage: isa.Execute,
				Cycle: i, PC: i % 16, A: i % 2, B: obs.RespConfined})
		}
		if i%17 == 0 {
			evs = append(evs, obs.Event{Kind: obs.KindViolationActual, Stage: isa.Memory, Cycle: i, PC: i % 16},
				obs.Event{Kind: obs.KindReplay, Stage: isa.Memory, Cycle: i, PC: i % 16, A: 2, B: 5})
		}
		if i%5 == 0 {
			evs = append(evs, obs.Event{Kind: obs.KindSample, Cycle: i, A: i % 32, B: i % 128},
				obs.Event{Kind: obs.KindDelayedBroadcast, Cycle: i, PC: i % 16, A: i % 4},
				obs.Event{Kind: obs.KindDispatchStall, Cycle: i, A: obs.DispatchStallIQ, B: 2})
		}
		for _, e := range evs {
			m.Event(e)
			s.Event(e)
		}
	}

	sm := obs.NewServeMetrics()
	for o := obs.ServeOutcome(0); o < obs.NumServeOutcomes; o++ {
		for n := 0; n <= int(o); n++ {
			sm.Outcome(o)
		}
	}
	sm.SetQueue(3, 2)
	for _, us := range []uint64{0, 90, 1500, 1500} {
		sm.ObserveRequest(obs.RouteRun, obs.ServeHit, us)
	}
	sm.ObserveRequest(obs.RouteSweep, obs.ServeMiss, 250000)
	sm.ObserveRequest(obs.RouteCampaign, obs.ServeMiss, 1200000)
	sm.ObserveRun(250000)
	sm.ObserveRun(1200000)
	sm.PeerOp("b", obs.PeerForward)
	sm.PeerOp("b", obs.PeerForward)
	sm.PeerOp("b", obs.PeerFetchHit)
	sm.PeerOp("a", obs.PeerCheckOK)
	sm.BreakerTransition("b", "open")
	sm.BreakerTransition("b", "half_open")
	sm.BreakerTransition("b", "closed")
	sm.BreakerTransition("a", "open")
	sm.CampaignEvent(obs.CampaignStarted)
	sm.CampaignEvent(obs.CampaignSuspended)
	sm.CampaignEvent(obs.CampaignResumed)
	sm.CampaignEvent(obs.CampaignCompleted)
	sm.CampaignCell("restored")
	sm.CampaignCell("restored")
	sm.CampaignCell("cold")
	sm.CampaignCell("hit")
	sm.AddCampaignsActive(1)
	sm.StoreOp(obs.StoreHit)
	sm.StoreOp(obs.StoreMiss)
	sm.StoreOp(obs.StorePut)
	sm.StoreOp(obs.StorePut)
	sm.SetStoreSize(7, 4096)
	sm.WarmState(obs.WarmMemo)
	sm.WarmState(obs.WarmStore)
	sm.WarmState(obs.WarmStore)
	sm.WarmState(obs.WarmDonor)

	tr := span.NewTracer(16)
	root := tr.StartRoot("run", span.Context{})
	for _, d := range []time.Duration{3 * time.Millisecond, 40 * time.Millisecond} {
		root.RecordChild("simulate", d)
	}
	root.RecordChild("admission", 12*time.Microsecond)
	root.RecordChild("snapshot_restore", 0)
	return m, s, sm, tr
}

// TestExpositionGolden pins the exact exposition bytes of all 28 families:
// the pipeline registry, the CPI stack, every serving family, and the span
// durations, in that order.
func TestExpositionGolden(t *testing.T) {
	m, s, sm, tr := goldenSources()
	e := obs.NewExposition("tvsched", m, s, sm, tr)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if f := flag.Lookup("update-golden"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update-golden to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file (rerun with -update-golden if intended)\ngot:\n%s", buf.Bytes())
	}
	if n := bytes.Count(want, []byte("# TYPE ")); n != 28 {
		t.Fatalf("golden holds %d families, want 28", n)
	}
}
