package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tvsched/internal/isa"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.Contains(s, "?") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 1, 3, 8, 1 << 40} {
		h.Observe(v)
	}
	if h.Count != 6 {
		t.Fatalf("count %d", h.Count)
	}
	if h.Buckets[0] != 1 { // the zero
		t.Fatalf("zero bucket %d", h.Buckets[0])
	}
	if h.Buckets[1] != 2 { // the ones
		t.Fatalf("ones bucket %d", h.Buckets[1])
	}
	if h.Buckets[len(h.Buckets)-1] != 1 { // the huge value lands in the open bucket
		t.Fatalf("open bucket %d", h.Buckets[len(h.Buckets)-1])
	}
	if h.Mean() == 0 {
		t.Fatal("mean not computed")
	}
	if !strings.Contains(h.String(), "n=6") {
		t.Fatalf("String: %s", h.String())
	}
}

func TestMetricsAccounting(t *testing.T) {
	m := NewMetrics()
	m.Event(Event{Kind: KindIssue, Cycle: 10})
	m.Event(Event{Kind: KindViolationPredicted, Stage: isa.Execute, Cycle: 11, A: 1})
	m.Event(Event{Kind: KindViolationPredicted, Stage: isa.Execute, Cycle: 12, A: 0})
	m.Event(Event{Kind: KindViolationActual, Stage: isa.Memory, Cycle: 100})
	m.Event(Event{Kind: KindSample, Cycle: 64, A: 12, B: 40})
	m.Event(Event{Kind: KindDelayedBroadcast, Cycle: 13, A: 1})

	if got := m.Count(KindIssue); got != 1 {
		t.Fatalf("issue count %d", got)
	}
	viol := m.ViolationsByStage()
	if viol[isa.Execute] != 2 || viol[isa.Memory] != 1 {
		t.Fatalf("violations by stage %v", viol)
	}
	tp, fp := m.Accuracy()
	if tp != 1 || fp != 1 {
		t.Fatalf("accuracy %d/%d", tp, fp)
	}
	if m.IQOccupancy().Count != 1 || m.ROBOccupancy().Count != 1 {
		t.Fatal("occupancy histograms not fed")
	}
	if m.BroadcastDelays().Sum != 1 {
		t.Fatal("broadcast delay not fed")
	}
	// Two violations 1 cycle apart form one burst of 2; the third, 88
	// cycles later, opens a new burst (still open, counted by FaultBursts).
	bursts := m.FaultBursts()
	if bursts.Count != 2 {
		t.Fatalf("burst count %d (%s)", bursts.Count, bursts.String())
	}
	if bursts.Sum != 3 {
		t.Fatalf("burst sum %d", bursts.Sum)
	}
	if !strings.Contains(m.Summary(), "violation-predicted") {
		t.Fatalf("summary missing counters:\n%s", m.Summary())
	}
}

// TestMetricsShardEquivalence feeds one event stream to a registry
// directly and, split in two, to two shards of another registry. A fault
// burst is still open at the split, so the first shard's Flush must close
// it exactly as the direct registry does when the next violation arrives
// more than burstGap cycles later. Both registries must render the same
// bytes.
func TestMetricsShardEquivalence(t *testing.T) {
	var evs []Event
	for i := uint64(1); i <= 400; i++ {
		evs = append(evs, Event{Kind: KindRetire, Cycle: i})
		if i%4 == 0 && i%200 < 60 {
			evs = append(evs, Event{Kind: KindViolationPredicted, Stage: isa.Execute, Cycle: i, A: i % 8 / 4})
		}
		if i%25 == 0 {
			evs = append(evs, Event{Kind: KindViolationActual, Stage: isa.Memory, Cycle: i},
				Event{Kind: KindSample, Cycle: i, A: i % 32, B: i % 96},
				Event{Kind: KindDelayedBroadcast, Cycle: i, A: i % 5})
		}
	}
	split := 0
	for split < len(evs) && evs[split].Cycle <= 100 {
		split++
	}

	direct := NewMetrics()
	for _, e := range evs {
		direct.Event(e)
	}
	sharded := NewMetrics()
	s1, s2 := sharded.Shard(), sharded.Shard()
	for _, e := range evs[:split] {
		s1.Event(e)
	}
	if s1.(*MetricsShard).acc.burstLen == 0 {
		t.Fatal("no fault burst open at the split")
	}
	for _, e := range evs[split:] {
		s2.Event(e)
	}
	s1.Flush()
	s2.Flush()

	render := func(m *Metrics) string {
		var b strings.Builder
		if _, err := NewExposition("t", m).WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(direct), render(sharded); a != b {
		t.Fatalf("sharded registry renders differently\ndirect:\n%s\nsharded:\n%s", a, b)
	}
	if direct.FaultBursts().Count < 3 {
		t.Fatalf("stream holds %d fault bursts, want several", direct.FaultBursts().Count)
	}
}

func TestMultiObserver(t *testing.T) {
	var a, b int
	oa := ObserverFunc(func(Event) { a++ })
	ob := ObserverFunc(func(Event) { b++ })
	if Multi(nil, nil) != nil {
		t.Fatal("all-nil Multi must be nil")
	}
	m := Multi(oa, nil, ob)
	m.Event(Event{Kind: KindFetch})
	m.Event(Event{Kind: KindRetire})
	if a != 2 || b != 2 {
		t.Fatalf("fan-out broken: %d %d", a, b)
	}
}

// perfettoShape is the subset of the trace-event format Perfetto requires:
// a traceEvents array whose records carry name/ph/ts/pid/tid.
type perfettoShape struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

func TestChromeTracerOutput(t *testing.T) {
	tr := NewChromeTracer()
	tr.Event(Event{Kind: KindIssue, Cycle: 5, Seq: 1, PC: 0x40, Class: isa.IntALU, Lane: 2, A: 7, B: 9})
	tr.Event(Event{Kind: KindViolationPredicted, Cycle: 6, Seq: 1, Stage: isa.Execute, A: 1})
	tr.Event(Event{Kind: KindViolationActual, Cycle: 7, Seq: 2, Stage: isa.Memory})
	tr.Event(Event{Kind: KindReplay, Cycle: 8, Seq: 2, Stage: isa.Memory, A: 3})
	tr.Event(Event{Kind: KindSample, Cycle: 64, A: 10, B: 50})
	tr.Event(Event{Kind: KindRetire, Cycle: 12, Seq: 1, PC: 0x40, Class: isa.IntALU})
	tr.Event(Event{Kind: KindFetch, Cycle: 1}) // dropped by default Keep

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var shape perfettoShape
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	kinds := map[string]int{}
	for _, e := range shape.TraceEvents {
		switch e.Ph {
		case "X", "i", "C", "M":
		default:
			t.Fatalf("unknown phase %q", e.Ph)
		}
		kinds[e.Ph]++
	}
	if kinds["X"] != 1 || kinds["C"] != 1 || kinds["M"] == 0 {
		t.Fatalf("event phases %v", kinds)
	}
	if kinds["i"] != 4 { // predicted, actual, replay, retire
		t.Fatalf("instants %d", kinds["i"])
	}
	if strings.Contains(buf.String(), `"fetch"`) {
		t.Fatal("Keep filter ignored")
	}
}

func TestChromeTracerLimit(t *testing.T) {
	tr := NewChromeTracer()
	tr.limit = 3
	for i := 0; i < 10; i++ {
		tr.Event(Event{Kind: KindRetire, Cycle: uint64(i)})
	}
	if d := tr.Dropped(); d != 7 {
		t.Fatalf("dropped %d", d)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var shape perfettoShape
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatal(err)
	}
}
