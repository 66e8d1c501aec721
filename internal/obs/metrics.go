package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"tvsched/internal/isa"
)

// Hist is a log2-bucketed histogram of uint64 samples: bucket 0 counts
// zeros, bucket i counts values in [2^(i-1), 2^i), and the last bucket is
// open-ended. Sixteen buckets cover every quantity the pipeline produces
// (occupancies, delays, burst lengths, squash counts).
type Hist struct {
	Count   uint64
	Sum     uint64
	Buckets [17]uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	b := bits.Len64(v)
	if b >= len(h.Buckets) {
		b = len(h.Buckets) - 1
	}
	h.Buckets[b]++
}

// Mean returns the sample mean.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// String renders the non-empty buckets as "[lo,hi):count" pairs.
func (h *Hist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f", h.Count, h.Mean())
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		switch {
		case i == 0:
			fmt.Fprintf(&b, " [0]:%d", c)
		case i == len(h.Buckets)-1:
			fmt.Fprintf(&b, " [%d,+inf):%d", 1<<(i-1), c)
		default:
			fmt.Fprintf(&b, " [%d,%d):%d", 1<<(i-1), 1<<i, c)
		}
	}
	return b.String()
}

// burstGap is the maximum cycle gap between two violations that still
// counts as the same fault burst.
const burstGap = 16

// metricsAcc is the lock-free accumulable core of the registry. Metrics
// embeds one (guarded by its mutex) and MetricsShard owns a private one, so
// the two paths share the event-consuming logic exactly.
type metricsAcc struct {
	counts      [NumKinds]uint64
	violByStage [isa.NumStages]uint64
	truePos     uint64
	falsePos    uint64
	iqOcc       Hist
	robOcc      Hist
	bcastDelay  Hist
	bursts      Hist
	lastViol    uint64
	burstLen    uint64
}

// event consumes one event. Callers serialize access.
func (a *metricsAcc) event(e Event) {
	a.counts[e.Kind]++
	switch e.Kind {
	case KindViolationPredicted:
		a.violByStage[e.Stage]++
		if e.A != 0 {
			a.truePos++
		} else {
			a.falsePos++
		}
		a.noteViolation(e.Cycle)
	case KindViolationActual:
		a.violByStage[e.Stage]++
		a.noteViolation(e.Cycle)
	case KindDelayedBroadcast:
		a.bcastDelay.Observe(e.A)
	case KindSample:
		a.iqOcc.Observe(e.A)
		a.robOcc.Observe(e.B)
	}
}

// noteViolation grows the current fault burst or closes it and starts a new
// one.
func (a *metricsAcc) noteViolation(cycle uint64) {
	if a.burstLen > 0 && cycle >= a.lastViol && cycle-a.lastViol <= burstGap {
		a.burstLen++
	} else {
		if a.burstLen > 0 {
			a.bursts.Observe(a.burstLen)
		}
		a.burstLen = 1
	}
	a.lastViol = cycle
}

// faultBursts returns the fault-burst size histogram, including the burst
// still open.
func (a *metricsAcc) faultBursts() Hist {
	h := a.bursts
	if a.burstLen > 0 {
		h.Observe(a.burstLen)
	}
	return h
}

// merge folds o into a. The open burst of o must be closed first.
func (a *metricsAcc) merge(o *metricsAcc) {
	for k := range a.counts {
		a.counts[k] += o.counts[k]
	}
	for s := range a.violByStage {
		a.violByStage[s] += o.violByStage[s]
	}
	a.truePos += o.truePos
	a.falsePos += o.falsePos
	a.iqOcc.merge(&o.iqOcc)
	a.robOcc.merge(&o.robOcc)
	a.bcastDelay.merge(&o.bcastDelay)
	a.bursts.merge(&o.bursts)
}

// merge adds o's samples into h.
func (h *Hist) merge(o *Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Metrics is the event-consuming metrics registry: per-kind counters,
// per-stage violation counts, prediction accuracy, and occupancy, delay and
// fault-burst histograms.
//
// All methods are safe for concurrent use, so one registry can aggregate
// across the parallel simulations of an experiments suite. When every event
// of a simulation funnels through the shared mutex the parallel suite
// serializes on it; use Shard to give each pipeline a lock-free accumulator
// merged at run end instead.
type Metrics struct {
	mu sync.Mutex
	metricsAcc
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Event implements Observer.
func (m *Metrics) Event(e Event) {
	m.mu.Lock()
	m.metricsAcc.event(e)
	m.mu.Unlock()
}

// MetricsShard is a per-pipeline lock-free accumulator split off a Metrics
// registry (see Sharder). Not safe for concurrent use; give each pipeline
// its own shard.
type MetricsShard struct {
	parent *Metrics
	acc    metricsAcc
}

// Shard implements Sharder: it returns a lock-free accumulator whose Flush
// folds into m.
func (m *Metrics) Shard() ShardObserver {
	return &MetricsShard{parent: m}
}

// Event implements Observer.
func (s *MetricsShard) Event(e Event) { s.acc.event(e) }

// Flush closes the shard's open fault burst, folds everything into the
// parent registry, and resets the shard for reuse.
func (s *MetricsShard) Flush() {
	if s.acc.burstLen > 0 {
		s.acc.bursts.Observe(s.acc.burstLen)
		s.acc.burstLen = 0
	}
	p := s.parent
	p.mu.Lock()
	p.metricsAcc.merge(&s.acc)
	p.mu.Unlock()
	s.acc = metricsAcc{}
}

// snapshot copies the accumulated state under the lock.
func (m *Metrics) snapshot() metricsAcc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metricsAcc
}

// Count returns the number of events of the given kind seen so far.
func (m *Metrics) Count(k Kind) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[k]
}

// Counts returns a snapshot of all per-kind event counters.
func (m *Metrics) Counts() [NumKinds]uint64 { return m.snapshot().counts }

// ViolationsByStage returns per-stage violation counts (predicted handled +
// unpredicted actual).
func (m *Metrics) ViolationsByStage() [isa.NumStages]uint64 { return m.snapshot().violByStage }

// Accuracy returns the TEP's handled true positives and false positives.
func (m *Metrics) Accuracy() (truePos, falsePos uint64) {
	a := m.snapshot()
	return a.truePos, a.falsePos
}

// IQOccupancy returns the issue-queue occupancy histogram.
func (m *Metrics) IQOccupancy() Hist { return m.snapshot().iqOcc }

// ROBOccupancy returns the reorder-buffer occupancy histogram.
func (m *Metrics) ROBOccupancy() Hist { return m.snapshot().robOcc }

// BroadcastDelays returns the delayed-tag-broadcast histogram (cycles).
func (m *Metrics) BroadcastDelays() Hist { return m.snapshot().bcastDelay }

// FaultBursts returns the fault-burst size histogram, including the burst
// still open at the time of the call.
func (m *Metrics) FaultBursts() Hist {
	a := m.snapshot()
	return a.faultBursts()
}

// Families implements Source: event counts by kind, violations by stage,
// TEP prediction outcomes, and the occupancy, broadcast-delay and
// fault-burst histograms. A nil registry lists none.
func (m *Metrics) Families() []Family {
	if m == nil {
		return nil
	}
	a := m.snapshot()
	return []Family{
		{"events_total", "Pipeline events by kind.", "counter", enumMembers[Kind]("kind", a.counts[:])},
		{"violations_total", "Timing violations (predicted handled + unpredicted) by pipe stage.", "counter",
			enumMembers[isa.Stage]("stage", a.violByStage[:])},
		{"tep_predictions_total", "Handled TEP predictions by outcome.", "counter", []Member{
			{Labels: `outcome="true_positive"`, Value: a.truePos},
			{Labels: `outcome="false_positive"`, Value: a.falsePos},
		}},
		histFamily("iq_occupancy", "Issue-queue occupancy samples.", a.iqOcc),
		histFamily("rob_occupancy", "Reorder-buffer occupancy samples.", a.robOcc),
		histFamily("broadcast_delay_cycles", "Delayed tag-broadcast lengths in cycles.", a.bcastDelay),
		histFamily("fault_burst_length", "Violations per fault burst.", a.faultBursts()),
	}
}

// Summary renders a human-readable digest of the registry.
func (m *Metrics) Summary() string {
	a := m.snapshot()
	var b strings.Builder
	b.WriteString("observability metrics\n")
	for k := Kind(0); k < NumKinds; k++ {
		if a.counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-20s %12d\n", k, a.counts[k])
	}
	any := false
	for s := isa.Stage(0); s < isa.NumStages; s++ {
		if a.violByStage[s] > 0 {
			if !any {
				b.WriteString("  violations by stage:\n")
				any = true
			}
			fmt.Fprintf(&b, "    %-10s %12d\n", s, a.violByStage[s])
		}
	}
	bursts := a.faultBursts()
	fmt.Fprintf(&b, "  prediction: %d true positives, %d false positives\n", a.truePos, a.falsePos)
	fmt.Fprintf(&b, "  IQ occupancy:      %s\n", a.iqOcc.String())
	fmt.Fprintf(&b, "  ROB occupancy:     %s\n", a.robOcc.String())
	fmt.Fprintf(&b, "  broadcast delays:  %s\n", a.bcastDelay.String())
	fmt.Fprintf(&b, "  fault bursts:      %s\n", bursts.String())
	return b.String()
}
