package obs

import (
	"fmt"
	"strings"
	"sync"

	"tvsched/internal/isa"
)

// CPIStack is the cycle-accounting profiler: it consumes the typed event
// stream and decomposes every issue-width slot of the run into a CPI stack,
// so an aggregate IPC delta becomes an explanation — how many cycles went
// to branch redirects, cache misses, dispatch back-pressure, and (the
// paper's subject) each flavour of timing-violation handling. A parallel
// per-PC attribution table (attrib.go) localizes the violation penalty to
// static instructions with a true/false-positive split.
//
// Accounting is slot-based: a run of C cycles on a W-wide machine offers
// C·W issue slots. Each penalty source claims slots per the rules below;
// the base component is the residual, so the components sum to the total
// CPI exactly by construction. If the (deliberately simple) penalty rules
// oversubscribe the run — overlapping miss latencies can — every penalty
// component is scaled down proportionally, base is zero, and the report is
// flagged Saturated.
//
// Charging rules (slots):
//   - branch-mispredict: MispredictPenalty·W per mispredicted-branch fetch
//     (the front end redirects once per fetch of such a branch).
//   - icache-miss: W per instruction-fetch stall cycle (KindFetch.B).
//   - dcache-l2 / dcache-dram: W per cycle of the union of outstanding
//     load-miss windows (overlapped misses are not double-charged; the
//     component of the miss that extends the window gets the credit).
//   - dispatch-rob/iq/lsq/phys: the unused dispatch budget of each blocked
//     dispatch cycle (KindDispatchStall.B).
//   - violation-confined: 1 per confined handling — the faulty instruction
//     holds its stage one extra cycle; nothing else stops.
//   - slot-freeze: 1 per FUSR slot freeze.
//   - delayed-broadcast: the broadcast delay in cycles (dependents of one
//     producer wake late) per KindDelayedBroadcast.
//   - replay-bubble: W per replay-caused stall cycle (global or front,
//     StallCauseReplay), plus the errant instruction's extra replay
//     latency (KindReplay.B), plus squashed work on flush (KindFlush).
//   - ep-global-stall: W per predicted-violation whole-pipeline stall
//     cycle (StallCausePad).
//   - front-stall: W per predicted-violation in-order-engine stall cycle.
//
// The violation-attributed components are the last six; their sum is the
// measured confinement cost the paper's Figures 4/8 argue about.
//
// CPIStack is safe for concurrent use; for parallel suites prefer Shard,
// which gives each pipeline a lock-free accumulator merged at Flush.
type CPIStack struct {
	cfg CPIStackConfig
	mu  sync.Mutex
	acc cpiAcc
}

// CPIStackConfig parameterizes the accounting. The zero value of any field
// is replaced by the Core-1 default at construction.
type CPIStackConfig struct {
	// Width is the machine's issue width W (default 4).
	Width int
	// MispredictPenalty is the redirect cost in cycles charged per fetch
	// of a mispredicted branch (default 10, the Core-1 fetch-to-execute
	// loop).
	MispredictPenalty uint64
	// L1DLatency is the data-access latency of an L1D hit in cycles
	// (default 1); load accesses at or under it carry no miss penalty.
	L1DLatency uint64
	// L2DLatency is the total data-access latency of an L2 hit (default
	// 26); loads between the two thresholds charge dcache-l2, anything
	// slower charges dcache-dram.
	L2DLatency uint64
	// TopPCs bounds the attribution table in reports (default 20).
	TopPCs int
}

// fill applies defaults.
func (c *CPIStackConfig) fill() {
	if c.Width <= 0 {
		c.Width = 4
	}
	if c.MispredictPenalty == 0 {
		c.MispredictPenalty = 10
	}
	if c.L1DLatency == 0 {
		c.L1DLatency = 1
	}
	if c.L2DLatency == 0 {
		c.L2DLatency = 26
	}
	if c.TopPCs <= 0 {
		c.TopPCs = 20
	}
}

// NewCPIStack builds a profiler; zero config fields take Core-1 defaults.
func NewCPIStack(cfg CPIStackConfig) *CPIStack {
	cfg.fill()
	return &CPIStack{cfg: cfg}
}

// CPIComponent indexes the stack components.
type CPIComponent int

// The CPI stack components, in report order. CPIBase is the residual;
// components from CPIConfined onward are violation-attributed.
const (
	CPIBase CPIComponent = iota
	CPIBranchMispredict
	CPIICacheMiss
	CPIDCacheL2
	CPIDCacheDRAM
	CPIDispatchROB
	CPIDispatchIQ
	CPIDispatchLSQ
	CPIDispatchPhys
	CPIConfined
	CPISlotFreeze
	CPIDelayedBroadcast
	CPIReplayBubble
	CPIEPGlobalStall
	CPIFrontStall
	NumCPIComponents
)

// String names the component.
func (c CPIComponent) String() string {
	names := [NumCPIComponents]string{
		"base", "branch-mispredict", "icache-miss", "dcache-l2",
		"dcache-dram", "dispatch-rob", "dispatch-iq", "dispatch-lsq",
		"dispatch-phys", "violation-confined", "slot-freeze",
		"delayed-broadcast", "replay-bubble", "ep-global-stall",
		"front-stall",
	}
	if c < 0 || c >= NumCPIComponents {
		return "component(?)"
	}
	return names[c]
}

// Violation reports whether the component is violation-attributed.
func (c CPIComponent) Violation() bool { return c >= CPIConfined }

// cpiAcc is the accumulable state shared by the locked CPIStack path and
// the lock-free CPIShard path.
type cpiAcc struct {
	slots     [NumCPIComponents]uint64
	committed uint64
	// cycles holds cycle spans already closed (flushed shards); minCycle/
	// maxCycle track the live span. minCycle==0 means no live events yet
	// (machine cycles start at 1).
	cycles             uint64
	minCycle, maxCycle uint64
	// memBusyUntil sweeps the union of outstanding load-miss windows.
	memBusyUntil uint64
	pcs          attrib
}

// event consumes one event. Callers serialize access.
func (a *cpiAcc) event(cfg *CPIStackConfig, e Event) {
	if e.Cycle != 0 {
		if a.minCycle == 0 {
			a.minCycle = e.Cycle
		}
		if e.Cycle > a.maxCycle {
			a.maxCycle = e.Cycle
		}
	}
	w := uint64(cfg.Width)
	switch e.Kind {
	case KindRetire:
		a.committed++
	case KindFetch:
		if e.A != 0 {
			a.slots[CPIBranchMispredict] += cfg.MispredictPenalty * w
		}
		a.slots[CPIICacheMiss] += e.B * w
	case KindIssue:
		if e.Class == isa.Load && e.C > cfg.L1DLatency {
			// Miss window: the access completes at depReadyAt (A) and
			// extends a hit by C−L1DLatency cycles. Charge only the part
			// of [A−penalty, A) not already covered by an earlier miss,
			// so overlapped (MLP) misses are counted once.
			penalty := e.C - cfg.L1DLatency
			comp := CPIDCacheL2
			if e.C > cfg.L2DLatency {
				comp = CPIDCacheDRAM
			}
			if e.A > a.memBusyUntil {
				start := e.A - penalty
				if start < a.memBusyUntil {
					start = a.memBusyUntil
				}
				a.slots[comp] += (e.A - start) * w
				a.memBusyUntil = e.A
			}
		}
	case KindViolationPredicted:
		s := a.pcs.at(e.PC)
		s.Events++
		if e.A != 0 {
			s.TruePos++
		} else {
			s.FalsePos++
		}
		switch e.B {
		case RespConfined:
			// One extra stage cycle; the matching slot freeze and any
			// broadcast delay are charged by their own events, but belong
			// to this PC.
			a.slots[CPIConfined]++
			s.PenaltySlots += 2
		case RespGlobalStall, RespFrontStall:
			// The stall cycle itself arrives as a KindGlobalStall /
			// KindFrontStall event (bucket accounting); attribute its
			// width worth of slots to the PC here, where the PC is known.
			s.PenaltySlots += w
		}
	case KindReplay:
		s := a.pcs.at(e.PC)
		s.Events++
		s.PenaltySlots += e.A*w + e.B
		// Bucket side: bubble cycles normally arrive as StallCauseReplay
		// stall events (selective and in-order recovery), so only the errant
		// instruction's private replay latency (B) and any direct slots with
		// no stall events of their own (C, the fetch-path bubble) are
		// charged here.
		a.slots[CPIReplayBubble] += e.B + e.C
	case KindFlush:
		// Architectural replay: squashed instructions are wasted slots,
		// and the re-fetch bubble (B cycles) stalls the whole front end.
		a.slots[CPIReplayBubble] += e.A + e.B*w
	case KindSlotFreeze:
		a.slots[CPISlotFreeze]++
	case KindDelayedBroadcast:
		a.slots[CPIDelayedBroadcast] += e.A
		a.pcs.at(e.PC).PenaltySlots += e.A
	case KindDispatchStall:
		comp := CPIDispatchROB
		switch e.A {
		case DispatchStallIQ:
			comp = CPIDispatchIQ
		case DispatchStallLSQ:
			comp = CPIDispatchLSQ
		case DispatchStallPhys:
			comp = CPIDispatchPhys
		}
		a.slots[comp] += e.B
	case KindGlobalStall:
		if e.A == StallCauseReplay {
			a.slots[CPIReplayBubble] += w
		} else {
			a.slots[CPIEPGlobalStall] += w
		}
	case KindFrontStall:
		if e.A == StallCauseReplay {
			a.slots[CPIReplayBubble] += w
		} else {
			a.slots[CPIFrontStall] += w
		}
	}
}

// span returns the total observed cycles: closed spans plus the live one.
func (a *cpiAcc) span() uint64 {
	s := a.cycles
	if a.minCycle != 0 {
		s += a.maxCycle - a.minCycle + 1
	}
	return s
}

// closeSpan folds the live cycle span into cycles and resets the sweep, so
// the accumulator can be merged into another timeline.
func (a *cpiAcc) closeSpan() {
	a.cycles = a.span()
	a.minCycle, a.maxCycle = 0, 0
	a.memBusyUntil = 0
}

// merge folds o (whose span must be closed) into a.
func (a *cpiAcc) merge(o *cpiAcc) {
	for i := range a.slots {
		a.slots[i] += o.slots[i]
	}
	a.committed += o.committed
	a.cycles += o.cycles
	a.pcs.merge(&o.pcs)
}

// Event implements Observer (mutex-guarded; shareable across pipelines).
func (s *CPIStack) Event(e Event) {
	s.mu.Lock()
	s.acc.event(&s.cfg, e)
	s.mu.Unlock()
}

// Config returns the effective (default-filled) configuration.
func (s *CPIStack) Config() CPIStackConfig { return s.cfg }

// CPIShard is a per-pipeline lock-free accumulator (see Sharder). Not safe
// for concurrent use; give each pipeline its own.
type CPIShard struct {
	parent *CPIStack
	acc    cpiAcc
}

// Shard implements Sharder.
func (s *CPIStack) Shard() ShardObserver {
	return &CPIShard{parent: s}
}

// Event implements Observer.
func (sh *CPIShard) Event(e Event) {
	sh.acc.event(&sh.parent.cfg, e)
}

// Flush closes the shard's cycle span (each pipeline has its own timeline,
// so spans add) and folds everything into the parent profiler, leaving the
// shard empty for reuse.
func (sh *CPIShard) Flush() {
	sh.acc.closeSpan()
	p := sh.parent
	p.mu.Lock()
	p.acc.merge(&sh.acc)
	p.mu.Unlock()
	sh.acc = cpiAcc{}
}

// CPIComponentValue is one rendered stack component.
type CPIComponentValue struct {
	Name  string  `json:"name"`
	Slots float64 `json:"slots"`
	CPI   float64 `json:"cpi"`
}

// CPIStackReport is the rendered CPI stack. Components always sum to CPI
// (base is the residual; see the CPIStack documentation).
type CPIStackReport struct {
	Width     int    `json:"width"`
	Cycles    uint64 `json:"cycles"`
	Committed uint64 `json:"committed"`
	// CPI is cycles per committed instruction over the observed span.
	CPI        float64             `json:"cpi"`
	Components []CPIComponentValue `json:"components"`
	// ViolationCPI sums the violation-attributed components; and
	// ViolationCycles is the same cost expressed in whole-machine cycles
	// (slots divided by width) — the paper's confinement cost.
	ViolationCPI    float64 `json:"violation_cpi"`
	ViolationCycles float64 `json:"violation_cycles"`
	// Saturated flags a run whose penalty rules oversubscribed the
	// observed cycles; penalties were rescaled and base is zero.
	Saturated bool `json:"saturated,omitempty"`
	// TopPCs is the per-PC violation-penalty attribution (largest first).
	TopPCs []PCStat `json:"top_pcs,omitempty"`
}

// Report renders the stack. Flush any outstanding shards first, or their
// events are not included.
func (s *CPIStack) Report() CPIStackReport {
	s.mu.Lock()
	defer s.mu.Unlock()

	w := uint64(s.cfg.Width)
	cycles := s.acc.span()
	rep := CPIStackReport{
		Width:     s.cfg.Width,
		Cycles:    cycles,
		Committed: s.acc.committed,
		TopPCs:    s.acc.pcs.top(s.cfg.TopPCs),
	}
	if s.acc.committed == 0 || cycles == 0 {
		return rep
	}
	totalSlots := float64(cycles * w)
	denom := float64(w) * float64(s.acc.committed)

	var raw [NumCPIComponents]float64
	var penaltySum float64
	for c := CPIComponent(1); c < NumCPIComponents; c++ {
		raw[c] = float64(s.acc.slots[c])
		penaltySum += raw[c]
	}
	if penaltySum > totalSlots {
		scale := totalSlots / penaltySum
		for c := CPIComponent(1); c < NumCPIComponents; c++ {
			raw[c] *= scale
		}
		raw[CPIBase] = 0
		rep.Saturated = true
	} else {
		raw[CPIBase] = totalSlots - penaltySum
	}

	rep.CPI = float64(cycles) / float64(s.acc.committed)
	for c := CPIComponent(0); c < NumCPIComponents; c++ {
		cpi := raw[c] / denom
		rep.Components = append(rep.Components, CPIComponentValue{
			Name: c.String(), Slots: raw[c], CPI: cpi,
		})
		if c.Violation() {
			rep.ViolationCPI += cpi
			rep.ViolationCycles += raw[c] / float64(w)
		}
	}
	return rep
}

// Families implements Source: observed cycles, committed instructions, the
// CPI, its stack decomposition by component, and the violation-attributed
// share. A nil profiler lists none.
func (s *CPIStack) Families() []Family {
	if s == nil {
		return nil
	}
	rep := s.Report()
	stack := make([]Member, len(rep.Components))
	for i, c := range rep.Components {
		stack[i] = Member{Labels: fmt.Sprintf("component=%q", c.Name), Value: c.CPI}
	}
	return []Family{
		scalar("cycles_total", "Observed machine cycles.", "counter", rep.Cycles),
		scalar("instructions_total", "Committed instructions.", "counter", rep.Committed),
		scalar("cpi", "Cycles per committed instruction.", "gauge", rep.CPI),
		{"cpi_stack", "CPI stack decomposition by component (components sum to the CPI).", "gauge", stack},
		scalar("violation_cpi", "Violation-attributed share of the CPI.", "gauge", rep.ViolationCPI),
	}
}

// Sum returns the sum of the component CPIs (equals CPI up to float
// rounding; the acceptance tests pin the bound).
func (r *CPIStackReport) Sum() float64 {
	var s float64
	for _, c := range r.Components {
		s += c.CPI
	}
	return s
}

// Format renders the report as a human-readable table with proportional
// bars (the tvsim -cpistack view).
func (r *CPIStackReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPI stack: W=%d  cycles=%d  committed=%d  CPI=%.4f  IPC=%.4f\n",
		r.Width, r.Cycles, r.Committed, r.CPI, safeInv(r.CPI))
	if r.Saturated {
		b.WriteString("  (saturated: penalty rules oversubscribed the run; rescaled, base=0)\n")
	}
	const width = 40
	for _, c := range r.Components {
		frac := 0.0
		if r.CPI > 0 {
			frac = c.CPI / r.CPI
		}
		fmt.Fprintf(&b, "  %-20s %8.4f %6.1f%% %s\n",
			c.Name, c.CPI, 100*frac, strings.Repeat("#", int(frac*width+0.5)))
	}
	fmt.Fprintf(&b, "  violation-attributed CPI %.4f (%.1f%% of cycles, %.0f cycles)\n",
		r.ViolationCPI, 100*safeDiv(r.ViolationCPI, r.CPI), r.ViolationCycles)
	if len(r.TopPCs) > 0 {
		b.WriteString("  top PCs by violation penalty (slots; TP/FP = prediction accuracy):\n")
		for _, pc := range r.TopPCs {
			fmt.Fprintf(&b, "    pc=%#08x %10d slots %8d events  TP %-7d FP %d\n",
				pc.PC, pc.PenaltySlots, pc.Events, pc.TruePos, pc.FalsePos)
		}
	}
	return b.String()
}

func safeInv(v float64) float64 {
	if v == 0 {
		return 0
	}
	return 1 / v
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
