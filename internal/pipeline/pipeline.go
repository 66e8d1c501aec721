package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"tvsched/internal/bpred"
	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/isa"
	"tvsched/internal/mem"
	"tvsched/internal/obs"
	"tvsched/internal/tep"
)

// Source supplies the committed dynamic instruction stream (the workload
// generator implements it).
type Source interface {
	Next() isa.Inst
}

// FaultOracle decides which dynamic instructions violate timing in which
// stages. fault.Model is the production implementation; tests inject
// deterministic oracles to exercise specific handling paths.
type FaultOracle interface {
	// Violates reports whether dynamic instance seq of the instruction at
	// pc incurs a timing violation in stage under env.
	Violates(pc uint64, stage isa.Stage, env *fault.Env, seq uint64) bool
	// Margin returns the (µ+2σ)/Tclk criticality of the paths pc sensitizes
	// in stage, used to pick the dominant stage when several violate.
	Margin(pc uint64, stage isa.Stage) float64
	// Stages returns the stages in which the instruction at pc can violate
	// under the environment's tailScale; Violates is asked about no other.
	Stages(pc uint64, tailScale float64) fault.StageMask
}

// Pipeline is the simulated machine.
type Pipeline struct {
	cfg   Config
	src   Source
	model FaultOracle
	env   *fault.Env
	hier  *mem.Hierarchy
	bp    *bpred.Predictor
	noise *bpred.OracleNoise
	tep   tep.Predictor
	fusr  *core.FUSR
	cdl   core.CDL

	// obs, when non-nil, receives the typed event stream; every emission
	// site is guarded by a nil check so the uninstrumented hot loop pays
	// only an untaken branch.
	obs          obs.Observer
	samplePeriod uint64

	// scheme is the handling scheme currently in force: cfg.Scheme unless
	// the supervisor has escalated. All runtime decisions consult this, not
	// cfg.Scheme, so escalation takes effect at the next cycle's stages.
	scheme core.Scheme

	// Graceful-degradation supervisor (nil when Config.Supervisor is nil;
	// every touch point is guarded so an unsupervised run pays one untaken
	// branch per cycle and is bit-identical to the pre-supervisor machine).
	sup         *core.Supervisor
	supWinStart uint64      // cycle the current monitoring window opened
	supPrev     supSnapshot // counter snapshot at the window open
	supSavedVDD float64     // supply to restore when leaving the top rung
	supHot      uint64      // unpredicted count that closes a window early

	// cycle is the real clock: stats, supervisor windows, the watchdog,
	// hazard timelines, fetchResumeAt, the FUSR lane reservations and every
	// observer payload count in it. now is the machine clock, which ticks in
	// every cycle except global freezes: in-flight per-instruction times
	// (availAt, depReadyAt, execDoneAt, completeAt, readyAt, and fillAt
	// inside the ROB) count in it, so a freeze delays them all without
	// touching any. cycle-now is the number of frozen cycles so far, which
	// converts a machine time to the real cycle it falls on.
	cycle uint64
	now   uint64
	seq   uint64
	stats Stats

	// Front end. frontQ is a fixed-capacity ring (len == cfg.FrontQ):
	// occupied slots are [frontHead, frontHead+frontCount) modulo the length.
	// A ring instead of an appended-and-resliced slice keeps dispatch's
	// pop-front from shedding capacity and forcing fetch to reallocate.
	frontQ         []*dynInst
	frontHead      int
	frontCount     int
	pendingNew     *dynInst
	fetchResumeAt  uint64
	fetchBlockedBy *dynInst
	lastFetchLine  uint64
	fetchLimit     uint64
	newFetched     uint64

	// Out-of-order engine.
	rob      []*dynInst // ring buffer
	robHead  int
	robCount int
	iqAlloc  uint8
	writers  [isa.NumArchRegs]*dynInst
	freePhys int
	loads    int
	stores   int
	// storeAt is the store-forwarding CAM: the addresses of the in-flight
	// stores, in no particular order. Dispatch bounds it by SQSize, the
	// capacity it is built with, so appending never allocates.
	storeAt []uint64

	// Issue queue, woken by event rather than scanned (see dynInst). iqCount
	// is its occupancy: dispatched, unissued instructions. ready holds the
	// operand-ready entries in seq (dispatch) order. wheel is a timing
	// wheel on the machine clock: slot t&wheelMask chains the entries whose
	// last producer broadcasts its tag at machine cycle t.
	iqCount   int
	ready     []*dynInst
	wheel     []*dynInst
	wheelMask uint64
	// examined counts the wakeup work: wheel-slot entries visited, ready
	// entries offered to select, and consumer-chain entries woken. It is
	// not a Stats field, so no report moves; tests read it.
	examined uint64

	// Violation handling. The *Replay counters track the subset of queued
	// freeze cycles owed to replay recovery (vs predicted-violation
	// padding), so stall-cycle events carry their cause.
	globalFreeze       int
	globalFreezeReplay int
	frontFreeze        int
	frontFreezeReplay  int
	replayQ            []*dynInst // re-fetch queue (full-flush recovery)
	pendingFlush       *dynInst   // oldest instruction awaiting a flush

	// pendingIFetch accumulates instruction-cache stall cycles to report
	// on the next KindFetch event (only maintained while an observer is
	// attached).
	pendingIFetch uint64

	cands []core.Candidate // select-stage scratch

	// dynInst recycling. The steady-state cycle loop must not allocate (the
	// checkpointed-sweep throughput gate depends on it), so dynInst records
	// come from a pre-sized free list and return to it after retirement.
	// pendingFree holds the instructions retired this cycle; recycleRetired
	// moves them to freeList at the top of the next cycle, by which point no
	// queue or wakeup link can still reference them (see recycleRetired).
	freeList    []*dynInst
	pendingFree []*dynInst
}

// New builds a pipeline running the given scheme at supply voltage vdd.
// model is typically *fault.Model (see internal/fault).
func New(cfg Config, src Source, model FaultOracle, vdd float64) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:           cfg,
		src:           src,
		model:         model,
		env:           fault.NewEnv(vdd, cfg.Seed),
		hier:          mem.NewHierarchy(cfg.Hierarchy),
		bp:            bpred.New(bpred.DefaultConfig()),
		noise:         bpred.NewOracleNoise(cfg.MispredictRate, cfg.Seed^0xbad),
		tep:           newPredictor(cfg),
		fusr:          core.NewFUSR(cfg.SimpleALUs, cfg.ComplexALUs, cfg.MemPorts),
		cdl:           core.CDL{CT: cfg.CT},
		rob:           make([]*dynInst, cfg.ROBSize),
		frontQ:        make([]*dynInst, cfg.FrontQ),
		ready:         make([]*dynInst, 0, cfg.IQSize),
		wheel:         make([]*dynInst, wheelSize(cfg)),
		cands:         make([]core.Candidate, 0, cfg.IQSize),
		freePhys:      cfg.NumPhys - isa.NumArchRegs,
		storeAt:       make([]uint64, 0, cfg.SQSize),
		lastFetchLine: ^uint64(0),
		samplePeriod:  cfg.SamplePeriod,
		scheme:        cfg.Scheme,
	}
	p.wheelMask = uint64(len(p.wheel) - 1)
	// dynInst arena: in the default (selective-replay) recovery mode at most
	// ROBSize + FrontQ instructions are resident, plus one pending fetch, one
	// deferred fetch blocker, and a retire group awaiting recycling. Full-flush
	// recovery can briefly exceed this via the re-fetch queue; allocDyn then
	// falls back to the heap, so the bound only needs to cover the fast path.
	arenaCap := cfg.ROBSize + cfg.FrontQ + cfg.Width + 2
	arena := make([]dynInst, arenaCap)
	p.freeList = make([]*dynInst, arenaCap)
	for i := range arena {
		p.freeList[i] = &arena[i]
	}
	p.pendingFree = make([]*dynInst, 0, cfg.Width+1)
	if p.samplePeriod == 0 {
		p.samplePeriod = 64
	}
	if cfg.Supervisor != nil {
		p.sup = core.NewSupervisor(cfg.Scheme, *cfg.Supervisor)
		// A full window's worth of unpredicted violations is proof of hazard
		// regardless of how few cycles it took to accumulate; crossing this
		// count closes the window early so escalation is reactive. This is
		// what bounds the cost of a burned de-escalation probe: the machine
		// climbs back up after ~supHot violations instead of suffering a full
		// window at the lower rung.
		p.supHot = uint64(math.Ceil(cfg.Supervisor.EscalateUnpred * float64(cfg.Supervisor.Window)))
		if p.supHot == 0 {
			p.supHot = 1
		}
	}
	p.SetObserver(cfg.Observer)
	return p, nil
}

// SetObserver attaches (or, with nil, detaches) the event observer. It also
// wires the FUSR slot-freeze path and the TEP predict/train path, so one call
// instruments the whole machine. Safe to call between runs — e.g. to start
// tracing only after warmup.
func (p *Pipeline) SetObserver(o obs.Observer) {
	p.obs = o
	p.fusr.SetObserver(o)
	if t, ok := p.tep.(*tep.TEP); ok {
		t.Obs = o
	}
}

func newPredictor(cfg Config) tep.Predictor {
	if cfg.NewPredictor != nil {
		return cfg.NewPredictor()
	}
	return tep.New(cfg.TEP)
}

// Env exposes the operating environment (for tests/diagnostics).
func (p *Pipeline) Env() *fault.Env { return p.env }

// Hierarchy exposes the cache hierarchy (diagnostics).
func (p *Pipeline) Hierarchy() *mem.Hierarchy { return p.hier }

// PrefillData installs a data range into the L2 (see mem.Hierarchy.Prefill).
func (p *Pipeline) PrefillData(base, size uint64) {
	p.hier.Prefill(base, size)
}

// Warmup simulates n committed instructions and then discards all
// statistics while keeping micro-architectural state: cache contents, branch
// predictor, and TEP training survive. This mirrors the SimPoint methodology
// of §4.2, where representative phases are measured after warmup rather than
// from a cold machine.
func (p *Pipeline) Warmup(n uint64) error {
	return p.WarmupContext(context.Background(), n)
}

// WarmupContext is Warmup with cancellation (see RunContext).
func (p *Pipeline) WarmupContext(ctx context.Context, n uint64) error {
	if _, err := p.RunContext(ctx, n); err != nil {
		return err
	}
	p.stats = Stats{}
	// Observer-side residue must not cross the reset: trailing warmup
	// icache-stall cycles would otherwise be charged to the first measured
	// KindFetch event and pollute its CPI icache component.
	p.pendingIFetch = 0
	p.hier.L1I.Stats = mem.CacheStats{}
	p.hier.L1D.Stats = mem.CacheStats{}
	p.hier.L2.Stats = mem.CacheStats{}
	if t, ok := p.tep.(*tep.TEP); ok {
		t.Stats = tep.Stats{}
	}
	p.bp.Stats = bpred.Stats{}
	// Supervision history must not leak across the measurement boundary:
	// re-open the monitoring window against the zeroed counters and return
	// to the base rung (restoring the saved supply if warmup escalated to
	// the top).
	if p.sup != nil {
		if p.sup.Level() == core.NumSupLevels-1 {
			p.env.SetVDD(p.supSavedVDD)
		}
		p.sup.Reset()
		p.scheme = p.cfg.Scheme
		p.supWinStart = p.cycle
		p.supPrev = supSnapshot{}
	}
	return nil
}

// Run simulates until n further instructions commit and returns the
// statistics accumulated since construction or the last Warmup. It returns
// an error if forward progress stops (a model bug, guarded so tests fail
// loudly rather than hang).
func (p *Pipeline) Run(n uint64) (Stats, error) {
	return p.RunContext(context.Background(), n)
}

// RunContext is Run with cancellation: it polls ctx every 256 cycles (cheap
// enough to be invisible, frequent enough that cancellation lands within
// microseconds of wall time) and returns the context's error along with the
// statistics accumulated so far. The 256-cycle bound is load-bearing for the
// serving layer's deadline propagation and is pinned by a latency test —
// tighten rather than loosen it.
func (p *Pipeline) RunContext(ctx context.Context, n uint64) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return p.stats, err
	}
	p.fetchLimit += n
	target := p.stats.Committed + n
	lastCommit, lastCommitCycle := p.stats.Committed, p.cycle
	for p.stats.Committed < target {
		p.step()
		if p.cfg.Debug {
			if err := p.CheckInvariants(); err != nil {
				return p.stats, fmt.Errorf("pipeline: cycle %d: %w", p.cycle, err)
			}
		}
		if p.cycle&255 == 0 {
			if err := ctx.Err(); err != nil {
				return p.stats, err
			}
		}
		if p.stats.Committed != lastCommit {
			lastCommit, lastCommitCycle = p.stats.Committed, p.cycle
		} else if p.sup != nil && p.sup.Policy().WatchdogCycles > 0 &&
			p.cycle-lastCommitCycle > p.sup.Policy().WatchdogCycles {
			// No forward progress: the supervisor's watchdog jumps to the
			// top rung (replay-everything at the safe supply) instead of
			// aborting. The silence clock restarts so the recovery gets a
			// full watchdog period to take effect; a trip with no budget (or
			// already at the top rung, where there is nothing left to try)
			// falls through to the hard error below.
			d, ok := p.sup.Watchdog()
			if !ok {
				return p.stats, fmt.Errorf("pipeline: no commit for %d cycles at cycle %d with watchdog exhausted (%d/%d committed)",
					p.sup.Policy().WatchdogCycles, p.cycle, p.stats.Committed, target)
			}
			p.applySupervisor(d)
			lastCommitCycle = p.cycle
		} else if p.cycle-lastCommitCycle > 200000 {
			// Committed is cumulative across runs, so report against the
			// cumulative target, not this call's n.
			return p.stats, fmt.Errorf("pipeline: no commit for 200k cycles at cycle %d (%d/%d committed)",
				p.cycle, p.stats.Committed, target)
		}
	}
	// Every fetched instruction must commit for the loop to end (fetchLimit
	// accumulates to exactly the commit target), so a successful run always
	// leaves the machine drained.
	if p.cfg.Debug {
		if err := p.CheckDrained(); err != nil {
			return p.stats, fmt.Errorf("pipeline: end of run at cycle %d: %w", p.cycle, err)
		}
	}
	p.stats.L1I = p.hier.L1I.Stats
	p.stats.L1D = p.hier.L1D.Stats
	p.stats.L2 = p.hier.L2.Stats
	return p.stats, nil
}

// supSnapshot is the counter state at a monitoring-window open; window
// samples are deltas against it.
type supSnapshot struct {
	mispredicted uint64
	predicted    uint64
	falsePos     uint64
}

// superviseWindow closes the current monitoring window, feeds its health
// counters through the supervisor, and applies any level change.
func (p *Pipeline) superviseWindow() {
	w := core.WindowSample{
		Cycles:          p.cycle - p.supWinStart,
		Unpredicted:     p.stats.Mispredicted - p.supPrev.mispredicted,
		Predictions:     (p.stats.PredictedFaults - p.supPrev.predicted) + (p.stats.FalsePositives - p.supPrev.falsePos),
		TruePredictions: p.stats.PredictedFaults - p.supPrev.predicted,
	}
	p.supWinStart = p.cycle
	p.supPrev = supSnapshot{
		mispredicted: p.stats.Mispredicted,
		predicted:    p.stats.PredictedFaults,
		falsePos:     p.stats.FalsePositives,
	}
	if d, changed := p.sup.Observe(w); changed {
		p.applySupervisor(d)
	}
}

// applySupervisor puts a supervisor decision into effect: switch the active
// scheme to the new rung's, move the supply when the top rung is entered or
// left, bump the transition counters, and emit the KindSupervisor event the
// Auditor reconciles against them.
func (p *Pipeline) applySupervisor(d core.SupDecision) {
	const top = core.NumSupLevels - 1
	if d.To == top && d.From != top {
		p.supSavedVDD = p.env.VDD()
		p.env.SetVDD(p.sup.Policy().VSafe)
	} else if d.From == top && d.To != top {
		p.env.SetVDD(p.supSavedVDD)
	}
	p.scheme = p.sup.SchemeAt(d.To)
	switch {
	case d.Reason == core.SupReasonWatchdog:
		p.stats.SupWatchdogFires++
	case d.To > d.From:
		p.stats.SupEscalations++
	default:
		p.stats.SupDeescalations++
	}
	if p.obs != nil {
		p.obs.Event(obs.Event{Kind: obs.KindSupervisor, Cycle: p.cycle,
			A: uint64(d.From), B: uint64(d.To), C: uint64(d.Reason)})
	}
}

// step advances the machine one clock cycle. Stages run in reverse pipe
// order so that resources freed in a cycle become visible the next.
func (p *Pipeline) step() {
	p.cycle++
	p.stats.Cycles++
	if len(p.pendingFree) > 0 {
		p.recycleRetired()
	}
	p.env.Step()

	if p.sup != nil {
		if p.cycle-p.supWinStart >= p.sup.Policy().Window ||
			(p.sup.Level() < core.NumSupLevels-1 &&
				p.stats.Mispredicted-p.supPrev.mispredicted >= p.supHot) {
			p.superviseWindow()
		}
	}

	// Occupancy samples fire on a fixed cadence even through stall cycles —
	// the window contents are frozen, not gone, and gaps in the series would
	// hide exactly the congested phases worth looking at.
	if p.obs != nil && p.cycle%p.samplePeriod == 0 {
		p.obs.Event(obs.Event{Kind: obs.KindSample, Cycle: p.cycle,
			A: uint64(p.iqCount), B: uint64(p.robCount)})
	}

	// Occupancy sums accumulate every cycle, stall cycles included: the
	// window contents are frozen, not gone, and MeanIQOcc/MeanROBOcc divide
	// by total Cycles. Skipping stall cycles would understate occupancy for
	// stall-heavy schemes (EP) and disagree with the KindSample series.
	p.stats.SumIQOcc += uint64(p.iqCount)
	p.stats.SumROBOcc += uint64(p.robCount)
	p.stats.SumFrontQ += uint64(p.frontCount)

	// EP whole-pipeline stall: the faulty stage completes in two cycles
	// while every other stage recirculates its inputs (§2.2, §5). The stall
	// is a true machine-wide freeze — every in-flight completion, including
	// outstanding cache fills, slips by the stall cycle. The machine clock
	// does not tick, which slips everything timed on it at once; the
	// real-clock fetch redirect and lane reservations slip here.
	if p.globalFreeze > 0 {
		p.globalFreeze--
		p.stats.GlobalStalls++
		if p.obs != nil {
			cause := obs.StallCausePad
			if p.globalFreezeReplay > 0 {
				p.globalFreezeReplay--
				cause = obs.StallCauseReplay
			}
			p.obs.Event(obs.Event{Kind: obs.KindGlobalStall, Cycle: p.cycle, A: cause})
		} else if p.globalFreezeReplay > 0 {
			p.globalFreezeReplay--
		}
		if p.fetchResumeAt > p.cycle {
			p.fetchResumeAt++
		}
		p.fusr.ShiftAll(p.cycle)
		return
	}
	p.now++

	if p.pendingFlush != nil {
		di := p.pendingFlush
		p.pendingFlush = nil
		p.flushReplay(di)
	}
	p.retire()
	p.selectIssue()

	// In-order-engine stall (§2.2): rename/dispatch/retire recirculate for
	// one cycle; the OoO engine above keeps running.
	if p.frontFreeze > 0 {
		p.frontFreeze--
		p.stats.FrontStalls++
		if p.obs != nil {
			cause := obs.StallCausePad
			if p.frontFreezeReplay > 0 {
				p.frontFreezeReplay--
				cause = obs.StallCauseReplay
			}
			p.obs.Event(obs.Event{Kind: obs.KindFrontStall, Cycle: p.cycle, A: cause})
		} else if p.frontFreezeReplay > 0 {
			p.frontFreezeReplay--
		}
		return
	}
	p.dispatch()
	p.fetch()
}

// emitViolation fires the KindViolationActual/KindReplay pair that every
// unpredicted-violation recovery produces, so event counts track the
// Mispredicted/Replays statistics exactly. bubble is the recovery stall in
// cycles; private is the errant instruction's extra replay latency; direct
// is any recovery cost in issue slots not otherwise visible as stall-cycle
// events (the fetch-path replay bubble). Callers guard on p.obs != nil.
func (p *Pipeline) emitViolation(di *dynInst, stage isa.Stage, bubble, private, direct uint64) {
	p.obs.Event(obs.Event{Kind: obs.KindViolationActual, Cycle: p.cycle,
		Seq: di.seq, PC: di.PC, Stage: stage, Class: di.Class})
	p.obs.Event(obs.Event{Kind: obs.KindReplay, Cycle: p.cycle,
		Seq: di.seq, PC: di.PC, Stage: stage, Class: di.Class,
		A: bubble, B: private, C: direct})
}

// emitPredicted fires a KindViolationPredicted event; A records whether the
// prediction was a true positive, B the response the scheme chose. Callers
// guard on p.obs != nil.
func (p *Pipeline) emitPredicted(di *dynInst, stage isa.Stage, actual bool, act core.Action) {
	var a uint64
	if actual {
		a = 1
	}
	p.obs.Event(obs.Event{Kind: obs.KindViolationPredicted, Cycle: p.cycle,
		Seq: di.seq, PC: di.PC, Stage: stage, Class: di.Class,
		A: a, B: uint64(act)})
}

// emitDispatchStall fires a KindDispatchStall event when a back-end resource
// shortage cuts the dispatch group short: A is the blocking resource, B the
// dispatch budget (slots) left unused this cycle.
func (p *Pipeline) emitDispatchStall(cause uint64, budget int) {
	if p.obs == nil {
		return
	}
	p.obs.Event(obs.Event{Kind: obs.KindDispatchStall, Cycle: p.cycle,
		A: cause, B: uint64(budget)})
}

// ------------------------------------------------------- dynInst recycling --

// allocDyn takes a record from the free list, falling back to the heap when
// the arena bound is exceeded (only possible under full-flush recovery).
func (p *Pipeline) allocDyn() *dynInst {
	if n := len(p.freeList) - 1; n >= 0 {
		di := p.freeList[n]
		p.freeList[n] = nil
		p.freeList = p.freeList[:n]
		return di
	}
	return &dynInst{}
}

// recycleRetired returns the instructions retired last cycle to the free
// list. Deferring the recycle one cycle makes it provably safe: by the top of
// the cycle after retirement no live structure references a retired record —
// a consumer's src link is cleared when its producer issues (strictly before
// the producer can retire) and only ever names an unissued producer, the
// wakeup structures hold only unissued instructions, the rename map entry is
// cleared at retirement, and the re-fetch/flush queues only ever hold
// squashed (never retired) instructions. The one remaining reference is the
// fetch redirect blocker, which stays deferred here until fetch drops it.
func (p *Pipeline) recycleRetired() {
	kept := p.pendingFree[:0]
	for _, di := range p.pendingFree {
		if di == p.fetchBlockedBy {
			kept = append(kept, di)
			continue
		}
		p.freeList = append(p.freeList, di)
	}
	p.pendingFree = kept
}

// ------------------------------------------------------- front-end ring --

// wrap maps head+i, with head and i both in [0,n), onto a ring of n slots:
// one compare and subtract instead of a division.
func wrap(head, i, n int) int {
	j := head + i
	if j >= n {
		j -= n
	}
	return j
}

func (p *Pipeline) frontPush(di *dynInst) {
	p.frontQ[wrap(p.frontHead, p.frontCount, len(p.frontQ))] = di
	p.frontCount++
}

func (p *Pipeline) frontPop() {
	p.frontQ[p.frontHead] = nil
	p.frontHead = wrap(p.frontHead, 1, len(p.frontQ))
	p.frontCount--
}

// frontAt returns the i-th queued instruction in fetch order (0 is oldest).
func (p *Pipeline) frontAt(i int) *dynInst {
	return p.frontQ[wrap(p.frontHead, i, len(p.frontQ))]
}

// ---------------------------------------------------------------- fetch --

// newDyn pulls the next instruction from the trace and fixes its dynamic
// identity: fault ground truth (which stage, if any, its sensitized paths
// violate in at the current voltage) and the oracle branch outcome.
func (p *Pipeline) newDyn() *dynInst {
	in := p.src.Next()
	di := p.allocDyn()
	di.init(p.seq, &in)
	p.seq++

	// Ground truth: the most critical violating stage, if any. Only the
	// instruction's near-critical stages can violate; they are tested in
	// ascending stage order, so the strict comparison keeps the earliest of
	// equally critical stages.
	bestMargin := 0.0
	mask := p.model.Stages(in.PC, p.env.TailScale())
	if !in.Class.IsMem() {
		mask &^= 1 << isa.Memory
	}
	for ; mask != 0; mask &= mask - 1 {
		s := isa.Stage(bits.TrailingZeros16(uint16(mask)))
		if p.model.Violates(in.PC, s, p.env, di.seq) {
			if mg := p.model.Margin(in.PC, s); mg > bestMargin {
				bestMargin = mg
				di.fault = true
				di.faultStage = s
			}
		}
	}
	if di.fault {
		p.stats.Faults++
		p.stats.FaultsByStage[di.faultStage]++
	}

	// Branch outcome and predictor training happen once, at first fetch.
	if in.Class == isa.Branch {
		p.bp.Update(in.PC, in.Taken, in.Target)
		if p.noise.Mispredict() {
			di.mispredict = true
			p.stats.BranchMispredicts++
		}
	}
	return di
}

// peekFetch returns the next instruction to fetch without consuming it:
// squashed instructions awaiting re-fetch first, then fresh trace
// instructions up to the run's fetch limit.
func (p *Pipeline) peekFetch() *dynInst {
	if len(p.replayQ) > 0 {
		return p.replayQ[0]
	}
	if p.pendingNew == nil && p.newFetched < p.fetchLimit {
		p.pendingNew = p.newDyn()
	}
	return p.pendingNew
}

func (p *Pipeline) consumeFetch(di *dynInst) {
	if len(p.replayQ) > 0 && p.replayQ[0] == di {
		p.replayQ = p.replayQ[1:]
		return
	}
	p.pendingNew = nil
	p.newFetched++
}

func (p *Pipeline) fetch() {
	if p.cycle < p.fetchResumeAt {
		return
	}
	if p.fetchBlockedBy != nil {
		// Waiting on a mispredicted branch to resolve in execute; redirect
		// the cycle after resolution.
		if p.fetchBlockedBy.execDoneAt != unknown && p.fetchBlockedBy.execDoneAt <= p.now {
			p.fetchBlockedBy = nil
			p.fetchResumeAt = p.cycle + 1
		}
		return
	}
	for budget := p.cfg.Width; budget > 0 && p.frontCount < p.cfg.FrontQ; budget-- {
		di := p.peekFetch()
		if di == nil {
			return
		}
		// Instruction cache: charge the miss latency when crossing into a
		// new line that is not resident.
		if line := di.PC >> 6; line != p.lastFetchLine {
			lat := p.hier.InstAccess(di.PC)
			p.lastFetchLine = line
			if lat > 1 {
				p.fetchResumeAt = p.cycle + uint64(lat)
				if p.obs != nil {
					p.pendingIFetch += uint64(lat)
				}
				return
			}
		}
		// Violations in fetch/decode cannot be predicted by the TEP and are
		// recovered by replay (§2.2); here the instruction simply has not
		// left the front end, so recovery is a fetch bubble. Under a deep
		// hazard the replay itself can fail (ReplayReliable), in which case
		// the same instruction faults again on the next fetch attempt.
		if !di.replaySafe && di.fault && di.faultStage.ReplayOnly() {
			di.replaySafe = p.env.ReplayReliable()
			p.stats.Mispredicted++
			p.stats.Replays++
			if p.obs != nil {
				// The bubble stalls only the front end and produces no
				// stall-cycle events; charge it directly on the replay.
				bubble := uint64(p.cfg.ReplayBubble)
				p.emitViolation(di, di.faultStage, bubble, 0, bubble*uint64(p.cfg.Width))
			}
			p.fetchResumeAt = p.cycle + uint64(p.cfg.ReplayBubble) + 1
			return
		}
		p.consumeFetch(di)
		p.stats.Fetched++
		if p.obs != nil {
			var mp uint64
			if di.mispredict {
				mp = 1
			}
			p.obs.Event(obs.Event{Kind: obs.KindFetch, Cycle: p.cycle,
				Seq: di.seq, PC: di.PC, Class: di.Class,
				A: mp, B: p.pendingIFetch})
			p.pendingIFetch = 0
		}
		di.availAt = p.now + uint64(p.cfg.FrontDepth)
		di.history = p.bp.History()
		// TEP access in parallel with decode (§2.1.1).
		if p.scheme.UsesTEP() {
			di.pred = p.tep.Lookup(di.PC, di.history, p.env.Favorable())
		}
		p.frontPush(di)
		if di.mispredict {
			p.fetchBlockedBy = di
			return
		}
	}
}

// -------------------------------------------------------------- dispatch --

func (p *Pipeline) dispatch() {
	for budget := p.cfg.Width; budget > 0 && p.frontCount > 0; budget-- {
		di := p.frontQ[p.frontHead]
		if di.availAt > p.now {
			return
		}
		if p.robCount == p.cfg.ROBSize {
			p.stats.StallROB++
			p.emitDispatchStall(obs.DispatchStallROB, budget)
			return
		}
		if p.iqCount >= p.cfg.IQSize {
			p.stats.StallIQ++
			p.emitDispatchStall(obs.DispatchStallIQ, budget)
			return
		}
		switch di.Class {
		case isa.Load:
			if p.loads >= p.cfg.LQSize {
				p.stats.StallLSQ++
				p.emitDispatchStall(obs.DispatchStallLSQ, budget)
				return
			}
		case isa.Store:
			if p.stores >= p.cfg.SQSize {
				p.stats.StallLSQ++
				p.emitDispatchStall(obs.DispatchStallLSQ, budget)
				return
			}
		}
		if di.Dest > 0 && p.freePhys == 0 {
			p.stats.StallPhys++
			p.emitDispatchStall(obs.DispatchStallPhys, budget)
			return
		}

		// In-order-engine violations at rename/dispatch (§2.2), for the few
		// instructions with a predicted or actual fault.
		if di.fault || di.pred.Fault {
			for _, st := range [2]isa.Stage{isa.Rename, isa.Dispatch} {
				if p.scheme.UsesTEP() && di.predictedAt(st) {
					p.predictedInOrder(di, st)
				} else if di.actualAt(st) {
					p.recoverInOrder(di)
					return
				}
			}
		}

		p.frontPop()
		di.timestamp = p.iqAlloc & core.TimestampMask
		p.iqAlloc++
		// Register rename: link sources to unissued producers; an issued
		// producer's tag broadcast time is already known.
		for k, reg := range [2]int8{di.Src1, di.Src2} {
			if reg <= 0 || p.writers[reg] == nil {
				continue
			}
			if w := p.writers[reg]; !w.issued {
				di.src[k] = w
			} else if w.depReadyAt > di.readyAt {
				di.readyAt = w.depReadyAt
			}
		}
		if di.Dest > 0 {
			p.writers[di.Dest] = di
			p.freePhys--
		}
		if di.fillAt != 0 {
			// A re-dispatched load's fill time went onto the real clock when
			// it was squashed; a fill already past stays past.
			if di.fillAt > p.cycle {
				di.fillAt -= p.cycle - p.now
			} else {
				di.fillAt = p.now
			}
		}
		p.robPush(di)
		p.iqCount++
		p.link(di)
		switch di.Class {
		case isa.Load:
			p.loads++
		case isa.Store:
			p.stores++
			p.storeAt = append(p.storeAt, di.Addr)
		}
		p.stats.Dispatched++
		if p.obs != nil {
			p.obs.Event(obs.Event{Kind: obs.KindDispatch, Cycle: p.cycle,
				Seq: di.seq, PC: di.PC, Class: di.Class})
		}
	}
}

// ---------------------------------------------------------------- issue --

func laneKind(c isa.Class) core.FUKind {
	return core.KindFor(c.IsMem(), c == isa.IntMul || c == isa.IntDiv)
}

// wheelSize returns the timing wheel's slot count: a power of two above the
// longest wakeup distance the machine normally schedules (a load missing to
// memory behind a divide-length execute, one extra cycle in every stage and
// a replay). A longer distance still works: the entry waits in its slot
// until the wheel comes round to its cycle, and is visited on each pass.
func wheelSize(cfg Config) int {
	maxExec := 0
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if lat, _ := c.Latency(); lat > maxExec {
			maxExec = lat
		}
	}
	h := cfg.Hierarchy
	span := h.L1D.Latency + h.L2.Latency + h.MemLatency + maxExec + cfg.ReplayLatency + int(isa.NumStages)
	n := 64
	for n <= span {
		n <<= 1
	}
	return n
}

// link files a dispatched (or flush-surviving) unissued instruction in its
// one waiting place: the consumer chain of each distinct unissued producer,
// or, with none left, the wakeup schedule. A consumer reading one producer
// on both operands joins its chain once, through operand 0.
func (p *Pipeline) link(di *dynInst) {
	di.waits = 0
	for k, w := range di.src {
		di.wakeNext[k] = nil
		if w == nil || (k == 1 && di.src[0] == w) {
			continue
		}
		di.wakeNext[k] = w.consumers
		w.consumers = di
		di.waits++
	}
	if di.waits == 0 {
		p.schedule(di)
	}
}

// schedule puts an entry whose producers have all issued where select will
// find it when its last tag broadcasts: the ready list if that is no later
// than now (callers add entries in seq order on this path), else the wheel
// slot of readyAt.
func (p *Pipeline) schedule(di *dynInst) {
	if di.readyAt <= p.now {
		di.wheelNext = nil
		p.ready = append(p.ready, di)
		return
	}
	slot := &p.wheel[di.readyAt&p.wheelMask]
	di.wheelNext = *slot
	*slot = di
}

// wakeup is the producer side of the tag broadcast, run when di issues:
// each consumer waiting on di drops its link, learns the broadcast time,
// and is scheduled once its last producer has issued. It returns the number
// of distinct consumers woken — the tag matches the CDL counts (§3.5.2).
func (p *Pipeline) wakeup(di *dynInst) int {
	n := 0
	for c := di.consumers; c != nil; n++ {
		k := 0
		if c.src[0] != di {
			k = 1
		}
		next := c.wakeNext[k]
		c.wakeNext[k] = nil
		if c.src[0] == di {
			c.src[0] = nil
		}
		if c.src[1] == di {
			c.src[1] = nil
		}
		if di.depReadyAt > c.readyAt {
			c.readyAt = di.depReadyAt
		}
		if c.waits--; c.waits == 0 {
			p.schedule(c)
		}
		c = next
	}
	di.consumers = nil
	p.examined += uint64(n)
	return n
}

// selectIssue is the wakeup/select stage with the SLE of §3.5.1: entries
// whose last tag broadcasts this cycle leave the timing wheel for the ready
// list, the ready entries bid, the policy sets grant lines, and the FUSR
// gates lane availability. The ready list stays in dispatch order because a
// candidate's Index is its position and core.Order breaks (priority, age)
// ties by Index: mod-64 ages tie once an entry outlives 64 dispatches, and
// the earlier-dispatched entry must win.
func (p *Pipeline) selectIssue() {
	link := &p.wheel[p.now&p.wheelMask]
	for e := *link; e != nil; e = *link {
		p.examined++
		if e.readyAt != p.now {
			link = &e.wheelNext // due on a later turn of the wheel
			continue
		}
		*link = e.wheelNext
		e.wheelNext = nil
		i := len(p.ready)
		p.ready = append(p.ready, e)
		for ; i > 0 && p.ready[i-1].seq > e.seq; i-- {
			p.ready[i] = p.ready[i-1]
		}
		p.ready[i] = e
	}

	p.cands = p.cands[:0]
	for i, di := range p.ready {
		p.cands = append(p.cands, core.Candidate{
			Index:     i,
			Timestamp: di.timestamp,
			Faulty:    di.pred.Fault,
			Critical:  di.pred.Critical,
		})
	}
	p.examined += uint64(len(p.cands))
	p.stats.SumReadyCands += uint64(len(p.cands))
	if len(p.cands) == 0 {
		return
	}
	core.Order(p.scheme.Policy(), p.cands, p.iqAlloc&core.TimestampMask)
	grants := 0
	for _, c := range p.cands {
		if grants == p.cfg.Width {
			break
		}
		di := p.ready[c.Index]
		lane := p.fusr.Available(laneKind(di.Class), p.cycle)
		if lane < 0 {
			continue
		}
		p.issueInst(di, lane)
		grants++
	}
	if grants > 0 {
		kept := p.ready[:0]
		for _, di := range p.ready {
			if !di.issued {
				kept = append(kept, di)
			}
		}
		p.ready = kept
	}
}

// issueInst schedules di on lane at the current cycle, applying the
// violation-aware handling of §3.2/§3.3 for every OoO stage it will
// traverse, and computes its timing.
func (p *Pipeline) issueInst(di *dynInst, lane int) {
	t := p.cycle
	di.issued = true
	p.iqCount--
	di.selectedAt = t
	di.lane = lane
	p.stats.Selected++

	isMem := di.Class.IsMem()
	var extra [isa.NumStages]uint64
	var bcastDelay uint64 // confined extra cycles ahead of the tag broadcast
	issueFreeze := false  // issue-stage CAM fault: slot freeze is the only cost
	replayStage := isa.NumStages

	// Only an instruction with a predicted or actual fault acts on the
	// violation path; for every other one each stage's handling is a no-op.
	if di.fault || di.pred.Fault {
		p.handleStage(di, isa.Issue, &extra, &bcastDelay, &issueFreeze, &replayStage)
		p.handleStage(di, isa.RegRead, &extra, &bcastDelay, &issueFreeze, &replayStage)
		p.handleStage(di, isa.Execute, &extra, &bcastDelay, &issueFreeze, &replayStage)
		if isMem {
			p.handleStage(di, isa.Memory, &extra, &bcastDelay, &issueFreeze, &replayStage)
		}
		p.handleStage(di, isa.Writeback, &extra, &bcastDelay, &issueFreeze, &replayStage)
	}

	// Unpredicted violation: Razor-style error recovery (§2.1.2). The
	// shadow-latch path corrects the errant computation and the instruction
	// replays through the faulty stage; recovery control inserts pipeline
	// bubbles while the replay is set up. Modeled as ReplayLatency extra
	// cycles on the instruction (its dependents wait for the replayed
	// result) plus a ReplayBubble whole-pipeline recovery stall. This is
	// calibrated to the Razor overheads of Table 1; a full flush-and-refetch
	// recovery overshoots the paper's measured Razor cost substantially.
	if replayStage != isa.NumStages {
		if p.cfg.FullFlushReplay {
			// Architectural replay: squash from the errant instruction and
			// re-fetch. Deferred to the top of the next cycle so the issue
			// loop's view of the queue stays stable.
			if p.pendingFlush == nil || di.seq < p.pendingFlush.seq {
				p.pendingFlush = di
			}
		} else {
			extra[replayStage] += uint64(p.cfg.ReplayLatency)
			p.globalFreeze += p.cfg.ReplayBubble
			p.globalFreezeReplay += p.cfg.ReplayBubble
			p.stats.Replays++
			p.stats.Mispredicted++
			di.replaySafe = p.env.ReplayReliable()
			if p.obs != nil {
				p.emitViolation(di, replayStage, uint64(p.cfg.ReplayBubble),
					uint64(p.cfg.ReplayLatency), 0)
			}
			if p.scheme.UsesTEP() {
				p.tep.Train(di.PC, di.history, true, di.faultStage)
			}
		}
	}

	// Timing, on the machine clock. Selected at now; register read at now+1;
	// execution and (for memory ops) the D-cache/LSQ follow; dependents wake
	// via tag broadcast (delayed one cycle per confined violation up to the
	// broadcast, §3.2.2). frozen converts to the real cycles the FUSR and
	// the observer count in.
	frozen := t - p.now
	exLat, pipelined := di.Class.Latency()
	rrDone := p.now + 1 + extra[isa.Issue] + extra[isa.RegRead]
	execDone := rrDone + uint64(exLat) + extra[isa.Execute]
	var loadLat uint64 // data-access latency for loads (KindIssue payload C)
	if isMem {
		memLat := uint64(1)
		if di.Class == isa.Load {
			switch {
			case di.fillAt != 0:
				// Re-execution after a squash: the original miss is still
				// being serviced (or already filled); pay only the remainder.
				if execDone < di.fillAt {
					memLat = di.fillAt - execDone
				}
			case p.forwards(di.Addr):
				di.fillAt = execDone + 1 // store-to-load forward
			default:
				memLat = uint64(p.hier.DataAccess(di.Addr))
				di.fillAt = execDone + memLat
			}
			loadLat = memLat
		}
		memDone := execDone + memLat + extra[isa.Memory]
		di.depReadyAt = memDone
		di.completeAt = memDone + 1 + extra[isa.Writeback]
	} else {
		di.depReadyAt = execDone - 1
		di.completeAt = execDone + 1 + extra[isa.Writeback]
	}
	di.execDoneAt = execDone

	// Functional-unit and slot management (§3.2.3, §3.3).
	faultyHold := issueFreeze || extra[isa.Issue]+extra[isa.Execute] > 0
	p.fusr.Issue(lane, t, exLat, pipelined, faultyHold)
	if faultyHold {
		p.stats.SlotFreezes++
	}
	if extra[isa.RegRead] > 0 {
		// Register-read port blocked one additional cycle (§3.3.2).
		p.fusr.Freeze(lane, rrDone+frozen)
		p.stats.SlotFreezes++
	}
	if isMem && extra[isa.Memory] > 0 {
		// No load/store CAM match right behind the faulty one (§3.3.4).
		p.fusr.Freeze(lane, execDone+1+frozen)
		p.stats.SlotFreezes++
	}
	if extra[isa.Writeback] > 0 {
		// Writeback input slot recirculates (§3.3.5).
		p.fusr.Freeze(lane, di.completeAt-1+frozen)
		p.stats.SlotFreezes++
	}

	if di.Dest > 0 {
		p.stats.Broadcasts++
		if p.obs != nil && bcastDelay > 0 {
			p.obs.Event(obs.Event{Kind: obs.KindDelayedBroadcast, Cycle: p.cycle,
				Seq: di.seq, PC: di.PC, Class: di.Class,
				Lane: int16(lane), A: bcastDelay})
		}
	}
	p.stats.ExecByClass[di.Class]++

	// Wake the waiting consumers. Their count is the Criticality Detection
	// Logic's tag-match count (§3.5.2): the distinct consumers waiting in the
	// issue queue on this producer. The determination is stored with the
	// TEP; only the CDS scheme builds this hardware (Table 2).
	if matches := p.wakeup(di); p.scheme == core.CDS && di.Dest > 0 && p.cdl.Critical(matches) {
		p.tep.SetCritical(di.PC, di.history, true)
		p.stats.CriticalMarks++
	}

	if p.obs != nil {
		p.obs.Event(obs.Event{Kind: obs.KindIssue, Cycle: t,
			Seq: di.seq, PC: di.PC, Class: di.Class,
			Lane: int16(lane), A: di.depReadyAt + frozen, B: di.completeAt + frozen,
			C: loadLat})
	}
}

// handleStage applies the violation-aware handling of §3.2/§3.3 for one OoO
// stage di will traverse, accumulating timing adjustments into the caller's
// locals. A method with out-parameters rather than a closure so the hot
// issue path stays off the heap.
func (p *Pipeline) handleStage(di *dynInst, stage isa.Stage,
	extra *[isa.NumStages]uint64, bcastDelay *uint64, issueFreeze *bool, replayStage *isa.Stage) {
	predicted := p.scheme.UsesTEP() && di.predictedAt(stage)
	actual := di.actualAt(stage)
	if predicted {
		act := core.Respond(p.scheme, true, stage)
		switch act {
		case core.ActConfined:
			if stage == isa.Issue {
				// §3.3.1: the violation is in the wakeup/select CAM.
				// The issue slot for the functional unit freezes for one
				// cycle, so the wakeup lane's inputs stay steady for two
				// cycles and the CAM computation completes. With the
				// two-stage issue of Core-1 (wakeup then select), the
				// extra CAM cycle overlaps the select stage: neither the
				// faulty instruction nor its dependents are delayed —
				// the entire cost is the frozen issue slot. (Contrast
				// execute-stage faults, Figure 2, where the result
				// itself is late and dependents must be held back.)
				*issueFreeze = true
			} else {
				extra[stage] = 1
				if stage != isa.Writeback {
					*bcastDelay++ // dependents wake one cycle later (§3.2.2)
				}
			}
			p.stats.ConfinedEvents++
		case core.ActGlobalStall:
			extra[stage] = 1
			p.globalFreeze++
		}
		if actual {
			p.stats.PredictedFaults++
			di.replaySafe = true // the extra cycle covers the violation
		} else {
			p.stats.FalsePositives++
		}
		if p.obs != nil {
			p.emitPredicted(di, stage, actual, act)
		}
	} else if actual && *replayStage == isa.NumStages {
		*replayStage = stage
	}
}

// forwards reports whether an in-flight store to addr can forward to a load:
// a linear search of the store CAM, which holds at most SQSize addresses.
func (p *Pipeline) forwards(addr uint64) bool {
	for _, a := range p.storeAt {
		if a == addr {
			return true
		}
	}
	return false
}

// dropStore removes one instance of addr from the store CAM as a store
// leaves the window. The CAM is a multiset, so any matching slot will do.
func (p *Pipeline) dropStore(addr uint64) {
	for i, a := range p.storeAt {
		if a == addr {
			last := len(p.storeAt) - 1
			p.storeAt[i] = p.storeAt[last]
			p.storeAt = p.storeAt[:last]
			return
		}
	}
}

// --------------------------------------------------------------- replay --

// recoverInOrder handles an unpredicted violation in the in-order engine
// (rename/dispatch): the stage's computation is corrected and re-run while
// the front end recirculates (§2.2); recovery costs a front-end bubble.
func (p *Pipeline) recoverInOrder(di *dynInst) {
	p.stats.Replays++
	p.stats.Mispredicted++
	di.replaySafe = p.env.ReplayReliable()
	if p.obs != nil {
		p.emitViolation(di, di.faultStage, uint64(p.cfg.ReplayBubble), 0, 0)
	}
	p.frontFreeze += p.cfg.ReplayBubble
	p.frontFreezeReplay += p.cfg.ReplayBubble
	if p.scheme.UsesTEP() {
		p.tep.Train(di.PC, di.history, true, di.faultStage)
	}
}

// flushReplay performs architectural replay (Config.FullFlushReplay): the
// errant instruction and everything younger are squashed, their resources
// released, and all of them re-fetched in program order.
func (p *Pipeline) flushReplay(di *dynInst) {
	if di.retired || !di.issued {
		return // already squashed by an older flush, or retired
	}
	p.stats.Replays++
	p.stats.Mispredicted++
	di.replaySafe = p.env.ReplayReliable()
	if p.obs != nil {
		p.emitViolation(di, di.faultStage, uint64(p.cfg.ReplayBubble), 0, 0)
	}
	if p.scheme.UsesTEP() {
		p.tep.Train(di.PC, di.history, true, di.faultStage)
	}

	// Squash the ROB suffix from di (inclusive), youngest first.
	var squashed []*dynInst
	for p.robCount > 0 {
		tail := p.robAt(p.robCount - 1)
		if tail.seq < di.seq {
			break
		}
		p.robCount--
		p.squash(tail)
		squashed = append(squashed, tail)
	}
	for i, j := 0, len(squashed)-1; i < j; i, j = i+1, j-1 {
		squashed[i], squashed[j] = squashed[j], squashed[i]
	}
	p.stats.SquashedInsts += uint64(len(squashed))
	if p.obs != nil {
		p.obs.Event(obs.Event{Kind: obs.KindFlush, Cycle: p.cycle,
			Seq: di.seq, PC: di.PC, Stage: di.faultStage,
			A: uint64(len(squashed)), B: uint64(p.cfg.ReplayBubble)})
	}

	// Front-end instructions are younger than everything in the ROB.
	for i := 0; i < p.frontCount; i++ {
		fq := p.frontAt(i)
		fq.resetPipelineState()
		squashed = append(squashed, fq)
	}
	for i := range p.frontQ {
		p.frontQ[i] = nil
	}
	p.frontHead, p.frontCount = 0, 0
	p.replayQ = append(squashed, p.replayQ...)

	// Rebuild the rename map and the wakeup state from the surviving window:
	// empty every consumer chain, then refile each unissued survivor. Its
	// producers are older than it, so they survived, and its src links and
	// readyAt still hold.
	for r := range p.writers {
		p.writers[r] = nil
	}
	for i := 0; i < p.robCount; i++ {
		e := p.robAt(i)
		if e.Dest > 0 {
			p.writers[e.Dest] = e
		}
		e.consumers = nil
	}
	p.ready = p.ready[:0]
	clear(p.wheel)
	for i := 0; i < p.robCount; i++ {
		if e := p.robAt(i); !e.issued {
			p.link(e)
		}
	}

	if p.fetchBlockedBy != nil && p.fetchBlockedBy.seq >= di.seq {
		p.fetchBlockedBy = nil
	}
	p.fetchResumeAt = p.cycle + uint64(p.cfg.ReplayBubble)
}

// squash releases the resources a dispatched instruction holds. A load's
// fill time leaves the machine clock with it: the refill keeps its real
// cycle while the load waits outside the ROB, and dispatch converts it
// back.
func (p *Pipeline) squash(di *dynInst) {
	if !di.issued {
		p.iqCount--
	}
	if di.fillAt != 0 {
		di.fillAt += p.cycle - p.now
	}
	if di.Dest > 0 {
		p.freePhys++
	}
	switch di.Class {
	case isa.Load:
		p.loads--
	case isa.Store:
		p.stores--
		p.dropStore(di.Addr)
	}
	di.resetPipelineState()
}

// --------------------------------------------------------------- retire --

func (p *Pipeline) retire() {
	for budget := p.cfg.Width; budget > 0 && p.robCount > 0; budget-- {
		di := p.rob[p.robHead]
		if !di.issued || di.completeAt == unknown || di.completeAt > p.now {
			return
		}
		if (di.fault || di.pred.Fault) && p.retireViolation(di) {
			return
		}

		p.robHead = wrap(p.robHead, 1, len(p.rob))
		p.robCount--
		di.retired = true
		if di.Dest > 0 {
			p.freePhys++
			// Drop the rename-map reference so the record can be recycled.
			// Behaviour-identical: rename only links producers whose result is
			// still pending (depReadyAt > cycle), which a retired instruction
			// never is.
			if p.writers[di.Dest] == di {
				p.writers[di.Dest] = nil
			}
		}
		switch di.Class {
		case isa.Load:
			p.loads--
		case isa.Store:
			p.stores--
			p.dropStore(di.Addr)
			// The store's line is installed at commit; timing is off the
			// critical path but the cache contents matter to later loads.
			p.hier.DataAccess(di.Addr)
			p.stats.StoresRetired++
		}
		// Train the TEP with ground truth (2-bit counter learn/decay).
		if p.scheme.UsesTEP() {
			p.tep.Train(di.PC, di.history, di.fault, di.faultStage)
		}
		p.stats.Committed++
		if p.obs != nil {
			p.obs.Event(obs.Event{Kind: obs.KindRetire, Cycle: p.cycle,
				Seq: di.seq, PC: di.PC, Class: di.Class,
				Lane: int16(di.lane), A: di.selectedAt})
		}
		p.pendingFree = append(p.pendingFree, di)
	}
}

// retireViolation applies a retire-stage violation (§2.2) to the ROB head:
// stall-tolerated when predicted. It reports whether commit is blocked this
// cycle, which an unpredicted violation's replay does.
func (p *Pipeline) retireViolation(di *dynInst) bool {
	if p.scheme.UsesTEP() && di.predictedAt(isa.Retire) {
		p.predictedInOrder(di, isa.Retire)
		return false
	}
	if !di.actualAt(isa.Retire) {
		return false
	}
	// Unpredicted retire-stage violation: correct and re-run the retire
	// cycle; the whole machine waits out the recovery. When the hazard has
	// pushed the delay scale past the replay limit, the re-run fails too and
	// commit stays blocked — the livelock the supervisor's watchdog exists to
	// break.
	p.stats.Replays++
	p.stats.Mispredicted++
	di.replaySafe = p.env.ReplayReliable()
	if p.obs != nil {
		p.emitViolation(di, isa.Retire, uint64(p.cfg.ReplayBubble), 0, 0)
	}
	p.globalFreeze += p.cfg.ReplayBubble
	p.globalFreezeReplay += p.cfg.ReplayBubble
	if p.scheme.UsesTEP() {
		p.tep.Train(di.PC, di.history, true, di.faultStage)
	}
	return true
}

// predictedInOrder applies a predicted in-order-engine violation at
// rename, dispatch or retire (§2.2): the scheme's stall gives the stage its
// second cycle.
func (p *Pipeline) predictedInOrder(di *dynInst, st isa.Stage) {
	act := core.Respond(p.scheme, true, st)
	switch act {
	case core.ActFrontStall:
		p.frontFreeze++
	case core.ActGlobalStall:
		p.globalFreeze++
	}
	actual := di.actualAt(st)
	if actual {
		p.stats.PredictedFaults++
		di.replaySafe = true // the stall gave the stage its 2nd cycle
	} else {
		p.stats.FalsePositives++
	}
	if p.obs != nil {
		p.emitPredicted(di, st, actual, act)
	}
}

// ------------------------------------------------------------------ rob --

func (p *Pipeline) robPush(di *dynInst) {
	p.rob[wrap(p.robHead, p.robCount, len(p.rob))] = di
	p.robCount++
}

// robAt returns the i-th ROB entry in program order (0 is the head).
func (p *Pipeline) robAt(i int) *dynInst {
	return p.rob[wrap(p.robHead, i, len(p.rob))]
}

// SetVDD retargets the operating voltage mid-run (closed-loop DVFS): newly
// fetched instructions see the new fault environment; in-flight work is
// unaffected. While the supervisor holds the top rung the safe supply is
// authoritative: the request becomes the restore target applied when the
// supervisor steps back down, so a DVFS governor cannot undercut an active
// recovery.
func (p *Pipeline) SetVDD(v float64) {
	if p.sup != nil && p.sup.Level() == core.NumSupLevels-1 {
		p.supSavedVDD = v
		return
	}
	p.env.SetVDD(v)
}

// SetHazard attaches (or, with nil, detaches) a hazard timeline on the
// operating environment (see fault.Env.SetHazard).
func (p *Pipeline) SetHazard(h fault.Hazard) { p.env.SetHazard(h) }

// Scheme returns the handling scheme currently in force — cfg.Scheme unless
// the supervisor has escalated.
func (p *Pipeline) Scheme() core.Scheme { return p.scheme }

// Supervisor exposes the graceful-degradation supervisor (nil when
// Config.Supervisor is nil).
func (p *Pipeline) Supervisor() *core.Supervisor { return p.sup }
