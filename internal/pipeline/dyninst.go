package pipeline

import (
	"math"

	"tvsched/internal/isa"
	"tvsched/internal/tep"
)

// unknown marks a cycle value not yet determined.
const unknown = math.MaxUint64

// dynInst is one dynamic instruction in flight. Its identity (seq, the
// instruction fields, fault ground truth, oracle branch outcome) is fixed at
// first fetch and survives replays; pipeline state is reset when the
// instruction is squashed.
type dynInst struct {
	seq uint64
	// The fields of the isa.Inst the loop reads. A branch's outcome (Taken,
	// Target) is consumed at first fetch, where it trains the predictor.
	PC, Addr         uint64
	Class            isa.Class
	Dest, Src1, Src2 int8

	// Identity decided at first fetch.
	fault      bool      // ground truth: violates somewhere if given 1 cycle
	faultStage isa.Stage // the violating stage (most critical if several)
	mispredict bool      // oracle decision: branch pays the mispredict loop
	replaySafe bool      // set after a replay; re-execution cannot fault
	// fillAt is the cycle a load's cache fill completes: on the machine
	// clock while the load is in the ROB, on the real clock outside it (see
	// Pipeline.squash). A replayed load pays only the remaining latency (the
	// miss it initiated keeps being serviced while the pipeline recovers).
	fillAt uint64

	// Front-end state.
	availAt uint64 // machine cycle at which dispatch may consume it
	history uint64 // branch history at (re)fetch, for TEP indexing
	pred    tep.Prediction

	// Issue-queue state. A dispatched, unissued instruction waits in
	// exactly one place: the consumer chain of each of its unissued
	// producers (waits > 0), the timing-wheel slot of readyAt (its last
	// producer has issued and broadcasts its tag later), or the ready list.
	timestamp uint8       // 6-bit mod-64 allocation stamp (§3.5)
	waits     uint8       // distinct unissued producers
	src       [2]*dynInst // unissued producers; cleared when the producer issues
	readyAt   uint64      // latest tag broadcast among its issued producers
	wakeNext  [2]*dynInst // next consumer in src[k]'s chain
	consumers *dynInst    // head of this producer's chain of waiting consumers
	wheelNext *dynInst    // next entry in the same timing-wheel slot

	// Execution state (set at select). depReadyAt, execDoneAt and
	// completeAt are on the machine clock (see Pipeline.now); selectedAt
	// is a real cycle.
	issued     bool
	lane       int
	selectedAt uint64
	depReadyAt uint64 // cycle dependents may be selected (tag broadcast)
	execDoneAt uint64 // execution result produced (branch resolution)
	completeAt uint64 // ready to retire

	retired bool
}

// init makes d the dynamic instance seq of in, with no pipeline state. It
// sets d field by field: assigning a whole dynInst literal builds it on the
// stack and copies it, which cost fetch several percent of the loop.
func (d *dynInst) init(seq uint64, in *isa.Inst) {
	d.seq = seq
	d.PC, d.Addr, d.Class = in.PC, in.Addr, in.Class
	d.Dest, d.Src1, d.Src2 = in.Dest, in.Src1, in.Src2
	d.fault, d.faultStage, d.mispredict, d.replaySafe = false, 0, false, false
	d.fillAt, d.history = 0, 0
	d.resetPipelineState()
}

// resetPipelineState clears everything a squash must undo, keeping identity.
func (d *dynInst) resetPipelineState() {
	d.availAt = unknown
	d.pred = tep.Prediction{}
	d.timestamp = 0
	d.src[0], d.src[1] = nil, nil
	d.waits = 0
	d.readyAt = 0
	d.wakeNext[0], d.wakeNext[1] = nil, nil
	d.consumers = nil
	d.wheelNext = nil
	d.issued = false
	d.lane = 0
	// unknown (== obs.NeverIssued) rather than 0: cycle 0 is a valid select
	// time, so KindRetire consumers need a distinct never-issued sentinel.
	d.selectedAt = unknown
	d.depReadyAt = unknown
	d.execDoneAt = unknown
	d.completeAt = unknown
	d.retired = false
}

// predictedAt reports whether the TEP predicted a violation for this
// instruction in the given stage.
func (d *dynInst) predictedAt(stage isa.Stage) bool {
	return d.pred.Fault && d.pred.Stage == stage
}

// actualAt reports whether this instruction actually violates in stage
// (ground truth, ignoring handling), accounting for replay safety.
func (d *dynInst) actualAt(stage isa.Stage) bool {
	return d.fault && !d.replaySafe && d.faultStage == stage
}
