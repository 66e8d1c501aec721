package core

import (
	"fmt"

	"tvsched/internal/obs"
)

// FUKind classifies the functional-unit lanes of the Core-1 execute stage:
// single-cycle simple ALUs (which also resolve branches), a multi-cycle
// complex ALU, and a memory port feeding the load-store unit (§3.3.3, §4.1).
type FUKind uint8

const (
	FUSimple FUKind = iota
	FUComplex
	FUMemory
	NumFUKinds
)

// String names the FU kind.
func (k FUKind) String() string {
	switch k {
	case FUSimple:
		return "simple"
	case FUComplex:
		return "complex"
	case FUMemory:
		return "memory"
	default:
		return fmt.Sprintf("fu(%d)", uint8(k))
	}
}

// Lane describes one functional-unit lane.
type Lane struct {
	Kind FUKind
	// nextFree is the first cycle at which a new instruction may be issued
	// to this lane. Pipelined lanes advance it by one per issue;
	// non-pipelined operations reserve the lane for their full latency;
	// VTE slot freezing pushes it one further (§3.2.3, §3.3.3).
	nextFree uint64
}

// FUSR is the Functional Unit State Register of §3.3.3: one state per lane
// indicating whether a new instruction can be issued to that unit in the
// next cycle. Issue-slot freezing for faulty instructions (§3.2.3) is
// implemented by extending a lane's busy time by one cycle.
type FUSR struct {
	lanes []Lane
	// first[k] is the index of kind k's first lane: NewFUSR lays the kinds
	// out in FUKind order, so kind k owns lanes [first[k], first[k+1]).
	first [NumFUKinds + 1]int
	obs   obs.Observer
}

// SetObserver attaches o to the FUSR's slot-freeze paths: every freeze the
// VTE applies (§3.2.3, §3.3) fires a KindSlotFreeze event. nil detaches.
func (f *FUSR) SetObserver(o obs.Observer) { f.obs = o }

// NewFUSR builds the lane set for the Core-1 configuration: nSimple simple
// ALUs, nComplex complex ALUs and nMemory memory ports.
func NewFUSR(nSimple, nComplex, nMemory int) *FUSR {
	f := &FUSR{}
	for k, n := range [NumFUKinds]int{nSimple, nComplex, nMemory} {
		f.first[k] = len(f.lanes)
		for i := 0; i < n; i++ {
			f.lanes = append(f.lanes, Lane{Kind: FUKind(k)})
		}
	}
	f.first[NumFUKinds] = len(f.lanes)
	return f
}

// NumLanes returns the total lane count.
func (f *FUSR) NumLanes() int { return len(f.lanes) }

// Kind returns the kind of lane i.
func (f *FUSR) Kind(i int) FUKind { return f.lanes[i].Kind }

// Available returns the index of the lowest lane of the given kind that can
// accept an instruction at cycle, or -1 if none can. Only that kind's lanes
// are scanned.
func (f *FUSR) Available(kind FUKind, cycle uint64) int {
	for i := f.first[kind]; i < f.first[kind+1]; i++ {
		if f.lanes[i].nextFree <= cycle {
			return i
		}
	}
	return -1
}

// Issue marks lane as having accepted an instruction at cycle.
//
//   - A pipelined unit accepts a new instruction every cycle: busy 1 cycle.
//   - A non-pipelined unit is reserved for the operation's full latency
//     (occupancy cycles).
//   - faulty applies the paper's slot freeze: the FUSR bit stays off one
//     extra cycle so no new instruction issues right behind the faulty one.
//     For non-pipelined units the busy state likewise extends one cycle
//     beyond the expected completion (§3.3.3); for multi-cycle pipelined
//     units the conservative policy of §3.3.3 — no new issue to the unit
//     until the faulty instruction completes — is modeled by reserving the
//     lane for the full occupancy as if it were unpipelined.
func (f *FUSR) Issue(lane int, cycle uint64, occupancy int, pipelined, faulty bool) {
	busy := 1
	if !pipelined {
		busy = occupancy
	}
	if faulty {
		if pipelined && occupancy > 1 {
			busy = occupancy // hold the whole pipelined unit (§3.3.3)
		}
		busy++
	}
	until := cycle + uint64(busy)
	if until > f.lanes[lane].nextFree {
		f.lanes[lane].nextFree = until
	}
	if faulty && f.obs != nil {
		f.obs.Event(obs.Event{Kind: obs.KindSlotFreeze, Cycle: cycle, Lane: int16(lane), A: until})
	}
}

// Freeze blocks lane for one extra cycle starting at cycle (used for
// register-read port blocking and writeback slot recirculation, §3.3.2 and
// §3.3.5, which share the mechanism).
func (f *FUSR) Freeze(lane int, cycle uint64) {
	if until := cycle + 1; until > f.lanes[lane].nextFree {
		f.lanes[lane].nextFree = until
	}
	if f.obs != nil {
		f.obs.Event(obs.Event{Kind: obs.KindSlotFreeze, Cycle: cycle, Lane: int16(lane), A: cycle + 1})
	}
}

// ShiftAll pushes every pending lane reservation one cycle later; used when
// the whole pipeline recirculates for a stall cycle.
func (f *FUSR) ShiftAll(cycle uint64) {
	for i := range f.lanes {
		if f.lanes[i].nextFree > cycle {
			f.lanes[i].nextFree++
		}
	}
}

// NextFree exposes a lane's next-free cycle (diagnostics and tests).
func (f *FUSR) NextFree(lane int) uint64 { return f.lanes[lane].nextFree }

// Reset clears all lane reservations.
func (f *FUSR) Reset() {
	for i := range f.lanes {
		f.lanes[i].nextFree = 0
	}
}

// KindFor maps an instruction-class occupancy to its lane kind. Loads and
// stores use the memory port; multiplies and divides the complex ALU;
// everything else (ALU ops and branches) the simple ALUs.
func KindFor(isMem, isComplex bool) FUKind {
	switch {
	case isMem:
		return FUMemory
	case isComplex:
		return FUComplex
	default:
		return FUSimple
	}
}
