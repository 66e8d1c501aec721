package pipeline

import (
	"errors"
	"fmt"

	"tvsched/internal/isa"
)

// This file is the opt-in correctness harness for the simulator's resource
// bookkeeping (Config.Debug wires it into every cycle of RunContext). The
// paper's comparisons live or die on cycle accounting being exact, so every
// conservation law the machine relies on is asserted here rather than trusted:
//
//   - physical registers:   freePhys + in-flight destinations == NumPhys − 32
//   - LSQ counters:         loads/stores == ROB contents, within LQ/SQ bounds
//   - store-forwarding CAM: the storeAt multiset matches in-flight stores
//   - ROB:                  ring within capacity, seq strictly increasing,
//     no retired entries resident
//   - issue queue:          its occupancy counts the unissued ROB entries,
//     and each of them waits in exactly one place of the event wakeup
//     (see checkWakeup)
//   - front end:            frontQ within capacity, in fetch order, strictly
//     younger than the whole ROB
//   - stall bookkeeping:    replay-cause freeze credit never exceeds the
//     total freeze credit
//
// CheckDrained adds the end-of-run law: a successful RunContext commits every
// instruction it fetched, so the machine must return to empty with every
// resource released.

// CheckInvariants verifies the machine's resource-conservation invariants at
// a cycle boundary. It returns nil when the state is consistent and an error
// joining every violated invariant otherwise. Safe to call at any cycle
// boundary; with Config.Debug it runs automatically after every step.
func (p *Pipeline) CheckInvariants() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("invariant: "+format, args...))
	}

	if p.robCount < 0 || p.robCount > p.cfg.ROBSize {
		fail("robCount %d outside [0,%d]", p.robCount, p.cfg.ROBSize)
		return errors.Join(errs...) // the ROB walk below would be garbage
	}

	// One walk over the ROB collects everything the window-side laws need.
	var (
		dests, loads, stores int
		unissued             int
		storeAt              = make(map[uint64]int)
		prevSeq              uint64
		maxSeq               uint64
	)
	for i := 0; i < p.robCount; i++ {
		e := p.rob[(p.robHead+i)%p.cfg.ROBSize]
		if e == nil {
			fail("nil ROB entry at slot %d", i)
			continue
		}
		if e.retired {
			fail("retired seq %d still resident in ROB slot %d", e.seq, i)
		}
		if i > 0 && e.seq <= prevSeq {
			fail("ROB seq not strictly increasing: %d after %d (slot %d)", e.seq, prevSeq, i)
		}
		prevSeq = e.seq
		maxSeq = e.seq
		if e.Dest > 0 {
			dests++
		}
		switch e.Class {
		case isa.Load:
			loads++
		case isa.Store:
			stores++
			storeAt[e.Addr]++
		}
		if !e.issued {
			unissued++
		}
	}

	// Physical-register conservation: every in-flight destination holds one
	// register; everything else is free.
	inFlight := p.cfg.NumPhys - isa.NumArchRegs
	if p.freePhys < 0 || p.freePhys > inFlight {
		fail("freePhys %d outside [0,%d]", p.freePhys, inFlight)
	}
	if p.freePhys+dests != inFlight {
		fail("phys conservation: freePhys %d + %d in-flight dests != %d", p.freePhys, dests, inFlight)
	}

	// LSQ counters mirror the ROB contents and respect their capacities.
	if loads != p.loads {
		fail("loads counter %d, ROB holds %d loads", p.loads, loads)
	}
	if stores != p.stores {
		fail("stores counter %d, ROB holds %d stores", p.stores, stores)
	}
	if p.loads < 0 || p.loads > p.cfg.LQSize {
		fail("loads %d outside [0,%d]", p.loads, p.cfg.LQSize)
	}
	if p.stores < 0 || p.stores > p.cfg.SQSize {
		fail("stores %d outside [0,%d]", p.stores, p.cfg.SQSize)
	}

	// The store-forwarding CAM is exactly the multiset of in-flight store
	// addresses: a leak turns into phantom store-to-load forwards.
	cam := make(map[uint64]int, len(p.storeAt))
	for _, addr := range p.storeAt {
		cam[addr]++
	}
	for addr, n := range storeAt {
		if got := cam[addr]; got != n {
			fail("storeAt holds %#x %d times, ROB holds %d stores to it", addr, got, n)
		}
	}
	for addr, n := range cam {
		if _, ok := storeAt[addr]; !ok {
			fail("storeAt holds %#x %d times with no in-flight store to it", addr, n)
		}
	}

	// The issue queue is exactly the unissued slice of the ROB.
	if p.iqCount > p.cfg.IQSize {
		fail("iq holds %d entries, capacity %d", p.iqCount, p.cfg.IQSize)
	}
	if p.iqCount != unissued {
		fail("iq holds %d entries, ROB holds %d unissued", p.iqCount, unissued)
	}
	p.checkWakeup(fail)

	// Front-end queue: bounded, in fetch order, strictly younger than the ROB.
	if p.frontCount > p.cfg.FrontQ {
		fail("frontQ holds %d entries, capacity %d", p.frontCount, p.cfg.FrontQ)
	}
	for i := 0; i < p.frontCount; i++ {
		e := p.frontAt(i)
		if e == nil {
			fail("nil frontQ entry at slot %d", i)
			continue
		}
		if e.issued || e.retired || e.src != [2]*dynInst{} {
			fail("frontQ[%d] (seq %d) already entered the window", i, e.seq)
		}
		if i > 0 && p.frontAt(i-1) != nil && e.seq <= p.frontAt(i-1).seq {
			fail("frontQ seq not strictly increasing: %d after %d", e.seq, p.frontAt(i-1).seq)
		}
		if p.robCount > 0 && e.seq <= maxSeq {
			fail("frontQ[%d] (seq %d) not younger than ROB tail (seq %d)", i, e.seq, maxSeq)
		}
	}

	// Stall bookkeeping: the replay-cause credit is a subset of the total.
	if p.globalFreeze < 0 || p.globalFreezeReplay < 0 || p.globalFreezeReplay > p.globalFreeze {
		fail("global freeze credit inconsistent: total %d, replay-cause %d", p.globalFreeze, p.globalFreezeReplay)
	}
	if p.frontFreeze < 0 || p.frontFreezeReplay < 0 || p.frontFreezeReplay > p.frontFreeze {
		fail("front freeze credit inconsistent: total %d, replay-cause %d", p.frontFreeze, p.frontFreezeReplay)
	}

	return errors.Join(errs...)
}

// place is where an unissued instruction waits for its operands.
type place uint8

const (
	nowhere  place = iota
	inChains       // some producer has not issued
	onWheel        // every producer has issued; the last tag broadcasts later
	inReady        // every producer's tag has broadcast
)

// checkWakeup verifies the event wakeup against a reference readiness rule
// computed from the ROB alone: an entry may issue once the producer of each
// source — the youngest older in-flight writer of that register — has issued
// and broadcast its tag (depReadyAt <= now). Every unissued ROB entry must
// wait in exactly one place:
//
//   - the ready list, which is in seq order, when every producer's tag has
//     broadcast by now;
//   - the wheel slot of readyAt, when its last producer has issued but the
//     latest of their tags broadcasts later (readyAt is that broadcast);
//   - otherwise the consumer chain of each of its unissued producers, with
//     src naming them and waits equal to their count.
//
// Issued instructions hold no producer link and no waiting consumer.
func (p *Pipeline) checkWakeup(fail func(string, ...any)) {
	robAt := func(i int) *dynInst {
		if i += p.robHead; i >= p.cfg.ROBSize {
			i -= p.cfg.ROBSize
		}
		return p.rob[i]
	}
	// win[i] tracks ROB entry i: where it must wait, and how many times the
	// ready list and wheel (held) and the consumer chains (chained) hold it.
	type waiting struct {
		want          place
		held, chained uint8
	}
	win := make([]waiting, p.robCount)
	// The wakeup structures may only hold unissued ROB entries, found here
	// by their seq (the ROB is in seq order); nil for anything else.
	find := func(e *dynInst) *waiting {
		lo, hi := 0, len(win)
		for lo < hi {
			if mid := (lo + hi) / 2; robAt(mid) != nil && robAt(mid).seq < e.seq {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(win) && robAt(lo) == e && !e.issued {
			return &win[lo]
		}
		return nil
	}

	var writer [isa.NumArchRegs]*dynInst
	for i := range win {
		e := robAt(i)
		if e == nil {
			continue
		}
		if e.issued {
			if e.src != [2]*dynInst{} || e.waits != 0 || e.consumers != nil {
				fail("issued seq %d still linked for wakeup", e.seq)
			}
		} else {
			var src [2]*dynInst
			var waits uint8
			var bcast uint64
			for k, reg := range [2]int8{e.Src1, e.Src2} {
				if reg <= 0 {
					continue
				}
				switch w := writer[reg]; {
				case w == nil:
				case !w.issued:
					src[k] = w
					if k == 0 || src[0] != w {
						waits++
					}
				case w.depReadyAt > bcast:
					bcast = w.depReadyAt
				}
			}
			win[i].want = inReady
			switch {
			case waits > 0:
				win[i].want = inChains
				if e.src != src || e.waits != waits {
					fail("seq %d waits on %d producers (src %v), want %d (src %v)", e.seq, e.waits, e.src, waits, src)
				}
			case bcast > p.now:
				win[i].want = onWheel
				if e.readyAt != bcast {
					fail("seq %d wakes at %d, its last producer broadcasts at %d", e.seq, e.readyAt, bcast)
				}
			}
		}
		if e.Dest > 0 {
			writer[e.Dest] = e
		}
	}

	for i, e := range p.ready {
		if i > 0 && e.seq <= p.ready[i-1].seq {
			fail("ready list not in seq order: %d after %d", e.seq, p.ready[i-1].seq)
		}
		w := find(e)
		switch {
		case w == nil:
			fail("ready[%d] (seq %d) is not an unissued ROB entry", i, e.seq)
			continue
		case w.want != inReady:
			fail("stale ready entry: seq %d has a producer whose tag has not broadcast", e.seq)
		}
		w.held++
	}
	for s, head := range p.wheel {
		n := 0
		for e := head; e != nil; e = e.wheelNext {
			if n++; n > p.cfg.ROBSize {
				fail("timing-wheel slot %d does not terminate", s)
				break
			}
			if e.readyAt&p.wheelMask != uint64(s) {
				fail("seq %d in wheel slot %d, wakes at %d", e.seq, s, e.readyAt)
			}
			w := find(e)
			switch {
			case w == nil:
				fail("seq %d on the timing wheel is not an unissued ROB entry", e.seq)
				continue
			case w.want != onWheel:
				fail("seq %d on the timing wheel, want place %d", e.seq, w.want)
			}
			w.held++
		}
	}
	for i := range win {
		prod := robAt(i)
		if prod == nil || prod.issued {
			continue
		}
		n := 0
		for c := prod.consumers; c != nil; {
			if n++; n > p.cfg.ROBSize {
				fail("consumer chain of seq %d does not terminate", prod.seq)
				break
			}
			k := 0
			if c.src[0] != prod {
				k = 1
			}
			if c.src[k] != prod {
				fail("seq %d in the consumer chain of seq %d without a link to it", c.seq, prod.seq)
				break
			}
			if w := find(c); w == nil || w.want != inChains {
				fail("seq %d in the consumer chain of seq %d does not wait on a producer", c.seq, prod.seq)
			} else {
				w.chained++
			}
			c = c.wakeNext[k]
		}
	}
	for i, w := range win {
		if w.want == nowhere {
			continue
		}
		e := robAt(i)
		wantHeld, wantChained := uint8(1), uint8(0)
		if w.want == inChains {
			wantHeld, wantChained = 0, e.waits
		}
		switch {
		case w.held == 0 && w.chained == 0:
			fail("lost wakeup: seq %d (place %d) waits nowhere", e.seq, w.want)
		case w.held != wantHeld || w.chained != wantChained:
			fail("seq %d (place %d) is in the ready list and wheel %d times and in consumer chains %d times, want %d and %d",
				e.seq, w.want, w.held, w.chained, wantHeld, wantChained)
		}
	}
}

// CheckDrained verifies the machine is empty with every resource released —
// the state a successful run must end in, because the run's fetch budget
// equals its commit target, so every fetched instruction has committed.
func (p *Pipeline) CheckDrained() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("drain: "+format, args...))
	}
	if p.robCount != 0 {
		fail("%d instructions still in the ROB", p.robCount)
	}
	if p.iqCount != 0 || len(p.ready) != 0 {
		fail("%d instructions still in the issue queue (%d ready)", p.iqCount, len(p.ready))
	}
	for slot, e := range p.wheel {
		if e != nil {
			fail("timing-wheel slot %d still holds seq %d", slot, e.seq)
		}
	}
	if p.frontCount != 0 {
		fail("%d instructions still in the front-end queue", p.frontCount)
	}
	if len(p.replayQ) != 0 {
		fail("%d squashed instructions still awaiting re-fetch", len(p.replayQ))
	}
	if p.pendingNew != nil {
		fail("a fetched-but-unconsumed instruction is pending (seq %d)", p.pendingNew.seq)
	}
	if p.pendingFlush != nil {
		fail("a flush is still pending (seq %d)", p.pendingFlush.seq)
	}
	if p.loads != 0 || p.stores != 0 {
		fail("LSQ counters not released: %d loads, %d stores", p.loads, p.stores)
	}
	if len(p.storeAt) != 0 {
		fail("store-forwarding CAM not released: %d addresses", len(p.storeAt))
	}
	if full := p.cfg.NumPhys - isa.NumArchRegs; p.freePhys != full {
		fail("physical registers not released: %d free of %d", p.freePhys, full)
	}
	return errors.Join(errs...)
}
