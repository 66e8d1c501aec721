// Package pipeline implements the trace-driven, cycle-level out-of-order
// processor model at the heart of the reproduction. This file documents the
// machine in one place; the stage implementations live in pipeline.go.
//
// # Machine organization (Core-1, §4.1)
//
// The model is a 4-wide machine with the paper's Fabscalar Core-1 shape:
//
//	Fetch → Decode → Rename → Dispatch   (in-order front end, FrontDepth cycles)
//	Issue (wakeup/select) → RegRead → Execute [→ Memory] → Writeback  (OoO engine)
//	Retire                               (in-order)
//
// Instructions arrive from a Source as the committed dynamic path (the
// workload generator or a trace file). Wrong-path execution is not
// simulated; instead, fetch stops at a branch the oracle noise model marks
// mispredicted and resumes the cycle after the branch resolves in execute,
// which reproduces the 10-stage misprediction loop.
//
// # Timing abstraction
//
// The simulator is cycle-driven with absolute-cycle bookkeeping per dynamic
// instruction rather than explicit per-stage latches:
//
//   - availAt — when the front end may dispatch it (fetch + FrontDepth);
//   - depReadyAt — when its tag broadcast wakes dependents (select + execute
//     latency, plus memory time for loads, minus the wakeup/select overlap
//     that enables back-to-back issue of single-cycle chains);
//   - execDoneAt — when a branch resolves;
//   - completeAt — when it may retire.
//
// These times count on a machine clock that does not tick in global-freeze
// cycles, so an EP pad or replay bubble delays every one of them without
// touching any. The real clock keeps everything observable: Stats, observer
// payloads (a machine time is written out plus the frozen-cycle count),
// supervisor windows, the fetch redirect and the FUSR lane reservations. A
// load's fill time is on the machine clock only while the load is in the ROB
// (DESIGN.md §7).
//
// Each cycle runs retire → issue → dispatch → fetch (reverse pipe order), so
// resources freed in one cycle are visible the next.
//
// # Violation handling (§2.2, §3.3)
//
// Ground truth for each dynamic instruction — whether its sensitized paths
// violate timing in some stage at the current voltage — is fixed at first
// fetch by the FaultOracle. The TEP is looked up in parallel with decode and
// its prediction rides with the instruction. At issue time the scheme's
// decision table (core.Respond) is applied per stage:
//
//   - confined (ABS/FFS/CDS, OoO stages): issue-stage violations freeze the
//     instruction's issue slot for one cycle and nothing else (§3.3.1 — the
//     two-cycle CAM window overlaps the select stage); violations in
//     register read / execute / memory / writeback give the instruction one
//     extra cycle in that stage, freeze the corresponding port/slot, and
//     delay the tag broadcast so dependents hold back one cycle (Figure 2);
//   - global stall (EP): the whole pipeline freezes one cycle per predicted
//     violation, with every in-flight completion shifted (true
//     recirculation);
//   - front stall (in-order engine under the proposed schemes): rename/
//     dispatch/retire recirculate one cycle while the OoO engine runs on;
//   - replay (unpredicted violations, fetch/decode violations, and
//     everything under Razor): selective RazorII-style recovery by default —
//     the errant instruction re-executes with ReplayLatency extra cycles
//     behind a ReplayBubble machine stall; Config.FullFlushReplay switches
//     to architectural flush-and-refetch for the ablation.
//
// Only an instruction with a fault, predicted (pred.Fault) or actual
// (fault), acts on this path: about 7% of instructions at 0.97 V and 2% at
// 1.04 V under ABS. Every handling step is a no-op for the others, so issue,
// rename/dispatch and retire skip the per-stage checks for them outright: a
// fault-free instruction pays one test at each of the three points.
//
// # Structures
//
// ROB (ring buffer), an issue queue woken by event, load/store queue
// occupancy with exact-address store-to-load forwarding, physical-register
// free counter (NumPhys − 32 in-flight destinations), a rename table mapping
// architectural registers to in-flight producers, and the FUSR lane state
// (internal/core). Loads remember their cache-fill completion time across
// squashes so replay cannot erase miss latency already in flight.
//
// The ROB and the front-end queue are rings whose indices wrap by a compare
// and a subtract, not a division. The store-forwarding CAM (storeAt) is what
// the hardware's is: the addresses of the in-flight stores, at most SQSize
// of them, searched linearly. It is a multiset: two in-flight stores to one
// address hold two entries, and a store leaving the window drops one, so a
// load still forwards from the other.
//
// The issue queue is never scanned. Rename links each source to its
// producer if that has not issued yet, and files the consumer in the
// producer's chain of waiting consumers. When the producer issues, its
// depReadyAt is exact (a load's latency is resolved at issue), so it hands
// the time to its consumers and clears their links; a consumer whose last
// producer has issued goes onto a timing wheel at the latest broadcast time,
// and joins the ready list, kept in dispatch order, when the machine clock
// reaches it. Select orders only the ready list by the active policy, and
// the CDL's tag-match count is the length of the producer's chain. A full
// flush rebuilds the chains, wheel and ready list from the survivors.
package pipeline
