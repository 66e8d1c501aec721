package pipeline

import (
	"errors"
	"fmt"
	"math"

	"tvsched/internal/snap"
	"tvsched/internal/tep"
)

// This file implements the warm-state checkpoint of DESIGN.md §13: a
// deterministic, versioned byte snapshot of a drained machine, taken after
// warmup and restored into freshly built pipelines so a sweep pays the
// warmup cost once per (benchmark, seed) instead of once per cell.
//
// The snapshot deliberately covers only drained machines — no instructions
// in flight — so the only state that crosses the boundary is the
// micro-architectural warm state (caches, branch predictor, TEP table, RNG
// streams, generator cursors) plus a handful of scalar counters. The wire
// format is: magic, version, the geometry block (every Config field that
// shapes state or stream consumption — scheme excluded, see SnapshotVersion),
// the scalar block, then each component's codec in a fixed order.

// snapshotMagic marks a pipeline warm-state snapshot ("TVSN").
const snapshotMagic uint32 = 0x5456534e

// SnapshotVersion is the wire-format version of SnapshotState; RestoreState
// refuses any other. Bump it whenever the byte layout or the semantics of
// restored state change. Version 2 records each cache's prefill rule and
// only the sets that differ from it, where version 1 recorded every set.
// Version 3 records a set as its lines' tags in recency order, where
// version 2 recorded a way index, a tag and an LRU stamp per line.
//
// The geometry block excludes Config.Scheme (and the supply voltage, which
// is not part of Config): a snapshot taken after a warmup at the nominal
// supply is provably scheme-independent — at VNominal no instruction
// violates timing, so the TEP table stays empty, criticality marks are
// no-ops, and issue-selection policies order identical candidate sets
// identically — which is exactly what lets one checkpoint serve every
// (scheme, VDD) cell of a sweep.
const SnapshotVersion uint32 = 3

// ErrSnapshotUnsupported wraps every refusal to snapshot or restore that is
// a property of the machine's configuration rather than corrupt bytes.
var ErrSnapshotUnsupported = errors.New("snapshot unsupported")

// StatefulSource is a Source whose stream position can be checkpointed.
// workload.Generator implements it; the asm Machine intentionally does not
// (its architectural state is the program's business, not the simulator's).
type StatefulSource interface {
	Source
	AppendState(*snap.Writer)
	// StateLen returns the length of the bytes AppendState writes.
	StateLen() int
	ReadState(*snap.Reader) error
}

// geometryWords is the length of the snapshot's geometry block in words.
const geometryWords = 29

// geometry returns the configuration fields a snapshot must agree on as a
// flat list of named words: every field that shapes serialized state or
// drives deterministic stream consumption. Scheme is excluded (see
// SnapshotVersion); observer and debug knobs are excluded because they do
// not affect machine state.
func (c *Config) geometry() [geometryWords]struct {
	name string
	v    uint64
} {
	u := func(i int) uint64 { return uint64(i) }
	b := func(f bool) uint64 {
		if f {
			return 1
		}
		return 0
	}
	return [geometryWords]struct {
		name string
		v    uint64
	}{
		{"width", u(c.Width)},
		{"front-depth", u(c.FrontDepth)},
		{"front-queue", u(c.FrontQ)},
		{"rob", u(c.ROBSize)},
		{"iq", u(c.IQSize)},
		{"lq", u(c.LQSize)},
		{"sq", u(c.SQSize)},
		{"phys-regs", u(c.NumPhys)},
		{"simple-alus", u(c.SimpleALUs)},
		{"complex-alus", u(c.ComplexALUs)},
		{"mem-ports", u(c.MemPorts)},
		{"replay-bubble", u(c.ReplayBubble)},
		{"replay-latency", u(c.ReplayLatency)},
		{"full-flush", b(c.FullFlushReplay)},
		{"mispredict-rate", math.Float64bits(c.MispredictRate)},
		{"seed", c.Seed},
		{"ct", u(c.CT)},
		{"tep-entries", u(c.TEP.Entries)},
		{"tep-history", u(c.TEP.HistoryBits)},
		{"l1i-size", u(c.Hierarchy.L1I.SizeBytes)},
		{"l1i-ways", u(c.Hierarchy.L1I.Ways)},
		{"l1i-line", u(c.Hierarchy.L1I.LineBytes)},
		{"l1d-size", u(c.Hierarchy.L1D.SizeBytes)},
		{"l1d-ways", u(c.Hierarchy.L1D.Ways)},
		{"l1d-line", u(c.Hierarchy.L1D.LineBytes)},
		{"l2-size", u(c.Hierarchy.L2.SizeBytes)},
		{"l2-ways", u(c.Hierarchy.L2.Ways)},
		{"l2-line", u(c.Hierarchy.L2.LineBytes)},
		{"mem-latency", u(c.Hierarchy.MemLatency)},
	}
}

// snapshotable reports why this machine cannot be snapshotted or restored,
// or nil. The refusals are configuration properties shared by both
// directions.
func (p *Pipeline) snapshotable() error {
	if p.sup != nil {
		return fmt.Errorf("pipeline: %w: supervised machine (supervisor history is not serialized)", ErrSnapshotUnsupported)
	}
	if p.cfg.NewPredictor != nil {
		return fmt.Errorf("pipeline: %w: custom predictor implementation", ErrSnapshotUnsupported)
	}
	if _, ok := p.src.(StatefulSource); !ok {
		return fmt.Errorf("pipeline: %w: source %T cannot be checkpointed", ErrSnapshotUnsupported, p.src)
	}
	return nil
}

// snapshotHeaderLen is the length of a snapshot's magic, version, geometry
// and scalar blocks: everything SnapshotState writes before the components.
const snapshotHeaderLen = 4 + 4 + geometryWords*8 + 6*8 + 8 + 1 + 4*8 + 1

// SnapshotState serializes the warm state of a drained machine. The result
// is deterministic: the same machine state yields the same bytes. It fails
// on a machine with instructions in flight, a supervisor or hazard timeline
// attached, a custom predictor, or a source that cannot be checkpointed.
//
// The bytes are written once, into a buffer of their final length: every
// component reports its encoded length first, so a memo that keeps a
// snapshot keeps no spare capacity.
func (p *Pipeline) SnapshotState() ([]byte, error) {
	if err := p.CheckDrained(); err != nil {
		return nil, fmt.Errorf("pipeline: snapshot of a non-drained machine: %w", err)
	}
	if err := p.snapshotable(); err != nil {
		return nil, err
	}
	src := p.src.(StatefulSource)
	n := snapshotHeaderLen + p.env.StateLen() + p.hier.StateLen() + p.bp.StateLen() +
		p.noise.StateLen() + p.tep.(*tep.TEP).StateLen() + p.fusr.StateLen() + src.StateLen()
	w := &snap.Writer{B: make([]byte, 0, n)}
	w.U32(snapshotMagic)
	w.U32(SnapshotVersion)
	for _, f := range p.cfg.geometry() {
		w.U64(f.v)
	}
	w.U64(p.cycle)
	w.U64(p.seq)
	w.U64(p.fetchLimit)
	w.U64(p.newFetched)
	w.U64(p.lastFetchLine)
	w.U64(p.fetchResumeAt)
	w.I64(int64(p.robHead))
	w.U8(p.iqAlloc)
	// Freeze credits can outlive a drained run (padding queued by the last
	// committed group), so they are part of the state.
	w.I64(int64(p.globalFreeze))
	w.I64(int64(p.globalFreezeReplay))
	w.I64(int64(p.frontFreeze))
	w.I64(int64(p.frontFreezeReplay))
	// A drained machine's fetch redirect blocker is always resolved (the
	// branch retired); only the fact that fetch still owes the redirect
	// cycle needs to survive.
	w.Bool(p.fetchBlockedBy != nil)
	if err := p.env.AppendState(w); err != nil {
		return nil, err
	}
	p.hier.AppendState(w)
	p.bp.AppendState(w)
	p.noise.AppendState(w)
	p.tep.(*tep.TEP).AppendState(w)
	p.fusr.AppendState(w)
	src.AppendState(w)
	return w.B, nil
}

// RestoreState loads a snapshot produced by SnapshotState into this machine,
// which must be freshly built (drained) with a configuration whose geometry
// matches the snapshot's — scheme may differ, and the supply voltage may be
// retargeted with SetVDD afterwards. Statistics are zeroed, mirroring the
// warmup boundary: a restored machine behaves exactly like one that just
// finished WarmupContext.
//
// The caches validate their prefill rules and every set record of b here
// but decode none: they keep a reference to b and build each set the first
// time it is reached, from its record or the rule. b must therefore not
// change while the machine lives; concurrent restores may share it, since
// nothing writes to it.
func (p *Pipeline) RestoreState(b []byte) error {
	if err := p.CheckDrained(); err != nil {
		return fmt.Errorf("pipeline: restore into a non-drained machine: %w", err)
	}
	if err := p.snapshotable(); err != nil {
		return err
	}
	r := snap.NewReader(b)
	if m := r.U32(); m != snapshotMagic {
		return fmt.Errorf("%w: not a pipeline snapshot (magic %#x)", snap.ErrCorrupt, m)
	}
	if v := r.U32(); v != SnapshotVersion {
		return fmt.Errorf("pipeline: %w: snapshot version %d, this build reads %d",
			ErrSnapshotUnsupported, v, SnapshotVersion)
	}
	for _, f := range p.cfg.geometry() {
		if got := r.U64(); got != f.v && r.Err() == nil {
			return fmt.Errorf("pipeline: %w: geometry mismatch: snapshot %s = %d, machine has %d",
				ErrSnapshotUnsupported, f.name, got, f.v)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	p.cycle = r.U64()
	// Nothing timed on the machine clock crosses a drained snapshot, so the
	// restored clock may start level with the real one.
	p.now = p.cycle
	p.seq = r.U64()
	p.fetchLimit = r.U64()
	p.newFetched = r.U64()
	p.lastFetchLine = r.U64()
	p.fetchResumeAt = r.U64()
	p.robHead = int(r.I64())
	p.iqAlloc = r.U8()
	p.globalFreeze = int(r.I64())
	p.globalFreezeReplay = int(r.I64())
	p.frontFreeze = int(r.I64())
	p.frontFreezeReplay = int(r.I64())
	blocked := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if p.robHead < 0 || p.robHead >= p.cfg.ROBSize {
		return fmt.Errorf("%w: robHead %d of %d", snap.ErrCorrupt, p.robHead, p.cfg.ROBSize)
	}
	if p.globalFreeze < 0 || p.globalFreezeReplay < 0 || p.globalFreezeReplay > p.globalFreeze ||
		p.frontFreeze < 0 || p.frontFreezeReplay < 0 || p.frontFreezeReplay > p.frontFreeze {
		return fmt.Errorf("%w: inconsistent freeze credits", snap.ErrCorrupt)
	}
	if err := p.env.ReadState(r); err != nil {
		return err
	}
	if err := p.hier.ReadState(r); err != nil {
		return err
	}
	if err := p.bp.ReadState(r); err != nil {
		return err
	}
	if err := p.noise.ReadState(r); err != nil {
		return err
	}
	if err := p.tep.(*tep.TEP).ReadState(r); err != nil {
		return err
	}
	if err := p.fusr.ReadState(r); err != nil {
		return err
	}
	if err := p.src.(StatefulSource).ReadState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Rest(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", snap.ErrCorrupt, n)
	}
	// The snapshotted blocker had resolved (it retired before the drain);
	// a stand-in with the same resolved-by-now timing reproduces the one
	// redirect cycle fetch still owes.
	p.fetchBlockedBy = nil
	if blocked {
		p.fetchBlockedBy = &dynInst{execDoneAt: p.now}
	}
	// Mirror the warmup boundary: measurement starts here.
	p.stats = Stats{}
	p.pendingIFetch = 0
	return nil
}
