package workload

import (
	"fmt"

	"tvsched/internal/snap"
)

// AppendState serializes the generator's dynamic state: the RNG stream, the
// per-static-instruction memory cursors (one U64 per static instruction, in
// PC order — non-memory instructions write 0), and the loop-walk state. The
// static program itself is not serialized — it is a pure function of
// (profile, seed), shared read-only by every generator over it, and the
// restoring side builds (or shares) it before calling ReadState.
func (g *Generator) AppendState(w *snap.Writer) {
	g.src.AppendState(w)
	w.U32(uint32(len(g.cursors)))
	for _, c := range g.cursors {
		w.U64(c)
	}
	w.U64(g.coldNext)
	w.I64(int64(g.curLoop))
	w.I64(int64(g.iterLeft))
	w.I64(int64(g.pos))
	for _, v := range g.ring {
		w.U8(uint8(v))
	}
	w.I64(int64(g.ringPos))
	w.U8(uint8(g.rotReg))
	w.U64(g.emitted)
}

// StateLen returns the length of the bytes AppendState writes.
func (g *Generator) StateLen() int {
	return g.src.StateLen() + 4 + 8*len(g.cursors) + 4*8 + len(g.ring) + 8 + 1 + 8
}

// ReadState restores state written by AppendState. The receiver must walk a
// program of the same (profile, seed) the writer's did — the
// static-footprint check catches a mismatched program, and the loop indices
// are bounds-checked.
func (g *Generator) ReadState(r *snap.Reader) error {
	if err := g.src.ReadState(r); err != nil {
		return err
	}
	if got := int(r.U32()); got != len(g.cursors) {
		return fmt.Errorf("%w: static footprint %d, have %d",
			snap.ErrCorrupt, got, len(g.cursors))
	}
	for i := range g.cursors {
		g.cursors[i] = r.U64()
	}
	g.coldNext = r.U64()
	g.curLoop = int(r.I64())
	g.iterLeft = int(r.I64())
	g.pos = int(r.I64())
	for i := range g.ring {
		g.ring[i] = int8(r.U8())
	}
	g.ringPos = int(r.I64())
	g.rotReg = int8(r.U8())
	g.emitted = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	loops := g.prog.loops
	if g.curLoop < 0 || g.curLoop >= len(loops) {
		return fmt.Errorf("%w: loop index %d of %d", snap.ErrCorrupt, g.curLoop, len(loops))
	}
	if n := loops[g.curLoop].end - loops[g.curLoop].start; g.pos < 0 || g.pos >= n {
		return fmt.Errorf("%w: position %d in loop of %d", snap.ErrCorrupt, g.pos, n)
	}
	if g.ringPos < 0 || g.ringPos >= len(g.ring) {
		return fmt.Errorf("%w: ring position %d", snap.ErrCorrupt, g.ringPos)
	}
	return nil
}
