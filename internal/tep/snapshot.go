package tep

import (
	"fmt"

	"tvsched/internal/isa"
	"tvsched/internal/snap"
)

// AppendState serializes the learned table sparsely: only valid entries,
// each with its index, tag, counter, stage and criticality bit. Statistics
// are not serialized — snapshots are taken at the warmup boundary, where
// the pipeline zeroes them.
func (t *TEP) AppendState(w *snap.Writer) {
	w.U32(uint32(t.cfg.Entries))
	w.U32(uint32(t.cfg.HistoryBits))
	n := 0
	for i := range t.tab {
		if t.tab[i].valid {
			n++
		}
	}
	w.U32(uint32(n))
	for i := range t.tab {
		if t.tab[i].valid {
			e := &t.tab[i]
			w.U32(uint32(i))
			w.U32(uint32(e.tag))
			w.U8(e.counter)
			w.U8(uint8(e.stage))
			w.Bool(e.critical)
		}
	}
}

// StateLen returns the length of the bytes AppendState writes.
func (t *TEP) StateLen() int {
	n := 3 * 4
	for i := range t.tab {
		if t.tab[i].valid {
			n += 4 + 4 + 1 + 1 + 1
		}
	}
	return n
}

// ReadState restores state written by AppendState into a predictor of
// identical geometry; mismatched geometry is rejected. Statistics are
// zeroed.
func (t *TEP) ReadState(r *snap.Reader) error {
	if e, h := int(r.U32()), int(r.U32()); e != t.cfg.Entries || h != t.cfg.HistoryBits {
		return fmt.Errorf("%w: tep geometry %dx%d, have %dx%d",
			snap.ErrCorrupt, e, h, t.cfg.Entries, t.cfg.HistoryBits)
	}
	for i := range t.tab {
		t.tab[i] = entry{}
	}
	n := int(r.U32())
	if n > len(t.tab) {
		return fmt.Errorf("%w: %d valid tep entries of %d", snap.ErrCorrupt, n, len(t.tab))
	}
	for k := 0; k < n; k++ {
		i := int(r.U32())
		if i >= len(t.tab) {
			return fmt.Errorf("%w: tep index %d out of range", snap.ErrCorrupt, i)
		}
		t.tab[i] = entry{
			tag:      uint16(r.U32()),
			counter:  r.U8(),
			stage:    isa.Stage(r.U8()),
			critical: r.Bool(),
			valid:    true,
		}
	}
	t.Stats = Stats{}
	return r.Err()
}
