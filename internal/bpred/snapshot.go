package bpred

import (
	"fmt"

	"tvsched/internal/snap"
)

// AppendState serializes the predictor's learned state: the full pattern
// history table, global history, every valid BTB entry (sparse, by index),
// and the return-address stack. Statistics are not serialized — snapshots
// are taken at the warmup boundary, where the pipeline zeroes them.
func (p *Predictor) AppendState(w *snap.Writer) {
	w.U32(uint32(len(p.pht)))
	for _, c := range p.pht {
		w.U8(c)
	}
	w.U64(p.history)
	w.U32(uint32(len(p.btb)))
	n := 0
	for i := range p.btb {
		if p.btb[i].valid {
			n++
		}
	}
	w.U32(uint32(n))
	for i := range p.btb {
		if p.btb[i].valid {
			w.U32(uint32(i))
			w.U64(p.btb[i].tag)
			w.U64(p.btb[i].target)
		}
	}
	w.U32(uint32(len(p.ras)))
	for _, v := range p.ras {
		w.U64(v)
	}
	w.I64(int64(p.rasTop))
}

// StateLen returns the length of the bytes AppendState writes.
func (p *Predictor) StateLen() int {
	n := 4 + len(p.pht) + 8 + 4 + 4 + 4 + 8*len(p.ras) + 8
	for i := range p.btb {
		if p.btb[i].valid {
			n += 4 + 8 + 8
		}
	}
	return n
}

// ReadState restores state written by AppendState into a predictor of
// identical geometry; mismatched table sizes are rejected. Statistics are
// zeroed.
func (p *Predictor) ReadState(r *snap.Reader) error {
	if got := int(r.U32()); got != len(p.pht) {
		return fmt.Errorf("%w: pht size %d, have %d", snap.ErrCorrupt, got, len(p.pht))
	}
	for i := range p.pht {
		p.pht[i] = r.U8()
	}
	p.history = r.U64()
	if got := int(r.U32()); got != len(p.btb) {
		return fmt.Errorf("%w: btb size %d, have %d", snap.ErrCorrupt, got, len(p.btb))
	}
	for i := range p.btb {
		p.btb[i] = btbEntry{}
	}
	n := int(r.U32())
	if n > len(p.btb) {
		return fmt.Errorf("%w: %d valid btb entries of %d", snap.ErrCorrupt, n, len(p.btb))
	}
	for k := 0; k < n; k++ {
		i := int(r.U32())
		if i >= len(p.btb) {
			return fmt.Errorf("%w: btb index %d out of range", snap.ErrCorrupt, i)
		}
		p.btb[i] = btbEntry{tag: r.U64(), target: r.U64(), valid: true}
	}
	if got := int(r.U32()); got != len(p.ras) {
		return fmt.Errorf("%w: ras size %d, have %d", snap.ErrCorrupt, got, len(p.ras))
	}
	for i := range p.ras {
		p.ras[i] = r.U64()
	}
	p.rasTop = int(r.I64())
	p.Stats = Stats{}
	return r.Err()
}

// AppendState serializes the oracle's RNG stream position (the rate is
// configuration, rebuilt by the restoring side).
func (o *OracleNoise) AppendState(w *snap.Writer) { o.src.AppendState(w) }

// StateLen returns the length of the bytes AppendState writes.
func (o *OracleNoise) StateLen() int { return o.src.StateLen() }

// ReadState restores the oracle's RNG stream position.
func (o *OracleNoise) ReadState(r *snap.Reader) error { return o.src.ReadState(r) }
