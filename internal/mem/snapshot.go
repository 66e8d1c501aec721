package mem

import (
	"fmt"

	"tvsched/internal/snap"
)

// A set's record is a valid-way count n and n way records; a way record is
// its way index, tag and LRU stamp.
const wayRecordBytes = 1 + 8 + 8

// AppendState serializes the cache's tag/LRU state sparsely: per set, only
// the valid lines (way index, tag, LRU stamp) in way order. Lines are never
// invalidated outside Reset, so invalid ways are always the zero value and
// need no bytes. Statistics are not serialized — snapshots are taken at the
// warmup boundary, where the pipeline zeroes them anyway.
//
// A set a restored cache has not touched yet is decoded into a scratch set
// and encoded from there, never copied verbatim: ReadState accepts records
// whose way indices repeat or come out of order, and re-encoding gives the
// bytes of the set they define.
func (c *Cache) AppendState(w *snap.Writer) {
	w.U64(c.stamp)
	var scratch []line
	for _, a := range c.at {
		var set []line
		switch {
		case a&builtBit != 0:
			set = c.builtAt(a)
		case c.src != nil:
			if scratch == nil {
				scratch = make([]line, c.cfg.Ways)
			}
			c.decode(scratch, a)
			set = scratch
		}
		n := 0
		for wi := range set {
			if set[wi].valid {
				n++
			}
		}
		w.U8(uint8(n))
		for wi := range set {
			if set[wi].valid {
				w.U8(uint8(wi))
				w.U64(set[wi].tag)
				w.U64(set[wi].lru)
			}
		}
	}
}

// ReadState restores state written by AppendState into a cache of identical
// geometry (the caller validates geometry via the config digest before
// getting here). Statistics are zeroed.
//
// It validates every set's record and decodes none: no record may be
// truncated, name more valid ways than the cache has, or index a way out of
// range. Tags and LRU stamps are not checked. Only then does it change the
// cache, which keeps the bytes of the records — a sub-slice of r's, not a
// copy — and the offset of each set's record, and drops every set it built.
// Each set is decoded the first time Access or Probe reaches it, so the
// bytes must not change while the cache lives. Where a record names a way
// twice, the last one wins.
func (c *Cache) ReadState(r *snap.Reader) error {
	stamp := r.U64()
	b := r.Tail()
	ways := c.cfg.Ways
	off := 0
	for si := range c.at {
		if off >= len(b) {
			return fmt.Errorf("%w: %s set %d is truncated", snap.ErrCorrupt, c.cfg.Name, si)
		}
		n := int(b[off])
		if n > ways {
			return fmt.Errorf("%w: %s set %d has %d valid ways of %d",
				snap.ErrCorrupt, c.cfg.Name, si, n, ways)
		}
		off++
		end := off + n*wayRecordBytes
		if end > len(b) {
			return fmt.Errorf("%w: %s set %d is truncated", snap.ErrCorrupt, c.cfg.Name, si)
		}
		for ; off < end; off += wayRecordBytes {
			if wi := int(b[off]); wi >= ways {
				return fmt.Errorf("%w: %s way index %d out of range", snap.ErrCorrupt, c.cfg.Name, wi)
			}
		}
	}
	if off >= builtBit {
		return fmt.Errorf("%w: %s records span %d bytes", snap.ErrCorrupt, c.cfg.Name, off)
	}
	r.Skip(off)
	c.src = b[:off:off]
	for si, rec := 0, 0; si < len(c.at); si++ {
		c.at[si] = uint32(rec)
		rec += 1 + int(b[rec])*wayRecordBytes
	}
	c.blocks, c.built, c.next = nil, 0, 0
	c.stamp = stamp
	c.Stats = CacheStats{}
	return nil
}

// decode fills set with the set whose record starts at src[off].
func (c *Cache) decode(set []line, off uint32) {
	clear(set)
	r := snap.NewReader(c.src[off:])
	for n := r.U8(); n > 0; n-- {
		wi := r.U8()
		set[wi] = line{tag: r.U64(), lru: r.U64(), valid: true}
	}
}

// AppendState serializes all three cache levels.
func (h *Hierarchy) AppendState(w *snap.Writer) {
	h.L1I.AppendState(w)
	h.L1D.AppendState(w)
	h.L2.AppendState(w)
}

// ReadState restores all three cache levels.
func (h *Hierarchy) ReadState(r *snap.Reader) error {
	if err := h.L1I.ReadState(r); err != nil {
		return err
	}
	if err := h.L1D.ReadState(r); err != nil {
		return err
	}
	return h.L2.ReadState(r)
}
