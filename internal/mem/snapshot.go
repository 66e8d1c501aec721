package mem

import (
	"encoding/binary"
	"fmt"
	"slices"

	"tvsched/internal/snap"
)

// A cache's state is its prefill rule (line0, lines) and a record count; a
// record is a set index, a line count n and the n lines' tags, most recently
// used first.
const (
	stateHeadBytes  = 8 + 8 + 4
	recordHeadBytes = 4 + 1
	tagBytes        = 8
)

// AppendState serializes the cache's lines: the prefill rule — (0, 0) when
// there is none — and a record of each set that differs from its rule set,
// in increasing set index. A record holds the set's lines in recency order,
// the most recent first, as their tags; empty ways are at the end of a set
// and need no bytes. Statistics are not serialized — snapshots are taken at
// the warmup boundary, where the pipeline zeroes them anyway.
//
// Only a built set or one with a snapshot record can differ from its rule
// set, so no other set is built or decoded. A set equal to its rule set is
// not recorded, so the bytes are a function of the cache's rule and lines.
func (c *Cache) AppendState(w *snap.Writer) {
	w.U64(c.pfLine0)
	w.U64(c.pfLines)
	at := len(w.B)
	w.U32(0) // the record count, written once the records are
	var n uint32
	c.eachRecord(func(i int, lines []uint64) {
		n++
		w.U32(uint32(i))
		w.U8(uint8(len(lines)))
		for _, word := range lines {
			w.U64(word - 1)
		}
	})
	binary.LittleEndian.PutUint32(w.B[at:], n)
}

// StateLen returns the length of the bytes AppendState writes, without
// encoding them.
func (c *Cache) StateLen() int {
	n := stateHeadBytes
	c.eachRecord(func(_ int, lines []uint64) { n += recordHeadBytes + len(lines)*tagBytes })
	return n
}

// eachRecord calls f, in increasing set index, with the words of the held
// lines of every set that differs from its rule set: the set up to its last
// word that is not 0. It looks only at built sets and at sets with a
// snapshot record, since every other set is built from the rule; a recorded
// set not built yet is passed decoded, in a scratch set f must not keep.
func (c *Cache) eachRecord(f func(i int, lines []uint64)) {
	ways := c.cfg.Ways
	scratch := make([]uint64, 2*ways)
	decoded, rule := scratch[:ways], scratch[ways:]
	for i, a := range c.at {
		var set []uint64
		switch {
		case a&builtBit != 0:
			set = c.builtAt(a)
		case a != 0:
			c.decode(decoded, a-1)
			set = decoded
		default:
			continue
		}
		c.ruleSet(rule, uint64(i))
		if !slices.Equal(set, rule) {
			n := len(set)
			for n > 0 && set[n-1] == 0 {
				n--
			}
			f(i, set[:n])
		}
	}
}

// ReadState restores state written by AppendState into a cache of identical
// geometry (the caller validates geometry via the config digest before
// getting here). Statistics are zeroed.
//
// It validates everything and decodes no set: the rule may put at most Ways
// lines in every set (at most sets × ways lines, and (0, 0) when there is no
// rule), the records may number at most the sets, their set indices must
// increase strictly and stay in range, and no record may be truncated or
// hold more lines than the cache has ways. Tags are not checked. Only then
// does it change the cache, which keeps the rule, the bytes of the records —
// a sub-slice of r's, not a copy — and the offset of each recorded set's
// record, and drops every set it built; a rejected snapshot changes nothing.
// Each set is built the first time Access or Probe reaches it, from its
// record if it has one and from the rule otherwise, so the bytes must not
// change while the cache lives.
func (c *Cache) ReadState(r *snap.Reader) error {
	line0, lines := r.U64(), r.U64()
	count := r.U32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%s state is truncated: %w", c.cfg.Name, err)
	}
	sets, ways := len(c.at), c.cfg.Ways
	if lines > uint64(sets)*uint64(ways) || lines == 0 && line0 != 0 {
		return fmt.Errorf("%w: %s prefill rule of %d lines from line %#x, in %d sets of %d ways",
			snap.ErrCorrupt, c.cfg.Name, lines, line0, sets, ways)
	}
	if count > uint32(sets) {
		return fmt.Errorf("%w: %s has %d set records for %d sets", snap.ErrCorrupt, c.cfg.Name, count, sets)
	}
	b := r.Tail()
	off := 0
	var prev uint32
	for k := range int(count) {
		if off+recordHeadBytes > len(b) {
			return fmt.Errorf("%w: %s record %d is truncated", snap.ErrCorrupt, c.cfg.Name, k)
		}
		si := binary.LittleEndian.Uint32(b[off:])
		if si >= uint32(sets) || k > 0 && si <= prev {
			return fmt.Errorf("%w: %s record %d names set %d after set %d of %d",
				snap.ErrCorrupt, c.cfg.Name, k, si, prev, sets)
		}
		prev = si
		n := int(b[off+4])
		if n > ways {
			return fmt.Errorf("%w: %s set %d holds %d lines in %d ways",
				snap.ErrCorrupt, c.cfg.Name, si, n, ways)
		}
		if off += recordHeadBytes + n*tagBytes; off > len(b) {
			return fmt.Errorf("%w: %s set %d is truncated", snap.ErrCorrupt, c.cfg.Name, si)
		}
	}
	if off >= builtBit {
		return fmt.Errorf("%w: %s records span %d bytes", snap.ErrCorrupt, c.cfg.Name, off)
	}
	r.Skip(off)
	c.src = b[:off:off]
	clear(c.at)
	for rec := 0; rec < off; rec += recordHeadBytes + int(b[rec+4])*tagBytes {
		c.at[binary.LittleEndian.Uint32(b[rec:])] = uint32(rec) + 1
	}
	c.blocks, c.built, c.next = nil, 0, 0
	c.pfLine0, c.pfLines = line0, lines
	c.Stats = CacheStats{}
	return nil
}

// decode writes into set the words of the record at src[off]: its tags plus
// one, in order, then a 0 per way it leaves empty.
func (c *Cache) decode(set []uint64, off uint32) {
	clear(set)
	rec := c.src[off+4:]
	for k := range int(rec[0]) {
		set[k] = binary.LittleEndian.Uint64(rec[1+k*tagBytes:]) + 1
	}
}

// AppendState serializes all three cache levels.
func (h *Hierarchy) AppendState(w *snap.Writer) {
	h.L1I.AppendState(w)
	h.L1D.AppendState(w)
	h.L2.AppendState(w)
}

// StateLen returns the length of the bytes AppendState writes.
func (h *Hierarchy) StateLen() int {
	return h.L1I.StateLen() + h.L1D.StateLen() + h.L2.StateLen()
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
