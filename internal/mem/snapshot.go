package mem

import (
	"encoding/binary"
	"fmt"
	"slices"

	"tvsched/internal/snap"
)

// A cache's state is its stamp, its prefill rule (line0, lines) and a record
// count; a record is a set index, a valid-way count n and n way records; a
// way record is its way index, tag and LRU stamp.
const (
	stateHeadBytes  = 8 + 8 + 8 + 4
	recordHeadBytes = 4 + 1
	wayRecordBytes  = 1 + 8 + 8
)

// AppendState serializes the cache's tag/LRU state: the LRU stamp, the
// prefill rule — (0, 0) when there is none — and a record of each set that
// differs from its rule set, in increasing set index. A record holds only
// the valid lines (way index, tag, LRU stamp) in way order: lines are never
// invalidated outside Reset, so invalid ways are always the zero value and
// need no bytes. Statistics are not serialized — snapshots are taken at the
// warmup boundary, where the pipeline zeroes them anyway.
//
// Only a built set or one with a snapshot record can differ from its rule
// set, so no other set is built or decoded. A set equal to its rule set is
// not recorded, and a record of a restored cache is decoded and re-encoded,
// never copied — ReadState accepts records whose way indices repeat or come
// out of order — so the bytes are a function of the cache's rule and lines.
func (c *Cache) AppendState(w *snap.Writer) {
	w.U64(c.stamp)
	w.U64(c.pfLine0)
	w.U64(c.pfLines)
	at := len(w.B)
	w.U32(0) // the record count, written once the records are
	var n uint32
	c.eachRecord(func(i int, set []line) {
		n++
		w.U32(uint32(i))
		w.U8(uint8(validWays(set)))
		for wi := range set {
			if set[wi].valid {
				w.U8(uint8(wi))
				w.U64(set[wi].tag)
				w.U64(set[wi].lru)
			}
		}
	})
	binary.LittleEndian.PutUint32(w.B[at:], n)
}

// StateLen returns the length of the bytes AppendState writes, without
// encoding them.
func (c *Cache) StateLen() int {
	n := stateHeadBytes
	c.eachRecord(func(_ int, set []line) { n += recordHeadBytes + validWays(set)*wayRecordBytes })
	return n
}

// eachRecord calls f, in increasing set index, with every set that differs
// from its rule set. It looks only at built sets and at sets with a snapshot
// record, since every other set is built from the rule; a recorded set not
// built yet is passed decoded, in a scratch set f must not keep.
func (c *Cache) eachRecord(f func(i int, set []line)) {
	ways := c.cfg.Ways
	scratch := make([]line, 2*ways)
	decoded, rule := scratch[:ways], scratch[ways:]
	for i, a := range c.at {
		var set []line
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
			f(i, set)
		}
	}
}

// validWays counts the valid lines of set.
func validWays(set []line) int {
	n := 0
	for i := range set {
		if set[i].valid {
			n++
		}
	}
	return n
}

// ReadState restores state written by AppendState into a cache of identical
// geometry (the caller validates geometry via the config digest before
// getting here). Statistics are zeroed.
//
// It validates everything and decodes no set: the rule may put at most Ways
// lines in every set (at most sets × ways lines, and (0, 0) when there is no
// rule), the records may number at most the sets, their set indices must
// increase strictly and stay in range, and no record may be truncated, name
// more valid ways than the cache has, or index a way out of range. Tags and
// LRU stamps are not checked. Only then does it change the cache, which
// keeps the rule, the bytes of the records — a sub-slice of r's, not a copy
// — and the offset of each recorded set's record, and drops every set it
// built; a rejected snapshot changes nothing. Each set is built the first
// time Access or Probe reaches it, from its record if it has one and from
// the rule otherwise, so the bytes must not change while the cache lives.
// Where a record names a way twice, the last one wins.
func (c *Cache) ReadState(r *snap.Reader) error {
	stamp := r.U64()
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
			return fmt.Errorf("%w: %s set %d has %d valid ways of %d",
				snap.ErrCorrupt, c.cfg.Name, si, n, ways)
		}
		off += recordHeadBytes
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
	clear(c.at)
	for rec := 0; rec < off; rec += recordHeadBytes + int(b[rec+4])*wayRecordBytes {
		c.at[binary.LittleEndian.Uint32(b[rec:])] = uint32(rec) + 1
	}
	c.blocks, c.built, c.next = nil, 0, 0
	c.pfLine0, c.pfLines = line0, lines
	c.stamp = stamp
	c.Stats = CacheStats{}
	return nil
}

// decode writes into set the lines of the record at src[off].
func (c *Cache) decode(set []line, off uint32) {
	clear(set)
	r := snap.NewReader(c.src[off+4:])
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
