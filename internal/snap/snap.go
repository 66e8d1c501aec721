// Package snap is the byte codec underneath the simulator's warm-state
// snapshots (DESIGN.md §13): a minimal little-endian fixed-width
// writer/reader pair with sticky error handling. Each simulator component
// serializes itself with an AppendState(*snap.Writer) / ReadState(*snap.Reader)
// method pair; the pipeline concatenates the components under a versioned
// header. Fixed-width encoding keeps the format trivially deterministic —
// the same state always produces the same bytes — which is what lets the
// serving layer key snapshots by digest and share them across sweep cells.
package snap

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrCorrupt is returned (wrapped) by Reader when a snapshot is truncated
// or otherwise unreadable.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// Writer accumulates the encoded bytes. The zero value is ready to use.
type Writer struct {
	B []byte
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.B = append(w.B, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.B = append(w.B, 1)
	} else {
		w.B = append(w.B, 0)
	}
}

// I64 appends an int64 as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit image.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Reader decodes a byte stream produced by Writer. Underflow sets a sticky
// error and every subsequent read returns zero values; callers check Err()
// once at the end of a decode pass.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.b) {
		r.err = ErrCorrupt
		return nil
	}
	s := r.b[r.pos : r.pos+n]
	r.pos += n
	return s
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// Bool reads one byte as a bool; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Skip advances past n bytes without decoding them.
func (r *Reader) Skip(n int) { r.take(n) }

// Tail returns the unread bytes without copying them. The result aliases
// the wrapped slice and is capacity-limited, so appending to it reallocates
// rather than writing past the wrapped bytes. It does not advance the
// reader: a decoder walks the tail itself and then Skips what it consumed.
func (r *Reader) Tail() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.pos:len(r.b):len(r.b)]
}

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Rest returns the number of unread bytes.
func (r *Reader) Rest() int {
	if r.err != nil {
		return 0
	}
	return len(r.b) - r.pos
}
