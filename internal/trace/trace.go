// Package trace provides a compact binary on-disk format for committed
// instruction streams, so experiments can be repeated bit-exactly without
// regeneration and users can drive the pipeline model with traces produced
// by their own tools (a Pin/DynamoRIO-style front end, another simulator,
// or the bundled workload generator via cmd/tvtrace).
//
// Format (little-endian, streaming):
//
//	magic "TVTR" | u8 version | uvarint count (0 = unknown/stream)
//	then per instruction:
//	  u8 flags+class | varint ΔPC | [dest u8] [src1 u8] [src2 u8]
//	  [varint Δaddr] [varint Δtarget]
//
// PC, Addr and Target are delta-encoded against the previous record (per
// field), which compresses the strided patterns of real traces well.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tvsched/internal/isa"
)

// Magic identifies trace files.
const Magic = "TVTR"

// Version is the current format version.
const Version = 1

// flag bits packed with the class in the leading byte.
const (
	flagTaken   = 1 << 5
	flagHasDest = 1 << 6
	flagClassM  = 0x07 // class occupies the low 3 bits
)

// Writer streams instructions to w.
type Writer struct {
	w       *bufio.Writer
	started bool
	count   uint64
	prevPC  uint64
	prevAdr uint64
	prevTgt uint64
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter creates a writer and emits the header. count may be 0 when the
// final length is unknown.
func NewWriter(w io.Writer, count uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(Version); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], count)
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func (w *Writer) putVarint(v int64) error {
	n := binary.PutVarint(w.scratch[:], v)
	_, err := w.w.Write(w.scratch[:n])
	return err
}

// Write appends one instruction.
func (w *Writer) Write(in isa.Inst) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	head := byte(in.Class) & flagClassM
	if in.Taken {
		head |= flagTaken
	}
	if in.Dest >= 0 {
		head |= flagHasDest
	}
	if err := w.w.WriteByte(head); err != nil {
		return err
	}
	if err := w.putVarint(int64(in.PC) - int64(w.prevPC)); err != nil {
		return err
	}
	w.prevPC = in.PC
	if in.Dest >= 0 {
		if err := w.w.WriteByte(byte(in.Dest)); err != nil {
			return err
		}
	}
	// Sources are stored biased by +1 so -1 (none) becomes 0.
	if err := w.w.WriteByte(byte(in.Src1 + 1)); err != nil {
		return err
	}
	if err := w.w.WriteByte(byte(in.Src2 + 1)); err != nil {
		return err
	}
	if in.Class.IsMem() {
		if err := w.putVarint(int64(in.Addr) - int64(w.prevAdr)); err != nil {
			return err
		}
		w.prevAdr = in.Addr
	}
	if in.Class == isa.Branch && in.Taken {
		if err := w.putVarint(int64(in.Target) - int64(w.prevTgt)); err != nil {
			return err
		}
		w.prevTgt = in.Target
	}
	w.count++
	w.started = true
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered output; call before closing the underlying file.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams instructions back; it implements the pipeline's Source
// (after wrapping with Next's error policy, see Source()).
type Reader struct {
	r       *bufio.Reader
	count   uint64 // declared count; 0 = unknown
	prevPC  uint64
	prevAdr uint64
	prevTgt uint64
	lastPC  uint64
	pending *isa.Inst // one-instruction lookahead for NextPC fixing
	err     error
}

// NewReader validates the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, count: count}, nil
}

// DeclaredCount returns the count from the header (0 if unknown).
func (r *Reader) DeclaredCount() uint64 { return r.count }

// readOne decodes the next raw record.
func (r *Reader) readOne() (isa.Inst, error) {
	head, err := r.r.ReadByte()
	if err != nil {
		return isa.Inst{}, err // io.EOF at a record boundary is clean
	}
	var in isa.Inst
	in.Class = isa.Class(head & flagClassM)
	if in.Class >= isa.NumClasses {
		return isa.Inst{}, fmt.Errorf("trace: bad class %d", in.Class)
	}
	dpc, err := binary.ReadVarint(r.r)
	if err != nil {
		return isa.Inst{}, unexpected(err)
	}
	in.PC = uint64(int64(r.prevPC) + dpc)
	r.prevPC = in.PC
	in.Dest = -1
	if head&flagHasDest != 0 {
		b, err := r.r.ReadByte()
		if err != nil {
			return isa.Inst{}, unexpected(err)
		}
		in.Dest = int8(b)
	}
	s1, err := r.r.ReadByte()
	if err != nil {
		return isa.Inst{}, unexpected(err)
	}
	s2, err := r.r.ReadByte()
	if err != nil {
		return isa.Inst{}, unexpected(err)
	}
	in.Src1, in.Src2 = int8(s1)-1, int8(s2)-1
	if in.Class.IsMem() {
		da, err := binary.ReadVarint(r.r)
		if err != nil {
			return isa.Inst{}, unexpected(err)
		}
		in.Addr = uint64(int64(r.prevAdr) + da)
		r.prevAdr = in.Addr
	}
	if head&flagTaken != 0 {
		if in.Class != isa.Branch {
			return isa.Inst{}, errors.New("trace: taken flag on non-branch")
		}
		in.Taken = true
		dt, err := binary.ReadVarint(r.r)
		if err != nil {
			return isa.Inst{}, unexpected(err)
		}
		in.Target = uint64(int64(r.prevTgt) + dt)
		r.prevTgt = in.Target
	}
	return in, nil
}

func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Read returns the next instruction with NextPC reconstructed from a
// one-record lookahead; it returns io.EOF at the end of the stream.
func (r *Reader) Read() (isa.Inst, error) {
	if r.err != nil {
		return isa.Inst{}, r.err
	}
	if r.pending == nil {
		first, err := r.readOne()
		if err != nil {
			r.err = err
			return isa.Inst{}, err
		}
		r.pending = &first
	}
	cur := *r.pending
	next, err := r.readOne()
	switch {
	case err == nil:
		r.pending = &next
		cur.NextPC = next.PC
	case errors.Is(err, io.EOF):
		r.pending = nil
		r.err = io.EOF
		if cur.Taken {
			cur.NextPC = cur.Target
		} else {
			cur.NextPC = cur.PC + 4
		}
	default:
		r.err = err
		return isa.Inst{}, err
	}
	return cur, nil
}

// Source adapts the reader into an infinite pipeline source: once the trace
// is exhausted it loops from the recorded instructions held in its replay
// ring. For finite simulations shorter than the trace this never triggers.
type Source struct {
	r    *Reader
	ring []isa.Inst
	pos  int
	done bool
	// Err records the first decode error (pipeline sources cannot fail).
	Err error
}

// NewSource wraps a Reader.
func NewSource(r *Reader) *Source { return &Source{r: r} }

// Next implements the pipeline Source contract.
func (s *Source) Next() isa.Inst {
	if !s.done {
		in, err := s.r.Read()
		if err == nil {
			s.ring = append(s.ring, in)
			return in
		}
		s.done = true
		if !errors.Is(err, io.EOF) {
			s.Err = err
		}
		if len(s.ring) == 0 {
			// Degenerate trace: emit harmless no-op ALU instructions.
			s.ring = append(s.ring, isa.Inst{
				PC: 0x1000, Class: isa.IntALU, Dest: 1, Src1: 1, Src2: -1, NextPC: 0x1000,
			})
		}
	}
	in := s.ring[s.pos]
	s.pos = (s.pos + 1) % len(s.ring)
	return in
}
