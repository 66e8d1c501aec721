package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"
)

// Magic opens every frame of a log and names what kind of file it is, so a
// campaign journal never scans as a result store, nor the reverse.
type Magic uint32

const (
	StoreMagic   Magic = 0x54565253 // "TVRS": the result store's store.log
	JournalMagic Magic = 0x5456434A // "TVCJ": a campaign journal
)

// frameHeaderLen is a frame's fixed prefix: magic, payload length and the
// payload's CRC-32 (IEEE), each a big-endian u32.
const frameHeaderLen = 4 + 4 + 4

// Log is an append-only file of checksummed frames, the crash discipline
// under both the result store and the campaign journal. A frame is
//
//	magic u32 | payload length u32 | CRC-32 of the payload u32 | payload
//
// OpenLog keeps the longest prefix of intact frames and cuts the rest, so a
// crash mid-append costs the torn frame and nothing before it; ReadAt checks
// a frame again before it returns the payload, so bytes that rot after the
// open are reported, never handed back.
//
// A Log does not lock: its callers serialize Append, Sync and Close. ReadAt
// and Size may run alongside them.
type Log struct {
	f     *os.File
	magic Magic
	size  atomic.Int64
	buf   []byte // Append's small frames, reused so an append allocates nothing

	// Truncated is the number of trailing bytes OpenLog cut.
	Truncated int64
}

// OpenLog opens, creating if needed, the log at path and scans it once,
// front to back, calling visit on each intact frame in order. The payload
// visit sees is only valid during the call. The scan stops at the first
// frame that is torn, carries another magic, claims more bytes than the
// file has left, fails its checksum or is refused by visit; the file is cut
// there, durably, and Truncated reports the bytes cut.
func OpenLog(path string, magic Magic, visit func(off int64, payload []byte) bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, magic: magic}
	if err := l.scan(visit); err != nil {
		f.Close()
		return nil, fmt.Errorf("log %s: %w", path, err)
	}
	return l, nil
}

// createLog makes an empty log at path, discarding whatever was there.
func createLog(path string, magic Magic) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, magic: magic}, nil
}

func (l *Log) scan(visit func(off int64, payload []byte) bool) error {
	fi, err := l.f.Stat()
	if err != nil {
		return err
	}
	total := fi.Size()
	r := bufio.NewReader(io.NewSectionReader(l.f, 0, total))
	var (
		hdr     [frameHeaderLen]byte
		payload []byte
		off     int64
	)
	for off+frameHeaderLen <= total {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		n, sum, ok := l.parse(hdr[:], total-off)
		if !ok {
			break
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != sum || !visit(off, payload) {
			break
		}
		off += frameHeaderLen + int64(n)
	}
	if off < total {
		l.Truncated = total - off
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("cutting the damaged tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.size.Store(off)
	return nil
}

// parse checks a frame header against the log's magic and the remain bytes
// left in the file from the frame's start, and returns the payload length
// and checksum it declares.
func (l *Log) parse(hdr []byte, remain int64) (n int, sum uint32, ok bool) {
	if Magic(binary.BigEndian.Uint32(hdr[0:4])) != l.magic {
		return 0, 0, false
	}
	n64 := int64(binary.BigEndian.Uint32(hdr[4:8]))
	if n64 > remain-frameHeaderLen {
		return 0, 0, false
	}
	return int(n64), binary.BigEndian.Uint32(hdr[8:12]), true
}

// maxScratch bounds the buffer Append reuses. A frame up to this size is
// built in it and written in one write; the parts of a longer frame that do
// not fit are written straight from the caller's slices, so the log never
// keeps a copy of a large payload.
const maxScratch = 8 << 10

// Append writes the concatenation of parts as one frame at the end of the
// log and returns the frame's offset. It does not sync. A frame longer than
// maxScratch takes more than one write; a crash between them leaves a torn
// frame, which OpenLog cuts like any other.
func (l *Log) Append(parts ...[]byte) (int64, error) {
	var n uint64
	var sum uint32
	for _, p := range parts {
		n += uint64(len(p))
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	if n > math.MaxUint32 {
		return 0, fmt.Errorf("log: payload of %d bytes does not fit a frame", n)
	}
	if l.buf == nil {
		l.buf = make([]byte, 0, maxScratch)
	}
	buf := binary.BigEndian.AppendUint32(l.buf[:0], uint32(l.magic))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = binary.BigEndian.AppendUint32(buf, sum)
	off := l.size.Load()
	at := off
	for _, p := range parts {
		if len(buf)+len(p) <= cap(buf) {
			buf = append(buf, p...)
			continue
		}
		if _, err := l.f.WriteAt(buf, at); err != nil {
			return 0, err
		}
		at += int64(len(buf))
		buf = buf[:0]
		if _, err := l.f.WriteAt(p, at); err != nil {
			return 0, err
		}
		at += int64(len(p))
	}
	if _, err := l.f.WriteAt(buf, at); err != nil {
		return 0, err
	}
	l.size.Store(at + int64(len(buf)))
	return off, nil
}

// ReadAt returns the payload of the frame at off, after checking its magic,
// length and checksum again: a frame damaged since OpenLog is ErrCorrupt.
func (l *Log) ReadAt(off int64) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := l.f.ReadAt(hdr[:], off); err != nil {
		return nil, err
	}
	n, sum, ok := l.parse(hdr[:], l.size.Load()-off)
	if !ok {
		return nil, ErrCorrupt
	}
	payload := make([]byte, n)
	if _, err := l.f.ReadAt(payload, off+frameHeaderLen); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// Size is the log's length in bytes: where the next frame goes.
func (l *Log) Size() int64 { return l.size.Load() }

// Sync makes every appended frame durable.
func (l *Log) Sync() error { return l.f.Sync() }

// Close releases the file. The log is unusable afterwards.
func (l *Log) Close() error { return l.f.Close() }
