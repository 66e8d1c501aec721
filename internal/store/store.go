// Package store is a disk-backed content-addressed result store: config
// digest → the exact response bytes served for it. It is the persistence
// layer under internal/serve's in-memory LRU, so a result computed before a
// restart or deploy is served afterwards without re-simulating.
//
// The on-disk format is one Log (store.log) whose frames are records:
// `u16 digest length | digest | body`. A Put appends one record and fsyncs
// before it is acknowledged, so an acknowledged Put survives a crash. Open
// rebuilds the index by scanning the log; a torn or corrupt tail (crash
// mid-append) is cut at the last intact record rather than failing the
// open, and the cut byte count is reported so the caller can log it.
//
// The store is bounded by bytes, not entries, because response bodies vary
// in size. Recency is tracked like an LRU (Get refreshes), and when the log
// file outgrows MaxBytes — from live data or from dead, superseded records —
// the store compacts: the hottest entries that fit in half the bound are
// rewritten coldest-first into a fresh log (so a rebuild recovers the same
// recency order), the rest are dropped, and the new log atomically replaces
// the old via rename. Keeping half the bound leaves half a bound of Puts
// before the next compaction.
//
// The determinism contract makes digests true content addresses: two Puts
// of one digest must carry identical bytes. Put with different bytes still
// works (last write wins) — the serving layer's anti-entropy sweep is the
// place that treats such divergence as the loud bug it is.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"tvsched/internal/lru"
)

const (
	logName = "store.log"
	tmpName = "store.log.tmp"

	// headerLen is a record's fixed cost: the frame header and the digest
	// length.
	headerLen = frameHeaderLen + 2

	maxDigestLen = 256
	maxBodyLen   = 1 << 30

	// DefaultMaxBytes bounds the log when Open is given no bound: 256 MiB.
	DefaultMaxBytes = 256 << 20
)

// ErrCorrupt reports a frame whose magic, length or checksum, or a record
// whose digest, failed verification on a read — the entry is treated as
// lost, never served.
var ErrCorrupt = errors.New("store: corrupt record")

// Store is a bounded, crash-tolerant digest → bytes map. All methods are
// safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	log      *Log
	live     int64 // bytes of records the index still points at
	index    *lru.LRU[string, entry]
	head     []byte // Put's digest length and digest, reused across Puts

	// Truncated is the number of trailing bytes Open discarded as torn or
	// corrupt. Read it once after Open (it is not updated afterwards).
	Truncated int64
}

type entry struct {
	off int64
	n   int64 // whole record length, frame header included
}

// newIndex returns an empty index. It bounds no entries: the store bounds
// bytes.
func newIndex() *lru.LRU[string, entry] { return lru.New[string, entry](math.MaxInt) }

// Open opens (creating if needed) the store in dir. maxBytes <= 0 takes
// DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: newIndex()}
	log, err := OpenLog(filepath.Join(dir, logName), StoreMagic, s.rebuild)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log, s.Truncated = log, log.Truncated
	return s, nil
}

// rebuild indexes one intact record of the open scan. Later records are
// more recent; a digest appearing twice resolves to its last record.
func (s *Store) rebuild(off int64, payload []byte) bool {
	digest, ok := recordDigest(payload)
	if !ok {
		return false
	}
	key := string(digest)
	if old, ok := s.index.Peek(key); ok {
		s.live -= old.n
	}
	n := int64(frameHeaderLen + len(payload))
	s.index.Put(key, entry{off: off, n: n})
	s.live += n
	return true
}

// recordDigest returns the digest a record payload carries; the body is
// the rest of the payload.
func recordDigest(payload []byte) ([]byte, bool) {
	if len(payload) < 2 {
		return nil, false
	}
	dlen := int(binary.BigEndian.Uint16(payload))
	if dlen == 0 || dlen > maxDigestLen || 2+dlen > len(payload) {
		return nil, false
	}
	return payload[2 : 2+dlen], true
}

// read returns the payload of digest's record at e, checked by the log and
// against digest. Callers hold s.mu.
func (s *Store) read(digest string, e entry) ([]byte, error) {
	payload, err := s.log.ReadAt(e.off)
	if err != nil {
		return nil, err
	}
	if d, ok := recordDigest(payload); !ok || string(d) != digest {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// Get returns the stored bytes for digest and refreshes its recency.
func (s *Store) Get(digest string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index.Get(digest)
	if !ok {
		return nil, false, nil
	}
	payload, err := s.read(digest, e)
	if err != nil {
		// The record rotted under us (should not happen outside disk
		// faults); drop it from the index rather than serving garbage.
		s.index.Remove(digest)
		s.live -= e.n
		return nil, false, fmt.Errorf("store: get %s: %w", digest, err)
	}
	return payload[2+len(digest):], true, nil
}

// Put appends digest → body and fsyncs. Re-putting a known digest only
// refreshes its recency (the bytes are content-addressed, so they are taken
// to be identical); a genuinely different body may be forced in by the
// last-write-wins append path when the lengths differ.
func (s *Store) Put(digest string, body []byte) error {
	if len(digest) == 0 || len(digest) > maxDigestLen {
		return fmt.Errorf("store: bad digest length %d", len(digest))
	}
	if len(body) > maxBodyLen {
		return fmt.Errorf("store: body too large (%d bytes)", len(body))
	}
	n := int64(headerLen + len(digest) + len(body))
	s.mu.Lock()
	defer s.mu.Unlock()
	old, had := s.index.Get(digest)
	if had && old.n == n {
		return nil
	}
	s.head = binary.BigEndian.AppendUint16(s.head[:0], uint16(len(digest)))
	s.head = append(s.head, digest...)
	off, err := s.log.Append(s.head, body)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if had { // different length ⇒ definitely different bytes: supersede
		s.live -= old.n
	}
	s.index.Put(digest, entry{off: off, n: n})
	s.live += n
	if s.log.Size() > s.maxBytes {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the hottest entries that fit in half the bound
// into a fresh log and atomically swaps it in; colder entries and dead
// records are dropped. Callers hold s.mu.
func (s *Store) compactLocked() error {
	// Decide the survivors hottest-first, then write them coldest-first so
	// a rebuild recovers the same recency order.
	keys := s.index.Keys()
	var kept int64
	for i, key := range keys {
		e, _ := s.index.Peek(key)
		if kept+e.n > s.maxBytes/2 && i > 0 {
			keys = keys[:i] // everything colder than this is evicted
			break
		}
		kept += e.n
	}
	tmpPath := filepath.Join(s.dir, tmpName)
	tmp, err := createLog(tmpPath, StoreMagic)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	index, live := newIndex(), int64(0)
	for i := len(keys) - 1; i >= 0; i-- { // coldest first
		e, _ := s.index.Peek(keys[i])
		payload, err := s.read(keys[i], e)
		if errors.Is(err, ErrCorrupt) {
			continue // a rotted survivor is dropped, not copied
		}
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		if e.off, err = tmp.Append(payload); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		index.Put(keys[i], e)
		live += e.n
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	s.log.Close()
	s.log, s.index, s.live = tmp, index, live
	return nil
}

// Len is the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Len()
}

// Bytes is the live record bytes (header overhead included).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Keys lists the live digests, most recently used first.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Keys()
}

// Close releases the log file handle. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
