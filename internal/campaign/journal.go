package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"tvsched/internal/store"
)

// JournalSchema tags the header frame of a campaign journal file.
const JournalSchema = "tvsched/campaign-journal/v1"

// The journal is a store.Log of JSON payloads — the persistent result
// store's crash discipline, magic "TVCJ": a torn or corrupted tail is cut
// back to the last intact frame on open, and a frame is checked again
// whenever it is read. The first frame is the header (schema, plan hash,
// cell total, the full normalized spec — enough to rebuild the plan with no
// side channel); every later frame is one completed cell: its index, its
// provenance class, and the exact rendered NDJSON line bytes.
//
// Because the executor journals a cell at emission time — and emission is
// strictly index-ascending — an intact journal always holds a prefix of the
// report. Replaying that prefix verbatim and executing the rest is what makes
// a resumed campaign byte-identical to an uninterrupted one.

// ErrJournalMismatch reports a journal that belongs to a different plan than
// the one being executed — resuming it would corrupt both campaigns.
var ErrJournalMismatch = errors.New("campaign journal belongs to a different plan")

// errNoHeader reports a journal file with no intact header frame.
var errNoHeader = errors.New("campaign journal has no intact header")

type journalHeader struct {
	Schema string `json:"schema"`
	Plan   string `json:"plan"`
	Total  int    `json:"total"`
	Spec   Spec   `json:"spec"`
}

type journalRecord struct {
	Index int             `json:"index"`
	Class int             `json:"class"`
	Line  json.RawMessage `json:"line"`
}

// Journal is the on-disk completed-cell log of one campaign. All methods are
// safe for concurrent use; reads (ReadLine, Done) may run while the executor
// appends.
type Journal struct {
	log  *store.Log
	path string

	hdr     journalHeader
	mu      sync.Mutex
	offsets []int64 // cell index → frame offset, -1 when absent
	doneN   int
	appends int // appends since the last fsync

	// Truncated is how many torn-tail bytes open discarded (diagnostics).
	Truncated int64
}

// OpenJournal creates or resumes the journal for one plan. A fresh (or
// headerless, e.g. torn-at-birth) file is initialized with a header frame; an
// existing one is scanned, its torn tail truncated, and its identity checked:
// a plan-hash or total mismatch is ErrJournalMismatch, never silent reuse.
func OpenJournal(path string, plan *Plan) (*Journal, error) {
	j, err := openJournalFile(path)
	if err != nil {
		return nil, err
	}
	if j.hdr.Schema == "" {
		// New file: write the header.
		j.hdr = journalHeader{Schema: JournalSchema, Plan: plan.Hash(), Total: plan.Total(), Spec: plan.Spec()}
		j.offsets = newOffsets(plan.Total())
		payload, err := json.Marshal(&j.hdr)
		if err != nil {
			j.log.Close()
			return nil, err
		}
		if _, err := j.log.Append(payload); err != nil {
			j.log.Close()
			return nil, fmt.Errorf("campaign journal %s: %w", path, err)
		}
		if err := j.log.Sync(); err != nil {
			j.log.Close()
			return nil, err
		}
		return j, nil
	}
	if j.hdr.Plan != plan.Hash() || j.hdr.Total != plan.Total() {
		j.log.Close()
		return nil, fmt.Errorf("%w: journal %s holds plan %s (%d cells), want %s (%d cells)",
			ErrJournalMismatch, path, j.hdr.Plan, j.hdr.Total, plan.Hash(), plan.Total())
	}
	return j, nil
}

// LoadJournal opens an existing journal standalone — the resume-on-restart
// scan path, where the journal itself is the only record of what the campaign
// was. The embedded spec rebuilds the plan; OpenJournal semantics otherwise.
func LoadJournal(path string) (*Journal, *Plan, error) {
	j, err := openJournalFile(path)
	if err != nil {
		return nil, nil, err
	}
	if j.hdr.Schema == "" {
		j.log.Close()
		return nil, nil, fmt.Errorf("campaign journal %s: %w", path, errNoHeader)
	}
	plan, err := NewPlan(j.hdr.Spec)
	if err != nil {
		j.log.Close()
		return nil, nil, fmt.Errorf("campaign journal %s: embedded spec: %w", path, err)
	}
	if plan.Hash() != j.hdr.Plan || plan.Total() != j.hdr.Total {
		j.log.Close()
		return nil, nil, fmt.Errorf("%w: journal %s header says %s (%d cells) but its spec plans %s (%d cells)",
			ErrJournalMismatch, path, j.hdr.Plan, j.hdr.Total, plan.Hash(), plan.Total())
	}
	return j, plan, nil
}

// openJournalFile opens path and indexes every intact frame, cutting the
// torn tail. A missing or empty file (or one whose very first frame is not
// a valid header) comes back empty, with a zero header for the caller to
// initialize.
func openJournalFile(path string) (*Journal, error) {
	j := &Journal{path: path}
	log, err := store.OpenLog(path, store.JournalMagic, j.visit)
	if err != nil {
		return nil, err
	}
	j.log, j.Truncated = log, log.Truncated
	return j, nil
}

// visit indexes one intact frame of the open scan. It refuses a first frame
// that is not a valid header, which cuts the whole file; a later frame with
// bad JSON, or with an out-of-range or repeated index, is skipped.
func (j *Journal) visit(off int64, payload []byte) bool {
	if off == 0 {
		var hdr journalHeader
		if err := json.Unmarshal(payload, &hdr); err != nil || hdr.Schema != JournalSchema || hdr.Total < 0 {
			return false
		}
		j.hdr = hdr
		j.offsets = newOffsets(hdr.Total)
		return true
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err == nil &&
		rec.Index >= 0 && rec.Index < len(j.offsets) && j.offsets[rec.Index] < 0 {
		j.offsets[rec.Index] = off
		j.doneN++
	}
	return true
}

func newOffsets(total int) []int64 {
	offs := make([]int64, total)
	for i := range offs {
		offs[i] = -1
	}
	return offs
}

// Append journals one completed cell: its index, provenance class, and the
// exact line bytes the stream emitted (sans trailing newline). Duplicate
// appends for a completed index are no-ops. Every append is written to the
// kernel, so it survives a SIGKILL of this process; an fsync lands every 64
// appends and on Close, so a machine crash costs at most a tail of re-runs,
// never a corrupt prefix.
func (j *Journal) Append(index int, class Class, line []byte) error {
	if index < 0 || index >= len(j.offsets) {
		return fmt.Errorf("campaign journal %s: index %d out of range [0,%d)", j.path, index, len(j.offsets))
	}
	rec := journalRecord{Index: index, Class: int(class), Line: json.RawMessage(line)}
	payload, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.offsets[index] >= 0 {
		return nil
	}
	off, err := j.log.Append(payload)
	if err != nil {
		return fmt.Errorf("campaign journal %s: %w", j.path, err)
	}
	j.offsets[index] = off
	j.doneN++
	j.appends++
	if j.appends >= 64 {
		j.appends = 0
		return j.log.Sync()
	}
	return nil
}

// Done reports whether the cell at index has a journaled line.
func (j *Journal) Done(index int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return index >= 0 && index < len(j.offsets) && j.offsets[index] >= 0
}

// DoneCount is the number of journaled cells.
func (j *Journal) DoneCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doneN
}

// ReadLine returns the journaled class and line bytes for one completed cell
// index; ok is false when the cell has no record. The frame is checked
// again, so a record damaged since the journal opened is an error, never
// replayed. Reads are safe alongside concurrent appends (appends only ever
// add frames past every published offset).
func (j *Journal) ReadLine(index int) (Class, []byte, bool, error) {
	j.mu.Lock()
	if index < 0 || index >= len(j.offsets) || j.offsets[index] < 0 {
		j.mu.Unlock()
		return 0, nil, false, nil
	}
	off := j.offsets[index]
	j.mu.Unlock()

	payload, err := j.log.ReadAt(off)
	if err != nil {
		return 0, nil, false, fmt.Errorf("campaign journal %s: record at %d: %w", j.path, off, err)
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, nil, false, fmt.Errorf("campaign journal %s: record at %d: %w", j.path, off, err)
	}
	return Class(rec.Class), []byte(rec.Line), true, nil
}

// Sync forces appended frames to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Sync()
}

// Close syncs and closes the file. The journal is unusable afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Sync(); err != nil {
		j.log.Close()
		return err
	}
	return j.log.Close()
}
