package campaign

import (
	"sync"
	"time"

	"tvsched/internal/resolve"
)

// ProgressSchema tags the heartbeat records a progress-enabled campaign or
// sweep stream interleaves with its cell lines. Cell lines never carry a
// schema field, so `"schema":"tvsched/progress/v1"` is the discriminator.
// This is the schema PR 7 introduced on /v1/sweep; the campaign engine
// adopts it unchanged.
const ProgressSchema = "tvsched/progress/v1"

// Class is the provenance of one resolved cell, the campaign accounting's
// vocabulary: a cache/store "hit", a duplicate collapsed onto an in-flight
// computation ("shared"), a fresh simulation that "restored" a warm snapshot
// or ran fully "cold", a cell another cluster node paid for ("stolen"), or a
// failure.
type Class int

// The provenance classes, in ProgressLine field order.
const (
	ClassHit Class = iota
	ClassShared
	ClassRestored
	ClassCold
	ClassStolen
	ClassError
	NumClasses
)

var classNames = [NumClasses]string{"hit", "shared", "restored", "cold", "stolen", "error"}

// String returns the metrics/journal label for the class.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "unknown"
	}
	return classNames[c]
}

// ClassOf folds one resolution into its class. A failure is an error
// whatever its source; bytes from the cluster are stolen (another node paid
// for the simulation); a degraded run counts by how it warmed up.
func ClassOf(p resolve.Provenance, err error) Class {
	switch {
	case err != nil:
		return ClassError
	case p.Shared:
		return ClassShared
	}
	switch p.Src {
	case resolve.Memory, resolve.Store:
		return ClassHit
	case resolve.Peer, resolve.Forward:
		return ClassStolen
	case resolve.Restored, resolve.DegradedRestored:
		return ClassRestored
	}
	return ClassCold
}

// ProgressLine is one live-campaign heartbeat: cumulative cell accounting by
// provenance plus an ETA extrapolated from an EWMA of cell latency. The field
// layout is tvsched/progress/v1, shared byte-for-byte with /v1/sweep
// heartbeats.
type ProgressLine struct {
	Schema      string  `json:"schema"`
	Done        int     `json:"done"`
	Total       int     `json:"total"`
	Hit         int     `json:"hit"`
	Shared      int     `json:"shared"`
	Restored    int     `json:"restored"`
	Cold        int     `json:"cold"`
	Stolen      int     `json:"stolen"`
	Errors      int     `json:"errors"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	CellEwmaSec float64 `json:"cell_ewma_sec"`
	EtaSec      float64 `json:"eta_sec"`
}

// Progress accumulates per-cell completions for one campaign's heartbeats and
// status answers. Cell workers write, the emission loop and status handlers
// read; the mutex is the only coupling.
type Progress struct {
	mu       sync.Mutex
	total    int
	done     int
	counts   [NumClasses]int
	replayed int
	// replayedSkip counts replays whose original class was itself a skip
	// (hit/shared/stolen), so the skip ratio never counts them twice.
	replayedSkip int
	ewma         float64 // seconds per executed cell
}

// NewProgress returns accounting for a campaign of total cells.
func NewProgress(total int) *Progress { return &Progress{total: total} }

// Observe folds one executed cell in. The EWMA (α=0.3) tracks recent cell
// latency so the ETA adapts as a campaign transitions cold → warm.
func (p *Progress) Observe(c Class, d time.Duration) {
	if c < 0 || c >= NumClasses {
		c = ClassError
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.counts[c]++
	const alpha = 0.3
	if sec := d.Seconds(); p.ewma == 0 {
		p.ewma = sec
	} else {
		p.ewma = alpha*sec + (1-alpha)*p.ewma
	}
}

// Replay folds one journal-replayed cell in under its original class. Replays
// are free, so they count toward done without touching the latency EWMA.
func (p *Progress) Replay(c Class) {
	if c < 0 || c >= NumClasses {
		c = ClassError
	}
	p.mu.Lock()
	p.done++
	p.counts[c]++
	p.replayed++
	if c == ClassHit || c == ClassShared || c == ClassStolen {
		p.replayedSkip++
	}
	p.mu.Unlock()
}

// Line renders the current heartbeat. The ETA assumes the remaining cells run
// at the EWMA latency across min(lanes, remaining) lanes.
func (p *Progress) Line(start time.Time, lanes int) *ProgressLine {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := &ProgressLine{
		Schema: ProgressSchema,
		Done:   p.done, Total: p.total,
		Hit: p.counts[ClassHit], Shared: p.counts[ClassShared],
		Restored: p.counts[ClassRestored], Cold: p.counts[ClassCold],
		Stolen:      p.counts[ClassStolen],
		Errors:      p.counts[ClassError],
		ElapsedSec:  time.Since(start).Seconds(),
		CellEwmaSec: p.ewma,
	}
	if remaining := p.total - p.done; remaining > 0 && lanes > 0 {
		if remaining < lanes {
			lanes = remaining
		}
		l.EtaSec = p.ewma * float64(remaining) / float64(lanes)
	}
	return l
}

// Snapshot returns a consistent copy of the accounting (status endpoints,
// summaries).
func (p *Progress) Snapshot() (done, replayed int, counts [NumClasses]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.replayed, p.counts
}

// Summary renders the end-of-campaign artifact for a plan executed under this
// accounting.
func (p *Progress) Summary(plan *Plan, elapsed time.Duration) *Summary {
	p.mu.Lock()
	done, replayed, counts, replayedSkip := p.done, p.replayed, p.counts, p.replayedSkip
	p.mu.Unlock()
	s := &Summary{
		Schema: SummarySchema,
		Plan:   plan.Hash(),
		Tag:    plan.Spec().Tag,
		Cells:  plan.Total(),
		Done:   done, Replayed: replayed,
		Hit: counts[ClassHit], Shared: counts[ClassShared],
		Restored: counts[ClassRestored], Cold: counts[ClassCold],
		Stolen: counts[ClassStolen], Errors: counts[ClassError],
		ElapsedSec: elapsed.Seconds(),
	}
	if done > 0 {
		// A cell is "skipped" when this run paid no simulation for it: an
		// executed hit/shared/stolen, or any journal replay. Replays carry
		// their original class in counts, so subtract the overlap.
		skipped := counts[ClassHit] + counts[ClassShared] + counts[ClassStolen] - replayedSkip + replayed
		s.SkipRatio = float64(skipped) / float64(done)
	}
	return s
}
