package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// CellResult is how a Runner resolved one cell: the provenance class the
// accounting folds in, the coarse cache annotation the line carries, and the
// rendered run-report/v1 body (or the error).
type CellResult struct {
	Class Class
	Cache string
	Body  []byte
	Err   error
}

// Runner executes one planned cell. The executor calls it from worker
// goroutines, at most Options.Workers concurrently; the context is canceled
// when the campaign stops early.
type Runner func(ctx context.Context, cell Cell) CellResult

// Options parameterizes one Execute call.
type Options struct {
	// Workers bounds concurrently executing cells (default GOMAXPROCS).
	Workers int
	// Window bounds launched-but-not-yet-emitted cells — the out-of-order
	// buffer between the concurrent pool and the strictly ordered stream
	// (default 4×Workers, min 16). Peak memory is proportional to Window,
	// never to the plan's cell count.
	Window int
	// Lanes is the parallelism the heartbeat ETA assumes (default Workers).
	Lanes int
	// Heartbeat, when positive, interleaves tvsched/progress/v1 records with
	// the cell lines at this cadence, plus one final heartbeat after the last
	// cell. Zero keeps the stream a pure function of the plan.
	Heartbeat time.Duration
	// HeartbeatW receives heartbeat records (default the cell-line writer;
	// tvplan points it at stderr so -out stays byte-deterministic).
	HeartbeatW io.Writer
	// Progress, when non-nil, is the shared accounting Execute folds cells
	// into — the seam status endpoints read live. Nil gets a private one.
	Progress *Progress
	// Start anchors elapsed/ETA accounting (default now).
	Start time.Time
	// Flush, when non-nil, runs after every emitted record (HTTP streaming).
	Flush func()
	// OnCell, when non-nil, observes every executed (not replayed) cell with
	// its wall-clock duration — the metrics/span seam.
	OnCell func(cell Cell, res CellResult, d time.Duration)
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Window <= 0 {
		o.Window = 4 * o.Workers
		if o.Window < 16 {
			o.Window = 16
		}
	}
	if o.Lanes <= 0 {
		o.Lanes = o.Workers
	}
	if o.Start.IsZero() {
		o.Start = time.Now()
	}
}

// Stats summarizes one Execute call.
type Stats struct {
	Total    int
	Done     int
	Replayed int
	Counts   [NumClasses]int
	Elapsed  time.Duration
}

// Errors is the failed-cell count.
func (s Stats) Errors() int { return s.Counts[ClassError] }

// Group is one warm group's share of an Execute call: the cells with one
// WarmKey that the call runs, journaled cells excluded. Execute counts them
// before it launches any cell. A runner that holds state for the group — the
// LocalRunner's warm snapshot — calls Done as each of them finishes, and
// releases the state once Done reports the last.
type Group struct {
	// Key is the group's WarmKey.
	Key  string
	left atomic.Int64
}

// Done records that one of the group's cells finished and reports whether
// it was the last one the Execute call runs. A nil Group never reports it.
func (g *Group) Done() bool { return g != nil && g.left.Add(-1) == 0 }

// warmGroups counts, per warm group, the cells of plan that Execute will
// run: those j has not journaled. Within a plan a cell's benchmark and seed
// determine its WarmKey, so the key is computed once per such pair.
func warmGroups(plan *Plan, j *Journal) map[warmID]*Group {
	groups := make(map[warmID]*Group)
	for i := 0; i < plan.Total(); i++ {
		if j != nil && j.Done(i) {
			continue
		}
		cfg := plan.Cell(i).Config
		id := warmID{cfg.Benchmark, cfg.Seed}
		g := groups[id]
		if g == nil {
			g = &Group{Key: cfg.WarmKey()}
			groups[id] = g
		}
		g.left.Add(1)
	}
	return groups
}

// warmID is the part of a plan cell that picks its warm group.
type warmID struct {
	benchmark string
	seed      uint64
}

type indexedResult struct {
	index int
	res   CellResult
}

// Execute runs the plan: journaled cells are replayed verbatim (free,
// byte-identical), the rest execute on a bounded worker pool, and every line
// is written to w in strictly ascending index order — journaled before
// emitted, so the journal always holds a prefix of the stream and a killed
// campaign resumes exactly where it stopped. j may be nil (journal-less
// sweeps). The returned error is an I/O or context failure of the campaign
// machinery; per-cell simulation failures are lines and Stats counts, not an
// error.
func Execute(ctx context.Context, plan *Plan, j *Journal, run Runner, w io.Writer, opts Options) (Stats, error) {
	opts.fill()
	prog := opts.Progress
	if prog == nil {
		prog = NewProgress(plan.Total())
	}
	hw := opts.HeartbeatW
	if hw == nil {
		hw = w
	}
	total := plan.Total()
	stats := Stats{Total: total}

	ectx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The launcher walks indices ascending, skipping journaled cells,
	// acquiring a window token (bounds unemitted work) then a worker slot.
	// Workers deliver out of order; the emitter reorders. Launch order is
	// deterministic, so a duplicate digest's singleflight leader is almost
	// always its first cell — but under concurrency that is a tendency, not a
	// guarantee, which is why only Cache may vary between runs of a plan with
	// duplicate digests.
	var groups map[warmID]*Group
	if plan.Checkpoint() {
		groups = warmGroups(plan, j)
	}
	results := make(chan indexedResult, opts.Window)
	window := make(chan struct{}, opts.Window)
	sem := make(chan struct{}, opts.Workers)
	go func() {
		for i := 0; i < total; i++ {
			if j != nil && j.Done(i) {
				continue
			}
			select {
			case window <- struct{}{}:
			case <-ectx.Done():
				return
			}
			select {
			case sem <- struct{}{}:
			case <-ectx.Done():
				return
			}
			cell := plan.Cell(i)
			cell.Group = groups[warmID{cell.Config.Benchmark, cell.Config.Seed}]
			go func(cell Cell) {
				defer func() { <-sem }()
				cellStart := time.Now()
				res := run(ectx, cell)
				d := time.Since(cellStart)
				prog.Observe(res.Class, d)
				if opts.OnCell != nil {
					opts.OnCell(cell, res, d)
				}
				select {
				case results <- indexedResult{cell.Index, res}:
				case <-ectx.Done():
				}
			}(cell)
		}
	}()

	emit := func(record []byte) error {
		if _, err := w.Write(record); err != nil {
			return err
		}
		if opts.Flush != nil {
			opts.Flush()
		}
		return nil
	}
	heartbeat := func() error {
		b, err := json.Marshal(prog.Line(opts.Start, opts.Lanes))
		if err != nil {
			return err
		}
		if _, err := hw.Write(append(b, '\n')); err != nil {
			return err
		}
		if opts.Flush != nil {
			opts.Flush()
		}
		return nil
	}
	// A nil ticker channel blocks forever, collapsing the wait select to
	// plain emission.
	var tick <-chan time.Time
	if opts.Heartbeat > 0 {
		t := time.NewTicker(opts.Heartbeat)
		defer t.Stop()
		tick = t.C
	}

	buffered := make(map[int]CellResult, opts.Window)
	for i := 0; i < total; i++ {
		if j != nil {
			if class, line, ok, err := j.ReadLine(i); err != nil {
				return stats, err
			} else if ok {
				prog.Replay(class)
				stats.Done++
				stats.Replayed++
				stats.Counts[class]++
				if err := emit(append(line, '\n')); err != nil {
					return stats, err
				}
				continue
			}
		}
		res, ok := buffered[i]
		for !ok {
			select {
			case r := <-results:
				buffered[r.index] = r.res
				res, ok = buffered[i]
			case <-tick:
				if err := heartbeat(); err != nil {
					return stats, err
				}
			case <-ectx.Done():
				stats.Elapsed = time.Since(opts.Start)
				return stats, ectx.Err()
			}
		}
		delete(buffered, i)
		<-window

		if res.Err != nil && ectx.Err() != nil {
			// The campaign is stopping and this cell died of the shared
			// cancellation (or alongside it). Journaling it would freeze a
			// transient shutdown error into the record and break the resume
			// contract — a resumed campaign must replay only real results.
			stats.Elapsed = time.Since(opts.Start)
			return stats, ectx.Err()
		}
		cfg := plan.Cell(i).Config
		line := Line{
			Index:     i,
			Benchmark: cfg.Benchmark,
			Scheme:    cfg.Scheme.String(),
			VDD:       cfg.VDD,
			Seed:      cfg.Seed,
			Digest:    cfg.Digest(),
			Cache:     res.Cache,
		}
		if res.Err != nil {
			line.Error = res.Err.Error()
		} else {
			line.Report = json.RawMessage(trimNewline(res.Body))
		}
		b, err := json.Marshal(&line)
		if err != nil {
			return stats, fmt.Errorf("campaign: render cell %d: %w", i, err)
		}
		if j != nil {
			if err := j.Append(i, res.Class, b); err != nil {
				return stats, err
			}
		}
		stats.Done++
		stats.Counts[res.Class]++
		if err := emit(append(b, '\n')); err != nil {
			return stats, err
		}
	}
	// A final heartbeat closes the accounting (done == total, ETA 0) so a
	// consumer never has to infer completion from a stale extrapolation.
	if opts.Heartbeat > 0 {
		if err := heartbeat(); err != nil {
			return stats, err
		}
	}
	if j != nil {
		if err := j.Sync(); err != nil {
			return stats, err
		}
	}
	stats.Elapsed = time.Since(opts.Start)
	return stats, nil
}

func trimNewline(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}
