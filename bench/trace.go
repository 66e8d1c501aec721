package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Times are
// offsets from the run's epoch on the monotonic clock.
type span struct {
	name string
	op   int // the operation (cell or request) it belongs to; -1 for run-level spans
	lane int // Perfetto track: a worker, a client connection, or the executor
	// parent is the innermost span of the same operation that contains this
	// one, -1 for a root; nest fills it in.
	parent     int
	start, end time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: that is the untraced run, whose only cost is the nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// imported counts spans copied from the server's flight recorder rather
	// than recorded by the benchmark (they cost the benchmark nothing).
	imported int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) add(name string, op, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, lane: lane, parent: -1,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// nest links every span to the innermost span of the same operation that
// contains it in time. Spans come from the benchmark's own timers, from
// Config.PhaseHook and from the server's flight recorder, so containment is
// the one parent relation all three share.
func (t *tracer) nest() {
	idx := make([]int, len(t.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := &t.spans[idx[a]], &t.spans[idx[b]]
		if sa.op != sb.op {
			return sa.op < sb.op
		}
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	var stack []int
	for k, i := range idx {
		s := &t.spans[i]
		s.parent = -1
		if k == 0 || t.spans[idx[k-1]].op != s.op {
			stack = stack[:0]
		}
		if s.op < 0 {
			continue
		}
		for len(stack) > 0 && t.spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover (children may overlap one another; their union counts once).
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].start < t.spans[ks[b]].start })
		covered := time.Duration(0)
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, k := range ks {
			cs, ce := max(t.spans[k].start, s.start), min(t.spans[k].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > curE {
				covered += curE - curS
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		covered += curE - curS
		self[i] = s.dur() - covered
	}
	return self
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	MeanMs  float64 `json:"mean_ms"`
}

// layerTable aggregates the spans by name, sorted by self time.
type layerTable struct {
	Rows []layerRow `json:"rows"`
	// BusyMs is the time inside operation roots; IdleMs what the lanes
	// spent outside them during the run (lanes × wall − busy).
	BusyMs float64 `json:"busy_ms"`
	IdleMs float64 `json:"idle_ms"`
	// ResidualPct is the share of busy time no layer span covers: the roots'
	// own self time.
	ResidualPct float64 `json:"residual_pct"`

	byName map[string]*layerRow
}

func (t *tracer) table(lanes int, wall time.Duration) *layerTable {
	self := t.selfTimes()
	lt := &layerTable{byName: map[string]*layerRow{}}
	var busy, rootSelf time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		r := lt.byName[s.name]
		if r == nil {
			r = &layerRow{Name: s.name}
			lt.byName[s.name] = r
		}
		r.Count++
		r.TotalMs += ms(s.dur())
		r.SelfMs += ms(self[i])
		if s.op >= 0 && s.parent < 0 {
			busy += s.dur()
			rootSelf += self[i]
		}
	}
	for _, r := range lt.byName {
		r.MeanMs = r.TotalMs / float64(r.Count)
		lt.Rows = append(lt.Rows, *r)
	}
	sort.Slice(lt.Rows, func(i, j int) bool { return lt.Rows[i].SelfMs > lt.Rows[j].SelfMs })
	lt.BusyMs = ms(busy)
	lt.IdleMs = ms(time.Duration(lanes)*wall - busy)
	lt.ResidualPct = 100 * ratio(float64(rootSelf), float64(busy))
	return lt
}

// total and count read one layer's row (zero when the layer never ran).
func (lt *layerTable) total(name string) time.Duration {
	if r := lt.byName[name]; r != nil {
		return time.Duration(r.TotalMs * 1e6)
	}
	return 0
}

func (lt *layerTable) self(name string) time.Duration {
	if r := lt.byName[name]; r != nil {
		return time.Duration(r.SelfMs * 1e6)
	}
	return 0
}

func (lt *layerTable) count(name string) int {
	if r := lt.byName[name]; r != nil {
		return r.Count
	}
	return 0
}

// mean is a layer's mean span duration.
func (lt *layerTable) mean(name string) time.Duration { return meanOf(lt.total(name), lt.count(name)) }

// chromeEvent is one Chrome trace-event record; Ts and Dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// ui.perfetto.dev: one track per lane, slices nested by containment, and
// each slice's operation key, span id and parent id in its args.
func (t *tracer) writeChrome(path string, opKey func(op int) string, laneName func(lane int) string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	lanes := map[int]bool{}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(ev)
	}
	for i := range t.spans {
		s := &t.spans[i]
		if !lanes[s.lane] {
			lanes[s.lane] = true
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.lane,
				Args: map[string]any{"name": laneName(s.lane)}}); err != nil {
				f.Close()
				return err
			}
		}
		args := map[string]any{"id": i, "parent": s.parent}
		if s.op >= 0 {
			args["op"] = opKey(s.op)
		}
		if err := emit(chromeEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()),
			Pid: 1, Tid: s.lane, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost calibrates what recording one span costs (a clock read plus the
// append), for the trace.overhead_pct estimate.
func spanCost() time.Duration {
	const n = 20000
	tr := newTracer(time.Now())
	start := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		tr.add("calibrate", i, 0, now, now)
	}
	return time.Since(start) / n
}
