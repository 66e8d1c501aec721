package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Chrome trace-event process ids: one synthetic "process" per view so
// Perfetto groups the lanes sensibly.
const (
	pidLanes      = 1 // per-lane instruction occupancy (X slices)
	pidViolations = 2 // violation / replay / flush instants, one row per stage
	pidCounters   = 3 // IQ/ROB occupancy counter track
	pidCommit     = 4 // retire instants
)

// ChromeTracer converts the event stream into the Chrome trace-event JSON
// format (the "JSON Array Format" of the trace-event spec), loadable in
// chrome://tracing and https://ui.perfetto.dev. One simulated cycle maps to
// one microsecond of trace time.
//
// Instructions appear as duration slices on their functional-unit lane
// (select to retire-ready), violations/replays/flushes as instant events on
// a per-stage row, occupancy samples as a counter track, and retires as
// instants on a commit row. Fetch/dispatch and TEP events are dropped to
// keep traces compact.
//
// The tracer retains at most 400k events and counts the overflow in
// Dropped; it is safe for concurrent use.
type ChromeTracer struct {
	limit int // bound on the retained trace events

	mu      sync.Mutex
	events  []chromeEvent
	dropped uint64
}

// chromeEvent is one trace-event record. Ts/Dur are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// chromeKinds marks the event kinds a ChromeTracer records: the occupancy,
// violation and commit views, not the very hot front-end and TEP kinds.
var chromeKinds = [NumKinds]bool{
	KindIssue: true, KindViolationPredicted: true, KindViolationActual: true,
	KindReplay: true, KindFlush: true, KindSlotFreeze: true, KindSample: true, KindRetire: true,
}

// NewChromeTracer builds a tracer.
func NewChromeTracer() *ChromeTracer { return &ChromeTracer{limit: 400000} }

// Dropped returns how many kept-kind events exceeded the retention bound
// and were discarded.
func (t *ChromeTracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Event implements Observer.
func (t *ChromeTracer) Event(e Event) {
	if !chromeKinds[e.Kind] {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	switch e.Kind {
	case KindIssue:
		dur := uint64(1)
		if e.B > e.Cycle {
			dur = e.B - e.Cycle
		}
		t.events = append(t.events, chromeEvent{
			Name: fmt.Sprintf("%s pc=%#x", e.Class, e.PC),
			Ph:   "X", Ts: e.Cycle, Dur: dur,
			Pid: pidLanes, Tid: int(e.Lane),
			Args: map[string]uint64{"seq": e.Seq, "depReady": e.A, "complete": e.B},
		})
	case KindViolationPredicted:
		name := "predicted " + e.Stage.String()
		if e.A == 0 {
			name = "false-positive " + e.Stage.String()
		}
		t.instant(name, e.Cycle, pidViolations, int(e.Stage), map[string]uint64{"seq": e.Seq, "pc": e.PC})
	case KindViolationActual:
		t.instant("unpredicted "+e.Stage.String(), e.Cycle, pidViolations, int(e.Stage),
			map[string]uint64{"seq": e.Seq, "pc": e.PC})
	case KindReplay:
		t.instant("replay "+e.Stage.String(), e.Cycle, pidViolations, int(e.Stage),
			map[string]uint64{"seq": e.Seq, "bubble": e.A})
	case KindFlush:
		t.instant("flush", e.Cycle, pidViolations, int(e.Stage), map[string]uint64{"squashed": e.A})
	case KindSlotFreeze:
		t.instant("slot-freeze", e.Cycle, pidLanes, int(e.Lane), map[string]uint64{"until": e.A})
	case KindSample:
		t.events = append(t.events, chromeEvent{
			Name: "occupancy", Ph: "C", Ts: e.Cycle,
			Pid: pidCounters, Tid: 0,
			Args: map[string]uint64{"iq": e.A, "rob": e.B},
		})
	case KindRetire:
		args := map[string]uint64{"seq": e.Seq}
		if e.A != NeverIssued {
			// Cycle 0 is a valid select time; NeverIssued marks the absence.
			args["selected"] = e.A
		}
		t.instant(fmt.Sprintf("retire %s pc=%#x", e.Class, e.PC), e.Cycle, pidCommit, 0, args)
	default:
		t.instant(e.Kind.String(), e.Cycle, pidCommit, 1,
			map[string]uint64{"seq": e.Seq, "pc": e.PC, "a": e.A, "b": e.B})
	}
}

// instant appends a thread-scoped instant event. Called with mu held.
func (t *ChromeTracer) instant(name string, ts uint64, pid, tid int, args map[string]uint64) {
	t.events = append(t.events, chromeEvent{
		Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t", Args: args,
	})
}

// WriteTo serializes the trace as a single JSON object. The tracer remains
// usable afterwards (events are not consumed).
func (t *ChromeTracer) WriteTo(w io.Writer) (int64, error) {
	t.mu.Lock()
	evs := make([]chromeEvent, len(t.events))
	copy(evs, t.events)
	t.mu.Unlock()

	// Metadata records need string args, which the compact chromeEvent
	// cannot hold.
	records := make([]any, 0, 4+len(evs))
	for _, m := range []struct {
		pid  int
		name string
	}{
		{pidLanes, "pipeline lanes (issue occupancy)"},
		{pidViolations, "timing violations (rows = pipe stage)"},
		{pidCounters, "occupancy counters"},
		{pidCommit, "commit"},
	} {
		records = append(records, map[string]any{
			"name": "process_name", "ph": "M", "pid": m.pid, "tid": 0,
			"args": map[string]string{"name": m.name},
		})
	}
	for i := range evs {
		records = append(records, &evs[i])
	}
	return WriteTraceEvents(w, records)
}

// WriteTraceEvents writes records, each marshalled with encoding/json, as a
// Chrome trace-event document ({"displayTimeUnit":"ms","traceEvents":[…]})
// loadable in chrome://tracing and ui.perfetto.dev. Both the cycle-level
// ChromeTracer and the request-span exporter (internal/obs/span) write
// through it.
func WriteTraceEvents(w io.Writer, records []any) (int64, error) {
	cw := &countingWriter{w: w}
	// bw keeps the first write error and returns it from every later write
	// and from Flush, so only Flush needs checking.
	bw := bufio.NewWriter(cw)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, r := range records {
		if i > 0 {
			bw.WriteByte(',')
		}
		b, err := json.Marshal(r)
		if err != nil {
			return cw.n, err
		}
		bw.Write(b)
	}
	bw.WriteString("]}\n")
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
