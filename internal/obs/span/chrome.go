package span

import (
	"context"
	"io"
	"time"

	"tvsched/internal/obs"
)

// ctxKey carries an *ActiveSpan through a context.Context, so layers that
// only see a ctx (the Runner seam, phase hooks) can attach child spans
// without a signature change.
type ctxKey struct{}

// NewContext returns ctx carrying s.
func NewContext(ctx context.Context, s *ActiveSpan) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil — and nil is fully
// usable (every ActiveSpan method no-ops on nil).
func FromContext(ctx context.Context) *ActiveSpan {
	s, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return s
}

// chromeSpanEvent is one "X" (complete) trace-event record; Ts/Dur are
// microseconds. Same dialect as the cycle-level exporter in internal/obs,
// with string args for the span attributes.
type chromeSpanEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders the spans (one request's timeline, as returned by
// Tracer.Trace) as Chrome trace-event JSON loadable in chrome://tracing and
// ui.perfetto.dev. Timestamps are microseconds relative to the earliest span
// start, so the trace opens at t=0. All spans share one pid/tid: the viewers
// nest overlapping "X" slices by time containment, which renders the
// parent/child structure as a flame graph without explicit stack tracking.
// Parent/child identity additionally travels in the args (span/parent IDs).
func WriteChromeTrace(w io.Writer, spans []Span) (int64, error) {
	var epoch time.Time
	for i := range spans {
		if i == 0 || spans[i].Start.Before(epoch) {
			epoch = spans[i].Start
		}
	}
	records := make([]any, len(spans))
	for i := range spans {
		sp := &spans[i]
		args := map[string]string{
			"trace_id": sp.Trace.String(),
			"span_id":  sp.ID.String(),
		}
		if !sp.Parent.IsZero() {
			args["parent_id"] = sp.Parent.String()
		}
		for _, a := range sp.Attrs() {
			args[a.Key] = a.Value
		}
		dur := sp.Dur.Microseconds()
		if dur < 1 {
			dur = 1 // zero-width slices are invisible in the viewers
		}
		records[i] = &chromeSpanEvent{
			Name: sp.Name, Ph: "X",
			Ts:  sp.Start.Sub(epoch).Microseconds(),
			Dur: dur, Pid: 1, Tid: 1, Args: args,
		}
	}
	return obs.WriteTraceEvents(w, records)
}
