// Package span is a lightweight, allocation-conscious request tracer for the
// serving path (DESIGN.md §14). It is deliberately much smaller than an
// OpenTelemetry SDK: a span is a named wall-clock interval with a parent link
// and a handful of string attributes, and the tracer keeps finished spans in
// a fixed ring buffer — a flight recorder, not an export pipeline. Recent
// request timelines can be pulled back out by trace ID and rendered as
// Chrome/Perfetto trace-event JSON (the same format the PR 1 cycle-level
// exporter speaks), and every span's duration feeds a per-name log2 histogram
// that obs.Exposition renders into /metrics.
//
// Identity follows the W3C Trace Context model: 16-byte trace IDs and 8-byte
// span IDs, carried on HTTP in the `traceparent` header (traceparent.go), so
// a caller that already participates in a distributed trace sees tvservd's
// spans parented under its own.
//
// Concurrency: a Tracer is safe for concurrent use; an ActiveSpan is owned by
// one goroutine at a time and must not be touched after End. Active spans are
// pooled and the ring is preallocated, so steady-state tracing allocates only
// attribute strings.
package span

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"tvsched/internal/obs"
)

// maxAttrs bounds the attributes one span can carry; SetAttr beyond the
// bound drops the attribute (observability must degrade, never fail).
const maxAttrs = 8

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one finished named interval. Value type: the tracer's ring holds
// spans inline, and Trace() hands out copies.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a local root with no remote parent
	Name   string
	Start  time.Time
	Dur    time.Duration
	attrs  [maxAttrs]Attr
	nattrs int
}

// Attrs returns the span's attributes (a view; do not retain across tracer
// operations).
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Attr returns the value of the named attribute, or "".
func (s *Span) Attr(key string) string {
	for i := 0; i < s.nattrs; i++ {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value
		}
	}
	return ""
}

// Tracer is the flight recorder: it mints IDs, pools active spans, keeps the
// last Capacity finished spans in a ring, and aggregates per-name duration
// histograms (microseconds). The zero value is not usable; build with
// NewTracer. A nil *Tracer is safe: StartRoot returns a nil *ActiveSpan,
// whose methods all no-op — tracing off costs two nil checks.
type Tracer struct {
	mu    sync.Mutex
	ring  []Span // preallocated to capacity
	next  int    // ring write cursor
	n     int    // filled entries (≤ cap)
	total uint64 // spans ever recorded
	rng   *rand.Rand
	hists map[string]*obs.Hist
	pool  sync.Pool
	clock func() time.Time
}

// NewTracer builds a flight recorder retaining the last capacity finished
// spans (default 4096 when capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	t := &Tracer{
		ring:  make([]Span, 0, capacity),
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
		hists: make(map[string]*obs.Hist),
		clock: time.Now,
	}
	t.pool.New = func() any { return new(ActiveSpan) }
	return t
}

// newIDs mints a fresh trace/span ID pair (trace zeroed when tid is false).
func (t *Tracer) newIDs(tid bool) (TraceID, SpanID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var tr TraceID
	var sp SpanID
	if tid {
		for tr.IsZero() {
			t.rng.Read(tr[:])
		}
	}
	for sp.IsZero() {
		t.rng.Read(sp[:])
	}
	return tr, sp
}

// ActiveSpan is a span being measured. Obtain one from StartRoot or Child,
// annotate with SetAttr, finish with End — after which the ActiveSpan must
// not be used (it returns to the tracer's pool). All methods are safe on a
// nil receiver.
type ActiveSpan struct {
	t    *Tracer
	span Span
}

// StartRoot opens a request root span. A non-zero parent context (extracted
// from an incoming traceparent header) continues the remote trace: the root
// adopts its trace ID and is parented under the remote span. A zero context
// mints a fresh trace ID.
func (t *Tracer) StartRoot(name string, parent Context) *ActiveSpan {
	if t == nil {
		return nil
	}
	s := t.pool.Get().(*ActiveSpan)
	s.t = t
	s.span = Span{Name: name, Start: t.clock()}
	if parent.Trace.IsZero() {
		s.span.Trace, s.span.ID = t.newIDs(true)
	} else {
		s.span.Trace = parent.Trace
		s.span.Parent = parent.Span
		_, s.span.ID = t.newIDs(false)
	}
	return s
}

// Child opens a span parented under s, on the same trace.
func (s *ActiveSpan) Child(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	c := s.t.pool.Get().(*ActiveSpan)
	c.t = s.t
	c.span = Span{Trace: s.span.Trace, Parent: s.span.ID, Name: name, Start: s.t.clock()}
	_, c.span.ID = s.t.newIDs(false)
	return c
}

// SetAttr annotates the span. Attributes beyond the per-span bound are
// dropped; setting an existing key overwrites it.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	for i := 0; i < s.span.nattrs; i++ {
		if s.span.attrs[i].Key == key {
			s.span.attrs[i].Value = value
			return
		}
	}
	if s.span.nattrs < maxAttrs {
		s.span.attrs[s.span.nattrs] = Attr{Key: key, Value: value}
		s.span.nattrs++
	}
}

// RecordChild records an already-measured child interval ending now — the
// shape phase-timing callbacks produce (the phase ran, took d, and is over).
func (s *ActiveSpan) RecordChild(name string, d time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	end := s.t.clock()
	sp := Span{
		Trace: s.span.Trace, Parent: s.span.ID,
		Name: name, Start: end.Add(-d), Dur: d,
	}
	_, sp.ID = s.t.newIDs(false)
	for _, a := range attrs {
		if sp.nattrs < maxAttrs {
			sp.attrs[sp.nattrs] = a
			sp.nattrs++
		}
	}
	s.t.record(&sp)
}

// Context returns the span's trace context, injectable into outgoing
// headers. Zero on a nil span.
func (s *ActiveSpan) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.span.Trace, Span: s.span.ID, Flags: 0x01}
}

// TraceID returns the span's trace ID (zero on nil).
func (s *ActiveSpan) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.span.Trace
}

// End finishes the span, records it into the ring and its name's duration
// histogram, and recycles the ActiveSpan.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.span.Dur = s.t.clock().Sub(s.span.Start)
	s.t.record(&s.span)
	t := s.t
	*s = ActiveSpan{}
	t.pool.Put(s)
}

// record appends one finished span to the ring (evicting the oldest at
// capacity) and feeds its duration histogram.
func (t *Tracer) record(sp *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, *sp)
	} else {
		t.ring[t.next] = *sp
	}
	t.next = (t.next + 1) % cap(t.ring)
	if t.n < cap(t.ring) {
		t.n++
	}
	t.total++
	h := t.hists[sp.Name]
	if h == nil {
		h = &obs.Hist{}
		t.hists[sp.Name] = h
	}
	h.Observe(uint64(sp.Dur / time.Microsecond))
}

// Trace returns copies of the retained spans belonging to the given trace,
// oldest first. Empty when the trace never existed or has been evicted.
func (t *Tracer) Trace(id TraceID) []Span {
	if t == nil || id.IsZero() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	// Ring order: oldest entry is at next when full, index 0 otherwise.
	start := 0
	if t.n == cap(t.ring) {
		start = t.next
	}
	for i := 0; i < t.n; i++ {
		sp := &t.ring[(start+i)%cap(t.ring)]
		if sp.Trace == id {
			out = append(out, *sp)
		}
	}
	return out
}

// Stats reports the recorder's occupancy: spans retained now, ring capacity,
// and spans evicted since construction.
func (t *Tracer) Stats() (retained, capacity int, evicted uint64) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n, cap(t.ring), t.total - uint64(t.n)
}

// Families implements obs.Source: the per-name span-duration histograms
// (microseconds) as one family labelled by span name, sorted by name. A nil
// tracer lists none.
func (t *Tracer) Families() []obs.Family {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.hists))
	for name := range t.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	members := make([]obs.Member, len(names))
	for i, name := range names {
		h := *t.hists[name]
		members[i] = obs.Member{Labels: fmt.Sprintf("span=%q", name), Hist: &h}
	}
	return []obs.Family{{Name: "span_duration_us", Type: "histogram", Members: members,
		Help: "Request-scoped span durations in microseconds by span name."}}
}
