package span

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceparentRoundTrip pins the W3C propagation loop end to end: a
// context injected into headers, extracted from the request, and adopted by
// StartRoot yields a root span on the remote trace parented under the remote
// span — and its own children chain correctly below it.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(64)

	// The "remote caller": a fresh root whose context goes onto the wire.
	remote := tr.StartRoot("caller", Context{})
	remoteCtx := remote.Context()
	h := http.Header{}
	remoteCtx.Inject(h)
	hv := h.Get("traceparent")
	if hv == "" {
		t.Fatal("Inject wrote no traceparent header")
	}
	want := fmt.Sprintf("00-%s-%s-01", remoteCtx.Trace.String(), remoteCtx.Span.String())
	if hv != want {
		t.Fatalf("traceparent %q, want %q", hv, want)
	}

	// The "server": extract from an incoming request, continue the trace.
	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
	req.Header.Set("traceparent", hv)
	got := Extract(req)
	if got != remoteCtx {
		t.Fatalf("Extract round-trip: got %+v, want %+v", got, remoteCtx)
	}
	root := tr.StartRoot("run", got)
	if root.TraceID() != remoteCtx.Trace {
		t.Fatalf("root did not adopt the remote trace: %s vs %s", root.TraceID(), remoteCtx.Trace)
	}
	rootID := root.Context().Span
	child := root.Child("simulate")
	childID := child.Context().Span
	child.End()
	root.End()
	remote.End()

	spans := tr.Trace(remoteCtx.Trace)
	if len(spans) != 3 {
		t.Fatalf("trace holds %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if sp := byName["run"]; sp.Parent != remoteCtx.Span || sp.ID != rootID {
		t.Fatalf("server root parented under %s, want remote span %s", sp.Parent, remoteCtx.Span)
	}
	if sp := byName["simulate"]; sp.Parent != rootID || sp.ID != childID {
		t.Fatalf("child parented under %s, want server root %s", sp.Parent, rootID)
	}
}

// TestParseTraceparentRejects pins the malformed-header surface: every bad
// value degrades to "no context" rather than an error.
func TestParseTraceparentRejects(t *testing.T) {
	for _, v := range []string{
		"",
		"garbage",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01", // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",  // short span
	} {
		if c, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", v, c)
		}
	}
	good := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	c, ok := ParseTraceparent(good)
	if !ok || c.Trace.String() != "0af7651916cd43dd8448eb211c80319c" ||
		c.Span.String() != "b7ad6b7169203331" || c.Flags != 0x01 {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v", good, c, ok)
	}
	if c.Traceparent() != good {
		t.Fatalf("re-render %q, want %q", c.Traceparent(), good)
	}
}

// TestParseTraceID pins the request-ID form /v1/trace accepts.
func TestParseTraceID(t *testing.T) {
	id, ok := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if !ok || id.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("valid trace ID rejected: %v %v", id, ok)
	}
	for _, s := range []string{"", "0af7", strings.Repeat("0", 32), strings.Repeat("z", 32)} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted", s)
		}
	}
}

// TestRingEviction fills a small flight recorder far past capacity — from
// many goroutines, so -race audits the ring locking — and checks the bound
// holds, eviction counts add up, and old traces age out cleanly.
func TestRingEviction(t *testing.T) {
	const capacity, workers, perWorker = 8, 4, 50
	tr := NewTracer(capacity)

	first := tr.StartRoot("early", Context{})
	firstTrace := first.TraceID()
	first.End()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.StartRoot("work", Context{})
				sp.SetAttr("i", "x")
				sp.RecordChild("phase", time.Microsecond)
				sp.End()
			}
		}()
	}
	wg.Wait()

	retained, capGot, evicted := tr.Stats()
	if capGot != capacity || retained != capacity {
		t.Fatalf("retained %d of cap %d, want full ring of %d", retained, capGot, capacity)
	}
	const total = 1 + workers*perWorker*2 // root + (work+phase) each
	if evicted != total-capacity {
		t.Fatalf("evicted %d, want %d", evicted, total-capacity)
	}
	if got := tr.Trace(firstTrace); len(got) != 0 {
		t.Fatalf("evicted trace still retrievable: %d spans", len(got))
	}

	// The duration histograms aggregate everything ever recorded, not just
	// what the ring still holds.
	var workCount uint64
	for _, m := range tr.Families()[0].Members {
		if m.Labels == `span="work"` {
			workCount = m.Hist.Count
		}
	}
	if workCount != workers*perWorker {
		t.Fatalf("work histogram count %d, want %d", workCount, workers*perWorker)
	}
}

// TestTraceOldestFirst pins the retrieval order contract WriteChromeTrace
// leans on.
func TestTraceOldestFirst(t *testing.T) {
	tr := NewTracer(16)
	root := tr.StartRoot("a", Context{})
	id := root.TraceID()
	root.RecordChild("b", time.Millisecond)
	root.RecordChild("c", time.Millisecond)
	root.End()
	spans := tr.Trace(id)
	if len(spans) != 3 || spans[0].Name != "b" || spans[1].Name != "c" || spans[2].Name != "a" {
		names := make([]string, len(spans))
		for i, sp := range spans {
			names[i] = sp.Name
		}
		t.Fatalf("trace order %v, want [b c a] (record order)", names)
	}
}

// TestAttrBounds pins the degrade-don't-fail attribute contract.
func TestAttrBounds(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.StartRoot("r", Context{})
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetAttr(fmt.Sprintf("k%d", i), "v")
	}
	sp.SetAttr("k0", "v2") // overwrite must not consume a slot
	id := sp.TraceID()
	sp.End()
	got := tr.Trace(id)[0]
	if len(got.Attrs()) != maxAttrs {
		t.Fatalf("%d attrs retained, want bound %d", len(got.Attrs()), maxAttrs)
	}
	if got.Attr("k0") != "v2" {
		t.Fatalf("overwrite lost: k0=%q", got.Attr("k0"))
	}
	if got.Attr(fmt.Sprintf("k%d", maxAttrs)) != "" {
		t.Fatal("attr beyond the bound was retained")
	}
}

// TestNilSafety pins the tracing-off contract: a nil tracer and nil spans
// no-op through the whole surface.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x", Context{})
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.SetAttr("k", "v")
	sp.RecordChild("c", time.Second)
	c := sp.Child("y")
	c.End()
	sp.End()
	if got := sp.Context(); !got.Trace.IsZero() {
		t.Fatal("nil span has a context")
	}
	if got := tr.Trace(TraceID{1}); got != nil {
		t.Fatal("nil tracer returned spans")
	}
	if r, c, e := tr.Stats(); r != 0 || c != 0 || e != 0 {
		t.Fatal("nil tracer has stats")
	}
	if tr.Families() != nil {
		t.Fatal("nil tracer has histograms")
	}
}

// TestWriteChromeTrace checks the exported document is valid trace-event
// JSON: X slices, microsecond timestamps opening at 0, IDs and attrs in args.
func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	root := tr.StartRoot("run", Context{})
	root.SetAttr("digest", "abc123")
	id := root.TraceID()
	root.RecordChild("simulate", 2*time.Millisecond)
	root.End()

	var b strings.Builder
	if _, err := WriteChromeTrace(&b, tr.Trace(id)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	sawZeroTs := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 1 {
			t.Fatalf("bad slice %+v", ev)
		}
		if ev.Ts == 0 {
			sawZeroTs = true
		}
		if ev.Args["trace_id"] != id.String() || ev.Args["span_id"] == "" {
			t.Fatalf("slice missing identity args: %+v", ev)
		}
		if ev.Name == "run" && ev.Args["digest"] != "abc123" {
			t.Fatalf("attr lost in export: %+v", ev)
		}
		if ev.Name == "simulate" && ev.Args["parent_id"] == "" {
			t.Fatalf("child slice missing parent_id: %+v", ev)
		}
	}
	if !sawZeroTs {
		t.Fatal("no slice opens at ts=0; timestamps must be epoch-relative")
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestWriteChromeTraceGolden pins the exact exported bytes for fixed spans:
// fixed IDs, start times and attributes, an unparented root, children
// starting before the root's recorded start (the epoch is the earliest
// start), and a sub-microsecond span clamped to the 1 µs minimum width.
func TestWriteChromeTraceGolden(t *testing.T) {
	trace := TraceID{0x0a, 0xf7, 0x65, 0x19, 0x16, 0xcd, 0x43, 0xdd, 0x84, 0x48, 0xeb, 0x21, 0x1c, 0x80, 0x31, 0x9c}
	root := SpanID{0xb7, 0xad, 0x6b, 0x71, 0x69, 0x20, 0x33, 0x31}
	t0 := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	withAttrs := func(sp Span, kv ...string) Span {
		for i := 0; i+1 < len(kv); i += 2 {
			sp.attrs[sp.nattrs] = Attr{Key: kv[i], Value: kv[i+1]}
			sp.nattrs++
		}
		return sp
	}
	spans := []Span{
		withAttrs(Span{Trace: trace, ID: SpanID{1}, Parent: root, Name: "admission",
			Start: t0.Add(-250 * time.Microsecond), Dur: 40 * time.Microsecond}, "queue", "0"),
		withAttrs(Span{Trace: trace, ID: SpanID{2}, Parent: root, Name: "simulate",
			Start: t0.Add(100 * time.Microsecond), Dur: 3200 * time.Microsecond},
			"warm_key", "bzip2/1/20000", "source", "restored"),
		{Trace: trace, ID: SpanID{3}, Parent: SpanID{2}, Name: "snapshot_restore",
			Start: t0.Add(120 * time.Microsecond), Dur: 300 * time.Nanosecond},
		withAttrs(Span{Trace: trace, ID: root, Name: "run",
			Start: t0, Dur: 3500 * time.Microsecond}, "digest", "abc123", "cache", "miss"),
	}
	var buf bytes.Buffer
	if _, err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "spantrace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update-golden to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("span trace drifted from golden file (rerun with -update-golden if intended)\ngot:  %s\nwant: %s",
			buf.Bytes(), want)
	}
}
