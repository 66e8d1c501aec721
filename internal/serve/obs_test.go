package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tvsched"
	"tvsched/internal/campaign"
	"tvsched/internal/resolve"
)

// slowRunner fakes a simulation taking d of wall time, so heartbeat and
// latency behaviour is observable without a real pipeline.
func slowRunner(d time.Duration) Runner {
	return func(ctx context.Context, cfg tvsched.Config, checkpoint bool) (tvsched.Result, resolve.Source, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return tvsched.Result{}, resolve.Cold, ctx.Err()
		}
		st := tvsched.PipeStats{Committed: cfg.Instructions, Cycles: cfg.Instructions*2 + cfg.Seed}
		return tvsched.Result{IPC: st.IPC(), Stats: st}, resolve.Cold, nil
	}
}

// TestTraceEndpoint drives one request through the server and pulls its
// timeline back out of the flight recorder: the X-Request-Id on the response
// must resolve through GET /v1/trace/{id} to a well-formed Chrome trace
// holding the request's spans.
func TestTraceEndpoint(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1, Runner: stubRunner(&runs, nil)})
	resp, _ := postRun(t, ts.URL, RunRequest{Benchmark: "bzip2", Instructions: 1000, Seed: 5})
	reqID := resp.Header.Get("X-Request-Id")
	if len(reqID) != 32 {
		t.Fatalf("X-Request-Id %q, want 32 hex chars", reqID)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, reqID) {
		t.Fatalf("response traceparent %q does not carry the request trace %q", tp, reqID)
	}

	tr, err := http.Get(ts.URL + "/v1/trace/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", tr.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(tr.Body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, body.Bytes())
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Args["trace_id"] != reqID {
			t.Fatalf("event %q on trace %q, want %q", ev.Name, ev.Args["trace_id"], reqID)
		}
	}
	for _, want := range []string{"run", "admission", "queue_wait", "simulate", "encode"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %v)", want, names)
		}
	}

	// The degrade surface: malformed ID → 400, unknown ID → 404.
	for _, c := range []struct {
		id   string
		want int
	}{
		{"nothex", http.StatusBadRequest},
		{strings.Repeat("a", 32), http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + "/v1/trace/" + c.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("trace %q: status %d, want %d", c.id, resp.StatusCode, c.want)
		}
	}
}

// TestSweepHeartbeats opts a sweep into progress records and checks the
// live-campaign contract: at least one mid-stream heartbeat at the configured
// cadence, done monotone non-decreasing with total pinned, non-negative ETA,
// and a final heartbeat that closes the accounting at done == total.
func TestSweepHeartbeats(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:           2,
		HeartbeatInterval: 15 * time.Millisecond,
		Runner:            slowRunner(60 * time.Millisecond),
	})
	sweep := SweepRequest{
		Benchmarks:   []string{"bzip2", "sjeng"},
		Seeds:        []uint64{1, 2},
		Instructions: 1000,
		Progress:     true,
	}
	body := postSweep(t, ts.URL, sweep)

	var beats []campaign.ProgressLine
	var cellIdx []int
	sc := bufio.NewScanner(bytes.NewReader(body))
	lastLineWasBeat := false
	for sc.Scan() {
		var probe struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Schema == ProgressSchema {
			var b campaign.ProgressLine
			if err := json.Unmarshal(sc.Bytes(), &b); err != nil {
				t.Fatal(err)
			}
			beats = append(beats, b)
			lastLineWasBeat = true
			continue
		}
		lastLineWasBeat = false
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		cellIdx = append(cellIdx, l.Index)
	}

	// Four 60ms cells on two workers is ≥120ms of stream against a 15ms
	// cadence; at minimum the final heartbeat plus one mid-stream tick.
	if len(beats) < 2 {
		t.Fatalf("%d heartbeats, want at least 2 (one mid-stream + final)", len(beats))
	}
	for i, b := range beats {
		if b.Total != 4 {
			t.Fatalf("heartbeat %d total %d, want constant 4", i, b.Total)
		}
		if i > 0 && b.Done < beats[i-1].Done {
			t.Fatalf("done went backwards: %d then %d", beats[i-1].Done, b.Done)
		}
		if b.EtaSec < 0 || b.CellEwmaSec < 0 || b.ElapsedSec < 0 {
			t.Fatalf("negative timing in heartbeat %d: %+v", i, b)
		}
		if i > 0 && b.ElapsedSec < beats[i-1].ElapsedSec {
			t.Fatalf("elapsed went backwards: %v then %v", beats[i-1].ElapsedSec, b.ElapsedSec)
		}
	}
	last := beats[len(beats)-1]
	if !lastLineWasBeat || last.Done != last.Total || last.EtaSec != 0 {
		t.Fatalf("stream must close with a done==total, eta=0 heartbeat; got %+v (last line a heartbeat: %v)", last, lastLineWasBeat)
	}
	// The cell lines themselves still stream complete and in pinned order.
	if len(cellIdx) != 4 {
		t.Fatalf("%d cell lines, want 4", len(cellIdx))
	}
	for i, idx := range cellIdx {
		if idx != i {
			t.Fatalf("cell order broken: line %d has index %d", i, idx)
		}
	}
}

// TestSweepNoProgressByDefault pins the determinism side of the bargain: a
// sweep that does not opt in gets a stream with no heartbeat records at all,
// even with a tick-happy server.
func TestSweepNoProgressByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:           2,
		HeartbeatInterval: time.Millisecond,
		Runner:            slowRunner(20 * time.Millisecond),
	})
	body := postSweep(t, ts.URL, SweepRequest{
		Benchmarks:   []string{"bzip2", "sjeng"},
		Instructions: 1000,
	})
	sc := bufio.NewScanner(bytes.NewReader(body))
	n := 0
	for sc.Scan() {
		if strings.Contains(sc.Text(), ProgressSchema) {
			t.Fatalf("progress-off stream carries a heartbeat: %s", sc.Text())
		}
		n++
	}
	if n != 2 {
		t.Fatalf("%d lines, want exactly 2 cells", n)
	}
}

// countingLogHandler collects slog records by level so tests can assert the
// one-line-per-error contract.
type countingLogHandler struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *countingLogHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *countingLogHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r.Clone())
	return nil
}
func (h *countingLogHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *countingLogHandler) WithGroup(string) slog.Handler      { return h }

func (h *countingLogHandler) errors() []slog.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []slog.Record
	for _, r := range h.records {
		if r.Level >= slog.LevelWarn {
			out = append(out, r)
		}
	}
	return out
}

// TestErrorPathsLogExactlyOnce audits the serving error surface: every
// 4xx/5xx response emits exactly one structured record, and that record
// carries a request ID, a status and a cause.
func TestErrorPathsLogExactlyOnce(t *testing.T) {
	h := &countingLogHandler{}
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 1, MaxInstructions: 10000,
		Runner: stubRunner(&runs, nil),
		Logger: slog.New(h),
	})

	wantErrs := 0
	// 400s: schema, decode, policy.
	for _, body := range []string{
		`{"schema":"tvsched/run-request/v999"}`,
		`{"benchmak":"bzip2"}`,
		`{"benchmark":"bzip2","instructions":20000}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		wantErrs++
	}
	// 405 on every route; 404 and 400 on the trace endpoint.
	for _, probe := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/run", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/sweep", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/trace/" + strings.Repeat("a", 32), http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/trace/" + strings.Repeat("a", 32), http.StatusNotFound},
		{http.MethodGet, "/v1/trace/zzz", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Fatalf("%s %s: status %d, want %d", probe.method, probe.path, resp.StatusCode, probe.want)
		}
		wantErrs++
	}

	errs := h.errors()
	if len(errs) != wantErrs {
		t.Fatalf("%d warn/error records for %d error responses, want exactly one each", len(errs), wantErrs)
	}
	for _, r := range errs {
		got := map[string]bool{}
		r.Attrs(func(a slog.Attr) bool {
			got[a.Key] = true
			return true
		})
		for _, key := range []string{"request_id", "digest", "status", "cause"} {
			if !got[key] {
				t.Fatalf("error record %q missing %q attr", r.Message, key)
			}
		}
	}

	// And the happy path logs too (at info), with the digest correlated.
	before := len(h.errors())
	resp, _ := postRun(t, ts.URL, RunRequest{Benchmark: "bzip2", Instructions: 1000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	if after := len(h.errors()); after != before {
		t.Fatalf("a 200 response emitted a warn/error record")
	}
	h.mu.Lock()
	var served *slog.Record
	for i := range h.records {
		if h.records[i].Message == "run served" {
			served = &h.records[i]
		}
	}
	h.mu.Unlock()
	if served == nil {
		t.Fatal("no 'run served' info record for a 200 response")
	}
	var reqID, digest string
	served.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "request_id":
			reqID = a.Value.String()
		case "digest":
			digest = a.Value.String()
		}
		return true
	})
	if len(reqID) != 32 || digest == "" {
		t.Fatalf("served record correlation broken: request_id=%q digest=%q", reqID, digest)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Fatalf("logged request_id %q != response header %q", reqID, got)
	}
	if got := resp.Header.Get("X-Tvsched-Digest"); got != digest {
		t.Fatalf("logged digest %q != response header %q", digest, got)
	}
}

// TestServedCountersIgnoreCheckpointing serves the same four-cell sweep on
// two fresh servers, one with warm-state checkpointing off and one with it
// on. The checkpoint is a pure optimization of how a cell is computed, so
// every counter series on /metrics must read the same on both.
func TestServedCountersIgnoreCheckpointing(t *testing.T) {
	totals := func(checkpoint bool) string {
		_, ts := newTestServer(t, Config{Workers: 1})
		postSweep(t, ts.URL, SweepRequest{
			Benchmarks:   []string{"bzip2"},
			Schemes:      []string{"ABS", "FFS"},
			VDDs:         []float64{0.97, 1.04},
			Seeds:        []uint64{1},
			Instructions: 4000,
			Warmup:       20000,
			Checkpoint:   &checkpoint,
		})
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			name, _, _ := strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
			if strings.HasSuffix(name, "_total") {
				out.WriteString(line + "\n")
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	cold, warm := totals(false), totals(true)
	if cold == "" {
		t.Fatal("no counter series on /metrics")
	}
	if cold != warm {
		t.Fatalf("counters depend on checkpointing\ncold:\n%s\ncheckpointed:\n%s", cold, warm)
	}
}
