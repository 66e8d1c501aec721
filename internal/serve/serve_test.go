package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tvsched"
	"tvsched/internal/obs"
	"tvsched/internal/resolve"
)

// stubRunner returns a deterministic fake result derived from the config,
// counting invocations. When gate is non-nil every run blocks on it first,
// so tests can hold simulations in flight.
func stubRunner(runs *atomic.Int64, gate chan struct{}) Runner {
	return func(ctx context.Context, cfg tvsched.Config, checkpoint bool) (tvsched.Result, resolve.Source, error) {
		runs.Add(1)
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return tvsched.Result{}, resolve.Cold, ctx.Err()
			}
		}
		st := tvsched.PipeStats{Committed: cfg.Instructions, Cycles: cfg.Instructions*2 + cfg.Seed}
		return tvsched.Result{IPC: st.IPC(), Stats: st}, resolve.Cold, nil
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func postRun(t *testing.T, url string, req RunRequest) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, body.Bytes()
}

// TestSingleflightCollapses hammers one digest from many goroutines while
// the simulation is held in flight, and asserts exactly one underlying run
// happened: the rest collapsed onto it and every response is byte-identical.
// Run under -race this also audits the cache/flight locking.
func TestSingleflightCollapses(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4, Runner: stubRunner(&runs, gate)})

	const N = 32
	req := RunRequest{Schema: RunRequestSchema, Benchmark: "sjeng", Scheme: "ABS", VDD: 0.97, Instructions: 20000, Seed: 9}
	bodies := make([][]byte, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postRun(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}
	// Hold the gate until the leader is computing, then let everything
	// through; followers either share the flight or hit the cache.
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("%d underlying simulations for %d identical requests, want exactly 1", n, N)
	}
	for i := 1; i < N; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	snap := s.Metrics().Snapshot()
	got := snap.Outcomes[obs.ServeHit] + snap.Outcomes[obs.ServeShared] + snap.Outcomes[obs.ServeMiss]
	if got != N || snap.Outcomes[obs.ServeMiss] != 1 {
		t.Fatalf("outcomes hit=%d shared=%d miss=%d, want total %d with exactly 1 miss",
			snap.Outcomes[obs.ServeHit], snap.Outcomes[obs.ServeShared], snap.Outcomes[obs.ServeMiss], N)
	}
}

// TestQueueFullRejects fills the worker pool and the admission queue, then
// asserts the next distinct request is shed with 429 and a Retry-After
// header instead of queueing unboundedly.
func TestQueueFullRejects(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: stubRunner(&runs, gate)})

	type res struct {
		resp *http.Response
		body []byte
	}
	results := make(chan res, 2)
	for seed := uint64(1); seed <= 2; seed++ {
		go func(seed uint64) {
			resp, body := postRun(t, ts.URL, RunRequest{Benchmark: "bzip2", Instructions: 1000, Seed: seed})
			results <- res{resp, body}
		}(seed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		full := s.pending >= 2
		s.mu.Unlock()
		if full || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postRun(t, ts.URL, RunRequest{Benchmark: "bzip2", Instructions: 1000, Seed: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with full queue, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if snap := s.Metrics().Snapshot(); snap.Outcomes[obs.ServeRejected] != 1 {
		t.Fatalf("rejected counter %d, want 1", snap.Outcomes[obs.ServeRejected])
	}

	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.resp.StatusCode != http.StatusOK {
			t.Fatalf("queued request finished with %d: %s", r.resp.StatusCode, r.body)
		}
	}
}

// TestCacheHitByteIdentical posts the same request twice and asserts the
// second response comes from the cache, byte-for-byte equal to the first,
// without a second simulation.
func TestCacheHitByteIdentical(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 2, Runner: stubRunner(&runs, nil)})
	req := RunRequest{Benchmark: "mcf", Scheme: "CDS", VDD: 1.04, Instructions: 5000, Seed: 4}

	r1, b1 := postRun(t, ts.URL, req)
	r2, b2 := postRun(t, ts.URL, req)
	for i, r := range []*http.Response{r1, r2} {
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.StatusCode)
		}
	}
	if got := r1.Header.Get("X-Tvsched-Cache"); got != "miss" {
		t.Errorf("first response cache header %q, want miss", got)
	}
	if got := r2.Header.Get("X-Tvsched-Cache"); got != "hit" {
		t.Errorf("second response cache header %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	if runs.Load() != 1 {
		t.Fatalf("%d simulations for 2 identical requests", runs.Load())
	}
	if r1.Header.Get("X-Tvsched-Digest") != r2.Header.Get("X-Tvsched-Digest") {
		t.Error("digest header differs between miss and hit")
	}
	var rep obs.RunReport
	if err := json.Unmarshal(b1, &rep); err != nil || rep.Schema != obs.RunReportSchema {
		t.Fatalf("response is not a run report (err=%v): %s", err, b1)
	}
}

// TestSweepNDJSON streams a small sweep and checks cell order, report
// payloads, and that duplicate cells dedupe onto one simulation.
func TestSweepNDJSON(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 2, Runner: stubRunner(&runs, nil)})

	sweep := SweepRequest{
		Schema:       SweepRequestSchema,
		Benchmarks:   []string{"bzip2", "sjeng"},
		Schemes:      []string{"ABS"},
		Seeds:        []uint64{7, 7}, // duplicate on purpose: must dedupe
		Instructions: 2000,
	}
	blob, _ := json.Marshal(sweep)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var lines []sweepLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4", len(lines))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Errorf("line %d carries index %d: sweep must stream in cell order", i, l.Index)
		}
		if l.Error != "" || len(l.Report) == 0 {
			t.Errorf("cell %d failed: %q", i, l.Error)
		}
	}
	// Two distinct digests (bzip2/7, sjeng/7), each simulated once.
	if runs.Load() != 2 {
		t.Fatalf("%d simulations for 4 cells with 2 distinct digests", runs.Load())
	}
	if lines[0].Digest != lines[1].Digest || lines[2].Digest != lines[3].Digest {
		t.Error("duplicate cells did not share a digest")
	}
}

// TestSweepCellOrderGolden pins the sweep ordering contract: the cross
// product iterates benchmarks × schemes × VDDs × seeds, each axis in request
// order, seeds varying fastest — and that order is the NDJSON line order.
func TestSweepCellOrderGolden(t *testing.T) {
	req := SweepRequest{
		Benchmarks: []string{"sjeng", "bzip2"}, // deliberately not sorted
		Schemes:    []string{"CDS", "EP"},
		VDDs:       []float64{0.97, 1.04},
		Seeds:      []uint64{2, 1},
	}
	plan, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sjeng/CDS/0.97/2", "sjeng/CDS/0.97/1",
		"sjeng/CDS/1.04/2", "sjeng/CDS/1.04/1",
		"sjeng/EP/0.97/2", "sjeng/EP/0.97/1",
		"sjeng/EP/1.04/2", "sjeng/EP/1.04/1",
		"bzip2/CDS/0.97/2", "bzip2/CDS/0.97/1",
		"bzip2/CDS/1.04/2", "bzip2/CDS/1.04/1",
		"bzip2/EP/0.97/2", "bzip2/EP/0.97/1",
		"bzip2/EP/1.04/2", "bzip2/EP/1.04/1",
	}
	if plan.Total() != len(want) {
		t.Fatalf("%d cells, want %d", plan.Total(), len(want))
	}
	for i := range want {
		c := plan.Cell(i).Config
		got := fmt.Sprintf("%s/%s/%.2f/%d", c.Benchmark, c.Scheme, c.VDD, c.Seed)
		if got != want[i] {
			t.Fatalf("cell %d is %s, want %s — the sweep ordering contract is pinned; bump the sweep schema if you mean to change it", i, got, want[i])
		}
	}
}

// postSweep posts a sweep and returns the raw NDJSON body.
func postSweep(t *testing.T, url string, req SweepRequest) []byte {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// TestSweepCheckpointByteIdentical is the serving-layer acceptance property:
// the same sweep answered by a fresh cold server (checkpoint off) and a fresh
// checkpointing server is byte-identical NDJSON, and the checkpointing server
// actually shared one warm snapshot across the cells. Workers=1 keeps every
// cell a deterministic "miss" so even the cache annotations agree.
func TestSweepCheckpointByteIdentical(t *testing.T) {
	off := false
	sweep := SweepRequest{
		Benchmarks:   []string{"bzip2"},
		Schemes:      []string{"ABS", "FFS", "CDS"},
		VDDs:         []float64{0.97, 1.04},
		Seeds:        []uint64{3},
		Instructions: 2000,
		Warmup:       2000,
	}

	coldSrv, coldTS := newTestServer(t, Config{Workers: 1})
	sweep.Checkpoint = &off
	cold := postSweep(t, coldTS.URL, sweep)

	warmSrv, warmTS := newTestServer(t, Config{Workers: 1})
	sweep.Checkpoint = nil // default: checkpoint on
	warm := postSweep(t, warmTS.URL, sweep)

	if !bytes.Equal(cold, warm) {
		t.Fatalf("checkpointed sweep differs from cold sweep:\n%s\nvs\n%s", warm, cold)
	}
	if n := coldSrv.snaps.Memo.Len(); n != 0 {
		t.Fatalf("cold server populated the snapshot cache (%d entries)", n)
	}
	// One benchmark × one seed ⇒ one warm key shared by all six cells.
	if n := warmSrv.snaps.Memo.Len(); n != 1 {
		t.Fatalf("snapshot cache holds %d entries, want 1 shared across the sweep", n)
	}
	// Sanity: the stream is real reports in pinned order.
	sc := bufio.NewScanner(bytes.NewReader(warm))
	var i int
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if l.Index != i || l.Error != "" || len(l.Report) == 0 {
			t.Fatalf("bad line %d: %+v", i, l)
		}
		i++
	}
	if i != 6 {
		t.Fatalf("%d lines, want 6", i)
	}
}

// TestBadRequests pins the 400 surface: wrong schema, unknown benchmark,
// unknown scheme, unknown JSON field, and an over-cap phase length.
func TestBadRequests(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1, MaxInstructions: 10000, Runner: stubRunner(&runs, nil)})
	cases := []struct {
		name, body string
	}{
		{"wrong schema", `{"schema":"tvsched/run-request/v999"}`},
		{"unknown benchmark", `{"benchmark":"nope"}`},
		{"unknown scheme", `{"scheme":"nope"}`},
		{"unknown field", `{"benchmak":"bzip2"}`},
		{"over instruction cap", `{"benchmark":"bzip2","instructions":20000}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	if runs.Load() != 0 {
		t.Fatalf("bad requests reached the simulator %d times", runs.Load())
	}
}

// TestRunTimeout bounds a runaway simulation with the server's per-run
// budget and maps the expiry to 503.
func TestRunTimeout(t *testing.T) {
	hang := func(ctx context.Context, cfg tvsched.Config, checkpoint bool) (tvsched.Result, resolve.Source, error) {
		<-ctx.Done()
		return tvsched.Result{}, resolve.Cold, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Workers: 1, RunTimeout: 20 * time.Millisecond, Runner: hang})
	resp, body := postRun(t, ts.URL, RunRequest{Benchmark: "bzip2", Instructions: 1000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after run timeout, want 503: %s", resp.StatusCode, body)
	}
}

// TestReadyzDrain checks the readiness flip that fronts graceful shutdown.
func TestReadyzDrain(t *testing.T) {
	var runs atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stubRunner(&runs, nil)})
	for _, probe := range []struct {
		path string
		want int
	}{{"/healthz", 200}, {"/readyz", 200}} {
		resp, err := http.Get(ts.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Fatalf("%s: status %d, want %d", probe.path, resp.StatusCode, probe.want)
		}
	}
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndSimulation runs one real (tiny) simulation through the full
// stack and checks the report parses and is deterministic across two
// identical servers — the property the cache's byte-identity rests on.
func TestEndToEndSimulation(t *testing.T) {
	req := RunRequest{Benchmark: "bzip2", Scheme: "ABS", VDD: 0.97, Instructions: 2000, Warmup: 500, Seed: 1}
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, Config{Workers: 1})
		resp, body := postRun(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("fresh servers disagree on the same request:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
	var rep obs.RunReport
	if err := json.Unmarshal(bodies[0], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "tvservd" || rep.Instructions == 0 || rep.IPC <= 0 || rep.TEP == nil {
		t.Fatalf("degenerate report: %+v", rep)
	}
}

// TestRetryAfterEstimate sanity-checks the backpressure hint stays in its
// documented clamp.
func TestRetryAfterEstimate(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, us := range []uint64{0, 5_000_000, 500_000_000} {
		if us > 0 {
			s.sm.ObserveRun(us)
		}
		ra := s.retryAfter()
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 || secs > 60 {
			t.Fatalf("Retry-After %q outside [1,60]", ra)
		}
	}
}

// TestRetryAfterQueuedOnly pins the estimate's arithmetic: the wait is mean
// latency × queued / workers, where queued excludes the running computations
// — they already hold the worker slots the queue drains into. The old
// formula multiplied by pending (queued + running), telling clients at
// saturation to back off roughly twice as long as the queue justified.
func TestRetryAfterQueuedOnly(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	s.sm.ObserveRun(2_000_000) // mean 2s per simulation
	s.mu.Lock()
	s.pending, s.running = 5, 2 // 3 queued behind 2 running
	s.mu.Unlock()
	// 2s × 3 queued / 2 workers = 3s. The pending-based bug said 5s.
	if got := s.retryAfter(); got != "3" {
		t.Fatalf("Retry-After %q, want \"3\" (mean 2s × 3 queued / 2 workers)", got)
	}
	s.mu.Lock()
	s.pending, s.running = 2, 2 // saturated pool, empty queue
	s.mu.Unlock()
	if got := s.retryAfter(); got != "1" {
		t.Fatalf("Retry-After %q with an empty queue, want the 1s floor", got)
	}
}

// TestCancelVsOverloadStatus pins the split bugfix #2 landed: a client
// cancellation is 499/canceled (the client's doing), a deadline stays
// 503 (the server's).
func TestCancelVsOverloadStatus(t *testing.T) {
	if got := statusFor(context.Canceled); got != StatusClientClosedRequest {
		t.Fatalf("statusFor(Canceled) = %d, want 499", got)
	}
	if got := statusFor(context.DeadlineExceeded); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor(DeadlineExceeded) = %d, want 503", got)
	}
	if got := statusFor(fmt.Errorf("wrap: %w", context.Canceled)); got != StatusClientClosedRequest {
		t.Fatalf("wrapped Canceled = %d, want 499", got)
	}
}

// TestClientGoneIsCanceledNotError hangs a simulation, makes the client
// disconnect, and asserts the request lands in the "canceled" outcome with
// an Info-level record — not in the error counters dashboards page on.
func TestClientGoneIsCanceledNotError(t *testing.T) {
	h := &countingLogHandler{}
	var runs atomic.Int64
	gate := make(chan struct{})
	defer close(gate)
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stubRunner(&runs, gate), Logger: slog.New(h)})

	ctx, cancel := context.WithCancel(context.Background())
	blob, _ := json.Marshal(RunRequest{Benchmark: "bzip2", Instructions: 1000, Seed: 42})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(blob))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	// Wait until the request is in flight, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled client request unexpectedly succeeded")
	}

	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics().Snapshot().Outcomes[obs.ServeCanceled] == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	snap := s.Metrics().Snapshot()
	if snap.Outcomes[obs.ServeCanceled] != 1 {
		t.Fatalf("canceled outcome %d, want 1 (outcomes: %v)", snap.Outcomes[obs.ServeCanceled], snap.Outcomes)
	}
	if snap.Outcomes[obs.ServeErrored] != 0 {
		t.Fatalf("client hang-up counted as a server error (%d)", snap.Outcomes[obs.ServeErrored])
	}
	if errs := h.errors(); len(errs) != 0 {
		t.Fatalf("client hang-up logged at warn/error: %v", errs[0].Message)
	}
}

// TestSnapshotFollowerReleads is the regression for bugfix #1: a snapshot
// leader that dies of its own context (its client hung up mid-warmup) must
// not publish that error to followers whose contexts are live — they
// re-enter and lead the production themselves.
func TestSnapshotFollowerReleads(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	var produces atomic.Int64
	produce := func(ctx context.Context) ([]byte, resolve.Source, error) {
		if produces.Add(1) == 1 {
			<-ctx.Done() // the doomed leader: blocks until its client leaves
			return nil, resolve.None, ctx.Err()
		}
		return []byte("warm"), resolve.None, nil
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.snaps.Do(leaderCtx, "k", nil, produce)
		leaderErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for produces.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	followerRes := make(chan []byte, 1)
	go func() {
		b, _, err := s.snaps.Do(context.Background(), "k", nil, produce)
		if err != nil {
			t.Errorf("follower inherited the leader's death: %v", err)
		}
		followerRes <- b
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	select {
	case b := <-followerRes:
		if string(b) != "warm" {
			t.Fatalf("follower got %q, want the re-led production", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower wedged after the leader's context died")
	}
	if b, ok := s.snaps.Memo.Get("k"); !ok || string(b) != "warm" {
		t.Fatalf("snapshot cache not populated by the re-led production (ok=%v)", ok)
	}
}

// TestSweepThrashesTinySnapshotCache squeezes a multi-WarmKey sweep through
// a snapshot cache bounded to one entry: the keys evict each other
// (thrash), but every cell still completes — the regression here would be a
// wedge, with cells waiting forever on snapshot flights that keep being
// evicted.
func TestSweepThrashesTinySnapshotCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4, SnapshotEntries: 1})
	sweep := SweepRequest{
		Benchmarks:   []string{"bzip2", "sjeng", "mcf"}, // three distinct warm keys
		Schemes:      []string{"ABS", "EP"},
		Instructions: 1000,
		Warmup:       1000,
	}
	body := postSweep(t, ts.URL, sweep)
	sc := bufio.NewScanner(bytes.NewReader(body))
	n := 0
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if l.Error != "" || len(l.Report) == 0 {
			t.Fatalf("cell %d failed under snapshot thrash: %q", l.Index, l.Error)
		}
		n++
	}
	if n != 6 {
		t.Fatalf("%d cells, want 6", n)
	}
	if got := srv.snaps.Memo.Len(); got != 1 {
		t.Fatalf("snapshot cache len %d, want the bound of 1", got)
	}
}
