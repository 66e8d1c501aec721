package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"tvsched/internal/campaign"
	"tvsched/internal/obs"
)

// newHTTPServer fronts s without the newTestServer cleanups, for tests that
// restart servers over a shared campaign directory and need to close the
// first life explicitly before starting the second.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(s.Handler())
}

func postCampaign(t *testing.T, url string, spec campaign.Spec) (*http.Response, campaignStatus) {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/campaign", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st campaignStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode campaign status: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, st
}

// waitCampaignState polls the status endpoint until the campaign reaches
// want (or the deadline passes), returning the final status document.
func waitCampaignState(t *testing.T, url, id, want string) campaignStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st campaignStatus
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/campaign/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode campaign status: %v", err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached state %q (last %q, done %d/%d, error %q)",
		id, want, st.State, st.Done, st.Total, st.Error)
	return st
}

func campaignReport(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/campaign/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("report content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCampaignLifecycle drives the asynchronous campaign API end to end:
// POST admits and answers 202 immediately, status converges to done, the
// report endpoint replays the journal in cell order, and a re-POST of the
// same spec joins the finished campaign (200) without re-simulating.
func TestCampaignLifecycle(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers:     2,
		Runner:      stubRunner(&runs, nil),
		CampaignDir: t.TempDir(),
	})

	spec := campaign.Spec{
		Benchmarks:   []string{"bzip2", "sjeng"},
		Schemes:      []string{"ABS"},
		Seeds:        []uint64{1, 2},
		Instructions: 2000,
	}
	resp, st := postCampaign(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST status %d, want 202", resp.StatusCode)
	}
	if st.Schema != CampaignStatusSchema {
		t.Errorf("status schema %q", st.Schema)
	}
	if st.ID == "" || st.Total != 4 {
		t.Fatalf("status id=%q total=%d", st.ID, st.Total)
	}

	final := waitCampaignState(t, ts.URL, st.ID, campaignDone)
	if final.Done != 4 || final.Error != "" {
		t.Fatalf("done campaign: done=%d error=%q", final.Done, final.Error)
	}
	if final.Progress == nil || final.Progress.Done != 4 || final.Progress.Total != 4 {
		t.Errorf("terminal status progress = %+v", final.Progress)
	}

	report := campaignReport(t, ts.URL, st.ID)
	var lines []campaign.Line
	for _, raw := range bytes.Split(bytes.TrimSuffix(report, []byte("\n")), []byte("\n")) {
		var l campaign.Line
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("bad report line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("%d report lines, want 4", len(lines))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Errorf("line %d carries index %d: report must replay in cell order", i, l.Index)
		}
		if l.Error != "" || len(l.Report) == 0 {
			t.Errorf("cell %d failed: %q", i, l.Error)
		}
	}

	// Idempotent re-POST: same spec, same plan hash, no new executor and no
	// new simulations.
	before := runs.Load()
	resp2, st2 := postCampaign(t, ts.URL, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-POST status %d, want 200", resp2.StatusCode)
	}
	if st2.ID != st.ID || st2.State != campaignDone {
		t.Fatalf("re-POST joined id=%q state=%q", st2.ID, st2.State)
	}
	if runs.Load() != before {
		t.Fatalf("re-POST re-simulated: %d runs, had %d", runs.Load(), before)
	}
}

// TestCampaignDisabledAndBadRequests pins the refusal paths: no campaign
// directory answers 503, malformed specs and over-cap campaigns answer 400,
// unknown ids answer 404.
func TestCampaignDisabledAndBadRequests(t *testing.T) {
	var runs atomic.Int64
	_, disabled := newTestServer(t, Config{Workers: 1, Runner: stubRunner(&runs, nil)})
	resp, _ := postCampaign(t, disabled.URL, campaign.Spec{Benchmarks: []string{"bzip2"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("campaign without dir: status %d, want 503", resp.StatusCode)
	}

	_, ts := newTestServer(t, Config{
		Workers:          1,
		Runner:           stubRunner(&runs, nil),
		CampaignDir:      t.TempDir(),
		MaxCampaignCells: 2,
	})
	resp, _ = postCampaign(t, ts.URL, campaign.Spec{Benchmarks: []string{"no-such-benchmark"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postCampaign(t, ts.URL, campaign.Spec{Seeds: []uint64{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap campaign: status %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/v1/campaign/deadbeef", "/v1/campaign/deadbeef/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestCampaignResumeAcrossRestart is the serve-layer resume contract: a
// second server pointed at the same campaign directory relaunches the
// journal, replays the finished prefix without re-simulating it, executes
// only the missing cells, and serves a report whose journaled prefix is
// byte-identical to what the first run recorded.
func TestCampaignResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{
		Benchmarks:   []string{"bzip2", "sjeng"},
		Schemes:      []string{"ABS"},
		Seeds:        []uint64{1, 2},
		Instructions: 2000,
	}

	// First life: run the campaign to completion and keep its report.
	var runsA atomic.Int64
	sA := New(Config{Workers: 2, Runner: stubRunner(&runsA, nil), CampaignDir: dir})
	tsA := newHTTPServer(t, sA)
	_, st := postCampaign(t, tsA.URL, spec)
	waitCampaignState(t, tsA.URL, st.ID, campaignDone)
	reportA := campaignReport(t, tsA.URL, st.ID)
	tsA.Close()
	sA.Close()

	// Second life: ResumeCampaigns finds the finished journal, replays it to
	// a terminal done without a single simulation, and the report is the
	// same bytes.
	var runsB atomic.Int64
	sB := New(Config{Workers: 2, Runner: stubRunner(&runsB, nil), CampaignDir: dir})
	tsB := newHTTPServer(t, sB)
	n, err := sB.ResumeCampaigns()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ResumeCampaigns relaunched %d campaigns, want 1", n)
	}
	waitCampaignState(t, tsB.URL, st.ID, campaignDone)
	if runsB.Load() != 0 {
		t.Fatalf("resuming a finished campaign re-simulated %d cells", runsB.Load())
	}
	reportB := campaignReport(t, tsB.URL, st.ID)
	if !bytes.Equal(reportA, reportB) {
		t.Fatalf("resumed report differs from original:\n%s\nvs\n%s", reportA, reportB)
	}
	tsB.Close()
	sB.Close()
}

// TestCampaignSuspendsOnShutdownThenResumes kills a campaign mid-flight by
// shutting the server down, checks the status reports suspended, and then
// finishes it on a fresh server over the same directory.
func TestCampaignSuspendsOnShutdownThenResumes(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{
		Benchmarks:   []string{"bzip2", "sjeng"},
		Schemes:      []string{"ABS"},
		Seeds:        []uint64{1, 2},
		Instructions: 2000,
	}

	var runsA atomic.Int64
	gate := make(chan struct{}) // never closed: every simulation hangs
	sA := New(Config{Workers: 2, Runner: stubRunner(&runsA, gate), CampaignDir: dir})
	tsA := newHTTPServer(t, sA)
	resp, st := postCampaign(t, tsA.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	sA.Close() // cancels the server context; the executor must suspend
	susp := waitCampaignState(t, tsA.URL, st.ID, campaignSuspended)
	if susp.Error == "" {
		t.Error("suspended status carries no cause")
	}
	tsA.Close()

	var runsB atomic.Int64
	sB := New(Config{Workers: 2, Runner: stubRunner(&runsB, nil), CampaignDir: dir})
	tsB := newHTTPServer(t, sB)
	if n, err := sB.ResumeCampaigns(); err != nil || n != 1 {
		t.Fatalf("ResumeCampaigns = %d, %v", n, err)
	}
	final := waitCampaignState(t, tsB.URL, st.ID, campaignDone)
	if final.Done != 4 || final.Error != "" {
		t.Fatalf("resumed campaign: done=%d error=%q", final.Done, final.Error)
	}
	tsB.Close()
	sB.Close()
}

// TestCampaignResumesPartialJournal pre-seeds a journal with a finished
// prefix, resumes it, and checks only the missing cells execute while the
// prefix replays byte-for-byte.
func TestCampaignResumesPartialJournal(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{
		Benchmarks:   []string{"bzip2", "sjeng"},
		Schemes:      []string{"ABS"},
		Seeds:        []uint64{1, 2},
		Instructions: 2000,
	}
	plan, err := campaign.NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	s := New(Config{Workers: 2, Runner: stubRunner(&runs, nil), CampaignDir: dir})
	j, err := campaign.OpenJournal(s.journalPath(plan), plan)
	if err != nil {
		t.Fatal(err)
	}
	var seeded [][]byte
	for i := 0; i < 2; i++ {
		cfg := plan.Cell(i).Config
		line, err := json.Marshal(&campaign.Line{
			Index: i, Benchmark: cfg.Benchmark, Scheme: cfg.Scheme.String(),
			VDD: cfg.VDD, Seed: cfg.Seed, Digest: cfg.Digest(),
			Cache: "miss", Report: json.RawMessage(`{"seeded":true}`),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(i, campaign.ClassCold, line); err != nil {
			t.Fatal(err)
		}
		seeded = append(seeded, line)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ts := newHTTPServer(t, s)
	defer ts.Close()
	defer s.Close()
	if n, err := s.ResumeCampaigns(); err != nil || n != 1 {
		t.Fatalf("ResumeCampaigns = %d, %v", n, err)
	}
	final := waitCampaignState(t, ts.URL, plan.Hash(), campaignDone)
	if final.Done != 4 || final.Resumed != 2 {
		t.Fatalf("resumed campaign: done=%d resumed=%d, want 4/2", final.Done, final.Resumed)
	}
	if runs.Load() != 2 {
		t.Fatalf("%d simulations after resuming a half-done 4-cell campaign, want 2", runs.Load())
	}
	report := campaignReport(t, ts.URL, plan.Hash())
	reportLines := bytes.Split(bytes.TrimSuffix(report, []byte("\n")), []byte("\n"))
	if len(reportLines) != 4 {
		t.Fatalf("%d report lines, want 4", len(reportLines))
	}
	for i, want := range seeded {
		if !bytes.Equal(reportLines[i], want) {
			t.Errorf("journaled prefix line %d changed on resume:\n got %s\nwant %s", i, reportLines[i], want)
		}
	}
}

// TestSweepRequestPlansLazily pins the /v1/sweep memory fix: planning a
// million-cell sweep request costs O(axes) allocations, not O(cells) —
// the handler no longer materializes the cross product up front.
func TestSweepRequestPlansLazily(t *testing.T) {
	seeds := make([]uint64, 250_000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	req := SweepRequest{
		Schema:     SweepRequestSchema,
		Benchmarks: []string{"bzip2", "sjeng"},
		Schemes:    []string{"ABS", "FFS"},
		Seeds:      seeds, // 2×2×1×250000 = 1,000,000 cells
	}
	allocs := testing.AllocsPerRun(10, func() {
		plan, err := req.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Total() != 1_000_000 {
			t.Fatalf("Total = %d", plan.Total())
		}
		_ = plan.Cell(999_999)
	})
	if allocs > 200 {
		t.Fatalf("planning a 1M-cell sweep cost %.0f allocations — the handler is eager again", allocs)
	}
}

// journalRecords maps each cell index journaled in the .tvcj file at path to
// the file offset of its record's payload. A frame is magic u32, payload
// length u32, CRC-32 u32, then the payload; the first frame is the header.
func journalRecords(t *testing.T, path string) map[int]int {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloadAt := map[int]int{}
	for off, first := 0, true; off+12 <= len(blob); first = false {
		n := int(binary.BigEndian.Uint32(blob[off+4:]))
		payload := blob[off+12 : off+12+n]
		if !first {
			var rec struct{ Index int }
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatalf("journal record at %d: %v", off, err)
			}
			payloadAt[rec.Index] = off + 12
		}
		off += 12 + n
	}
	return payloadAt
}

// TestCampaignReportSurfacesBadRecord runs a 4-cell campaign to done, then
// flips one bit of a journal record under the open journal. The report must
// not end short and silent, as it does for a cell not yet journaled: a bad
// record after some lines ends the stream with a ReportErrorSchema record,
// a bad first record answers 500, and each is one failed request with one
// error log line.
func TestCampaignReportSurfacesBadRecord(t *testing.T) {
	h := &countingLogHandler{}
	var runs atomic.Int64
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers:     1,
		Runner:      stubRunner(&runs, nil),
		CampaignDir: dir,
		Logger:      slog.New(h),
	})
	spec := campaign.Spec{Benchmarks: []string{"bzip2"}, Schemes: []string{"ABS", "FFS"},
		Seeds: []uint64{1, 2}, Instructions: 2000}
	_, st := postCampaign(t, ts.URL, spec)
	waitCampaignState(t, ts.URL, st.ID, "done")
	full := campaignReport(t, ts.URL, st.ID)
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) != 5 || len(lines[4]) != 0 {
		t.Fatalf("intact report has %d lines, want 4:\n%s", len(lines)-1, full)
	}

	path := filepath.Join(dir, st.ID+".tvcj")
	at := journalRecords(t, path)
	flip := func(index int) {
		t.Helper()
		off, ok := at[index]
		if !ok {
			t.Fatalf("cell %d has no journal record", index)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[off+5] ^= 0x10
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	failed := func() uint64 { return s.Metrics().Snapshot().Outcomes[obs.ServeErrored] }

	flip(2)
	resp, err := http.Get(ts.URL + "/v1/campaign/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report over a bad third record: status %d, want 200 and a terminal error record", resp.StatusCode)
	}
	prefix := bytes.Join(lines[:2], nil)
	if !bytes.HasPrefix(body, prefix) {
		t.Fatalf("report over a bad third record does not start with the first two lines:\n%s", body)
	}
	var rec reportError
	if err := json.Unmarshal(body[len(prefix):], &rec); err != nil || rec.Schema != ReportErrorSchema ||
		rec.Index != 2 || rec.Error == "" || !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("report over a bad third record ends %q (%v), want one %s record for index 2",
			body[len(prefix):], err, ReportErrorSchema)
	}
	if n, logs := failed(), len(h.errors()); n != 1 || logs != 1 {
		t.Fatalf("after the cut report: %d failed requests, %d warn/error log records; want 1 and 1", n, logs)
	}

	flip(0)
	resp, err = http.Get(ts.URL + "/v1/campaign/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("report over a bad first record: status %d, want 500", resp.StatusCode)
	}
	if n, logs := failed(), len(h.errors()); n != 2 || logs != 2 {
		t.Fatalf("after the refused report: %d failed requests, %d warn/error log records; want 2 and 2", n, logs)
	}
}
