package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var workloads = []string{"cold-cells", "sweep-warm", "serve-mixed"}

// finalLine is the last line of standard output, the contract every run
// ends with.
type finalLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runTiny runs the benchmark in-process at test size, with every file it
// writes under dir, and returns the exit status and the parsed last line
// (zero when the run printed no result).
func runTiny(t *testing.T, dir string, args ...string) (int, finalLine) {
	t.Helper()
	base := []string{"-tiny", "-seconds", "0.5", "-tmp", dir,
		"-out", filepath.Join(dir, "result.json"), "-trace-out", filepath.Join(dir, "trace.json"),
		"-golden-dir", filepath.Join(dir, "golden")}
	var stdout, stderr bytes.Buffer
	code := run(time.Now(), append(base, args...), &stdout, &stderr)
	var fl finalLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; strings.HasPrefix(last, "{") {
		if err := json.Unmarshal([]byte(last), &fl); err != nil {
			t.Fatalf("%v: last stdout line is not the result: %v\nstdout:\n%s\nstderr:\n%s", args, err, &stdout, &stderr)
		}
	}
	if code != 0 {
		t.Logf("%v: exit %d\nstderr:\n%s", args, code, &stderr)
	}
	return code, fl
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// compare against the metric tables.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if e := bj.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, e, m)
		}
	}
	for i, m := range perLayer {
		if e := bj.PerLayer[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, e, m)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i])
		}
	}
}

// Every workload runs untraced and traced at test size, succeeds, and
// prints exactly the declared metrics with their units.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				dir := t.TempDir()
				code, fl := runTiny(t, dir, "-workload", w, "-seed", "7", "-trace", traced)
				if code != 0 || !fl.Correct || fl.Attempted < 1 || fl.Failed != 0 {
					t.Fatalf("exit %d, result %+v", code, fl)
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(fl.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(fl.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := fl.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
				}
				if traced == "0" {
					for _, m := range endToEnd {
						if fl.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.name, fl.Metrics[m.name].Value)
						}
					}
					return
				}
				b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var trace struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
					t.Fatalf("trace is not Chrome trace-event JSON with events: %v", err)
				}
			})
		}
	}
}

// Golden files written by an untraced pass over every operation verify a
// traced run cell for cell — the traced run simulated exactly the same
// instructions and cycles — and one corrupted entry fails the run.
func TestGoldenVerifiesTracedRunAndCatchesCorruption(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			if code, _ := runTiny(t, dir, "-workload", w, "-seed", "3", "-write-golden"); code != 0 {
				t.Fatalf("-write-golden exit %d", code)
			}
			code, fl := runTiny(t, dir, "-workload", w, "-seed", "3", "-trace", "1")
			if code != 0 || !fl.Correct {
				t.Fatalf("traced run against the golden file: exit %d, result %+v", code, fl)
			}
			var res result
			b, err := os.ReadFile(filepath.Join(dir, "result.json"))
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil || !res.Verified {
				t.Fatalf("result not verified: %v %+v", err, res.Verified)
			}

			path := goldenPath(filepath.Join(dir, "golden"), w, 3)
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt every entry's hash, so the run meets one whichever
			// operations it reaches.
			var out []string
			for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
				if key, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
					line = key + " 0000000000000000"
				}
				out = append(out, line)
			}
			if err := os.WriteFile(path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			code, fl = runTiny(t, dir, "-workload", w, "-seed", "3")
			if code == 0 || fl.Correct || fl.Failed != fl.Attempted || fl.Attempted == 0 {
				t.Fatalf("corrupted golden file: exit %d, result %+v; want every operation failed", code, fl)
			}
		})
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "cold-cells", "-trace", "2"},
		{"-workload", "cold-cells", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(time.Now(), args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}

// The open loop times each request from when it was due: two stalled
// requests occupy both connections, and requests due during the stall wait
// for a connection — their latency includes that wait, although the server
// answers them at once.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= conns {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()

	due := make([]time.Duration, 12)
	bodies := make([][]byte, len(due))
	for i := range due {
		due[i] = time.Duration(i) * 20 * time.Millisecond
		bodies[i] = []byte("{}")
	}
	exs := openLoop(context.Background(), client, srv.URL, time.Now(), due, bodies)
	for i, ex := range exs {
		if ex.err != nil {
			t.Fatalf("request %d: %v", i, ex.err)
		}
	}
	// Request 5 was due at 100 ms and could not be sent before ~300 ms.
	queued := exs[5]
	if queued.latency < stall-due[5]-50*time.Millisecond {
		t.Errorf("request due at %v: latency %v, want at least ~%v of queueing behind the stall",
			due[5], queued.latency, stall-due[5])
	}
	if service := queued.done - queued.sent; service > queued.latency/2 {
		t.Errorf("request due at %v: service %v is most of its latency %v; the wait for a connection was not counted",
			due[5], service, queued.latency)
	}
	if queued.late > 50*time.Millisecond {
		t.Errorf("generator ran %v late; it must not wait on busy connections", queued.late)
	}
}
