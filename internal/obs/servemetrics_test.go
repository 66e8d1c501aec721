package obs

import (
	"bufio"
	"strings"
	"sync"
	"testing"
)

func populatedServeMetrics() *ServeMetrics {
	s := NewServeMetrics()
	for i := 0; i < 10; i++ {
		s.Outcome(ServeHit)
	}
	s.Outcome(ServeShared)
	s.Outcome(ServeShared)
	s.Outcome(ServeMiss)
	s.Outcome(ServeRejected)
	s.Outcome(ServeBadRequest)
	s.SetQueue(3, 2)
	for _, us := range []uint64{0, 90, 1500, 1500} {
		s.ObserveRequest(RouteRun, ServeHit, us)
	}
	s.ObserveRequest(RouteSweep, ServeMiss, 250000)
	s.ObserveRun(250000)
	s.Outcome(ServeCanceled)
	s.PeerOp("b", PeerForward)
	s.PeerOp("b", PeerForward)
	s.PeerOp("b", PeerFetchHit)
	s.PeerOp("c", PeerCheckOK)
	s.StoreOp(StoreHit)
	s.StoreOp(StoreMiss)
	s.StoreOp(StorePut)
	s.StoreOp(StorePut)
	s.SetStoreSize(7, 4096)
	return s
}

// TestServeExpositionFormat renders a serving registry through the shared
// exposition and checks every line against the same text-format grammar the
// pipeline metrics are held to, plus the family set the serving layer
// promises (queue depth, in-flight, outcome counters, latency histograms).
func TestServeExpositionFormat(t *testing.T) {
	var b strings.Builder
	e := NewExposition("tvservd", populatedServeMetrics())
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line does not match the exposition grammar: %q", line)
		}
	}

	for _, want := range []string{
		`tvservd_serve_requests_total{result="hit"} 10`,
		`tvservd_serve_requests_total{result="shared"} 2`,
		`tvservd_serve_requests_total{result="miss"} 1`,
		`tvservd_serve_requests_total{result="rejected"} 1`,
		`tvservd_serve_requests_total{result="bad_request"} 1`,
		`tvservd_serve_requests_total{result="error"} 0`,
		`tvservd_serve_requests_total{result="canceled"} 1`,
		`tvservd_serve_peer_ops_total{peer="b",op="forward"} 2`,
		`tvservd_serve_peer_ops_total{peer="b",op="fetch_hit"} 1`,
		`tvservd_serve_peer_ops_total{peer="b",op="diverged"} 0`,
		`tvservd_serve_peer_ops_total{peer="c",op="check_ok"} 1`,
		`tvservd_serve_store_ops_total{op="hit"} 1`,
		`tvservd_serve_store_ops_total{op="put"} 2`,
		"tvservd_serve_store_entries 7",
		"tvservd_serve_store_bytes 4096",
		"tvservd_serve_queue_depth 3",
		"tvservd_serve_in_flight 2",
		`tvservd_serve_request_latency_us_count{route="run",result="hit"} 4`,
		`tvservd_serve_request_latency_us_count{route="sweep",result="miss"} 1`,
		"tvservd_serve_run_latency_us_count 1",
		`tvservd_serve_request_latency_us_bucket{route="run",result="hit",le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestServeMetricsConcurrency hammers the registry from many goroutines so
// the race detector can see any unlocked path.
func TestServeMetricsConcurrency(t *testing.T) {
	s := NewServeMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Outcome(ServeOutcome(i % int(NumServeOutcomes)))
				s.ObserveRequest(ServeRoute(i%int(NumServeRoutes)), ServeOutcome(i%int(NumServeOutcomes)), uint64(i))
				s.ObserveRun(uint64(i))
				s.SetQueue(int64(g), int64(i%4))
				s.PeerOp("p", PeerOp(i%int(NumPeerOps)))
				s.StoreOp(StoreOp(i % int(NumStoreOps)))
				s.SetStoreSize(i, int64(i))
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	var total uint64
	for _, c := range snap.Outcomes {
		total += c
	}
	if total != 8000 {
		t.Fatalf("outcome total %d, want 8000", total)
	}
	var reqs uint64
	for r := range snap.ReqLatency {
		for o := range snap.ReqLatency[r] {
			reqs += snap.ReqLatency[r][o].Count
		}
	}
	if reqs != 8000 || snap.RunLatency.Count != 8000 {
		t.Fatalf("latency counts %d/%d, want 8000", reqs, snap.RunLatency.Count)
	}
}
