package obs

import (
	"bufio"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expositionLine matches the Prometheus text format 0.0.4 grammar subset we
// emit: `name{label="value",...} number` with optional labels.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (NaN|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|\+Inf)$`)

func populatedExposition(t *testing.T) *Exposition {
	t.Helper()
	m := NewMetrics()
	s := NewCPIStack(CPIStackConfig{})
	for i := uint64(1); i <= 100; i++ {
		e := Event{Kind: KindRetire, Cycle: i, PC: i % 16}
		m.Event(e)
		s.Event(e)
		if i%3 == 0 {
			v := Event{Kind: KindViolationPredicted, Cycle: i, PC: i % 16, A: i % 2, B: RespConfined}
			m.Event(v)
			s.Event(v)
		}
		if i%5 == 0 {
			m.Event(Event{Kind: KindSample, Cycle: i, A: i % 32, B: i % 128})
			m.Event(Event{Kind: KindDelayedBroadcast, Cycle: i, A: i % 4})
		}
	}
	return NewExposition("tvsched", m, s)
}

func TestExpositionFormat(t *testing.T) {
	var b strings.Builder
	if _, err := populatedExposition(t).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	helped := map[string]bool{} // family -> saw HELP+TYPE before samples
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			helped[f[2]] = true
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line does not match the exposition grammar: %q", line)
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !helped[name] && !helped[family] {
			t.Fatalf("sample %q has no preceding HELP/TYPE preamble", name)
		}
		if !strings.HasPrefix(name, "tvsched_") {
			t.Fatalf("metric %q missing namespace prefix", name)
		}
	}

	for _, want := range []string{
		"tvsched_events_total", "tvsched_violations_total",
		"tvsched_tep_predictions_total", "tvsched_iq_occupancy_bucket",
		"tvsched_cpi_stack", "tvsched_violation_cpi",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %s:\n%s", want, out)
		}
	}
}

// TestExpositionHistogramCumulative checks the histogram contract promtool
// enforces: bucket counts monotonically non-decreasing in le order, and the
// +Inf bucket equal to _count.
func TestExpositionHistogramCumulative(t *testing.T) {
	var b strings.Builder
	if _, err := populatedExposition(t).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	bucketRe := regexp.MustCompile(`^(tvsched_[a-z_]+)_bucket\{le="([^"]+)"\} (\d+)$`)
	countRe := regexp.MustCompile(`^(tvsched_[a-z_]+)_count (\d+)$`)
	lastVal := map[string]uint64{}
	lastLE := map[string]float64{}
	infVal := map[string]uint64{}
	countVal := map[string]uint64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			fam := m[1]
			v, _ := strconv.ParseUint(m[3], 10, 64)
			le := math.Inf(1)
			if m[2] != "+Inf" {
				le, _ = strconv.ParseFloat(m[2], 64)
			} else {
				infVal[fam] = v
			}
			if v < lastVal[fam] {
				t.Fatalf("%s: bucket le=%q count %d below previous %d", fam, m[2], v, lastVal[fam])
			}
			if prev, ok := lastLE[fam]; ok && le <= prev {
				t.Fatalf("%s: bucket bounds not increasing (%v after %v)", fam, le, prev)
			}
			lastVal[fam], lastLE[fam] = v, le
		} else if m := countRe.FindStringSubmatch(line); m != nil {
			countVal[m[1]], _ = strconv.ParseUint(m[2], 10, 64)
		}
	}
	if len(infVal) == 0 {
		t.Fatal("no histogram families found")
	}
	for fam, inf := range infVal {
		if countVal[fam] != inf {
			t.Fatalf("%s: +Inf bucket %d != _count %d", fam, inf, countVal[fam])
		}
	}
}

func TestExpositionHandler(t *testing.T) {
	srv := httptest.NewServer(populatedExposition(t).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "tvsched_events_total") {
		t.Fatal("handler served no metrics")
	}
}

func TestExpositionNamespaceSanitized(t *testing.T) {
	e := NewExposition("9bad-ns.x")
	if e.ns != "_bad_ns_x" {
		t.Fatalf("sanitized ns = %q", e.ns)
	}
	if NewExposition("").ns != "tvsched" {
		t.Fatal("empty ns did not default")
	}
	// no sources: still a valid (empty) exposition.
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil || b.Len() != 0 {
		t.Fatalf("empty exposition: %q, %v", b.String(), err)
	}
}
