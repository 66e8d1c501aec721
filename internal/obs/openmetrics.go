package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Family is one metric family of the Prometheus text exposition: its name
// under the exposition's namespace, its HELP text and TYPE, and its
// members. A family with no members still renders its HELP/TYPE preamble.
type Family struct {
	Name, Help, Type string
	Members          []Member
}

// Member is one labelled member of a family: a sample Value (a uint64,
// int64 or float64, rendered as %v renders it), or a histogram when Hist is
// set. Labels holds `k="v",…` pairs without braces; empty means unlabelled.
type Member struct {
	Labels string
	Value  any
	Hist   *Hist
}

// Source is a registry that lists its metric families at scrape time.
// Metrics, CPIStack, ServeMetrics and span.Tracer implement it.
type Source interface {
	Families() []Family
}

// Exposition renders metric sources in the Prometheus text exposition
// format (version 0.0.4, the format `promtool check metrics` accepts), so a
// running tvbench/tvsim/tvservd can be scraped like any other service.
// Counters become `_total` series, the log2 Hist buckets become proper
// cumulative histogram `_bucket`/`_sum`/`_count` series (bucket upper
// bounds are 0, 1, 3, 7, … 2^i−1 — the largest integer each log2 bucket can
// hold — then +Inf), and labelled vectors such as the CPI stack become one
// series per label value.
//
// Values are read live at scrape time under the registries' locks; with a
// sharded parallel suite, a scrape sees everything flushed so far.
type Exposition struct {
	ns      string
	sources []Source
}

// NewExposition builds an exposition over the given sources, rendered in
// order. ns prefixes every metric name; it is sanitized to the Prometheus
// name charset and defaults to "tvsched".
func NewExposition(ns string, sources ...Source) *Exposition {
	if ns == "" {
		ns = "tvsched"
	}
	var b strings.Builder
	for i, r := range ns {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		b.WriteRune(r)
	}
	return &Exposition{ns: b.String(), sources: sources}
}

// Handler serves the exposition over HTTP (mount at /metrics).
func (e *Exposition) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = e.WriteTo(w)
	})
}

// WriteTo renders every family of every source into one buffer and writes
// it to w once.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	for _, src := range e.sources {
		for _, f := range src.Families() {
			name := e.ns + "_" + f.Name
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, f.Help, name, f.Type)
			for _, m := range f.Members {
				switch {
				case m.Hist != nil:
					writeHist(&b, name, m.Labels, m.Hist)
				case m.Labels == "":
					fmt.Fprintf(&b, "%s %v\n", name, m.Value)
				default:
					fmt.Fprintf(&b, "%s{%s} %v\n", name, m.Labels, m.Value)
				}
			}
		}
	}
	return b.WriteTo(w)
}

// writeHist renders the bucket/sum/count series of one log2 Hist as a
// cumulative Prometheus histogram, merging the extra labels into each
// series. Bucket i of Hist counts integer values in [2^(i-1), 2^i), so its
// exact upper bound is 2^i−1; the final open-ended bucket folds into +Inf.
func writeHist(b *bytes.Buffer, name, labels string, h *Hist) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i := 0; i < len(h.Buckets)-1; i++ {
		cum += h.Buckets[i]
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%d\"} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %d\n%s_count%s %d\n", name, labels, h.Sum, name, labels, h.Count)
}

// scalar is a family of one unlabelled value.
func scalar(name, help, typ string, v any) Family {
	return Family{name, help, typ, []Member{{Value: v}}}
}

// histFamily is a family of one unlabelled histogram.
func histFamily(name, help string, h Hist) Family {
	return Family{name, help, "histogram", []Member{{Hist: &h}}}
}

// enum is an enumeration whose values name themselves.
type enum interface {
	~int | ~uint8
	String() string
}

// enumMembers lists one member per value of an enumeration E: values[i]
// labelled key="E(i)".
func enumMembers[E enum, V any](key string, values []V) []Member {
	out := make([]Member, len(values))
	for i, v := range values {
		out[i] = Member{Labels: fmt.Sprintf("%s=%q", key, E(i).String()), Value: v}
	}
	return out
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
