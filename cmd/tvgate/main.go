// Command tvgate checks a JSON artifact against one named gate of a
// checked-in gates file and exits 1 when the artifact violates it. Every CI
// bound — load, campaign and simulated overhead — lives in
// .github/gates.json, not in code or on command lines.
//
// Usage:
//
//	tvgate [-gates .github/gates.json] GATE ARTIFACT
//	tvgate cluster cluster.json
//	tvgate table1 BENCH_table1.json
//
// A gate names the artifact's schema and bounds on its top-level numeric
// fields:
//
//	{"cluster": {"why": "...", "schema": "tvsched/load-report/v2",
//	             "min": {"stolen": 1}, "max": {"errors": 0},
//	             "equal": {"done": "cells"}}}
//
// min and max are inclusive bounds; equal requires a field to equal another
// field of the same artifact. A gate may instead (or also) carry an
// overhead rule for a run-report/v1: the scheme's perf_pct at the given
// supply must not exceed baseline·(1+tolerance) + slack, where the baseline
// is a run report whose path is relative to the gates file. The additive
// slack keeps a near-zero baseline from becoming a zero-tolerance gate.
//
// An artifact with another schema, or without a field the gate names,
// fails the gate: a renamed field cannot pass vacuously. tvgate prints one
// line per gate with every checked value, then "tvgate: OK"; it exits 1 on
// a failed gate and 2 on a usage or gates-file error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tvsched/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// gate is one named entry of the gates file.
type gate struct {
	// Why says what the gate proves; it is documentation only.
	Why      string             `json:"why"`
	Schema   string             `json:"schema"`
	Min      map[string]float64 `json:"min"`
	Max      map[string]float64 `json:"max"`
	Equal    map[string]string  `json:"equal"`
	Overhead *overheadRule      `json:"overhead"`
}

// overheadRule bounds a run report's simulated perf overhead by a baseline
// run report's.
type overheadRule struct {
	Baseline  string  `json:"baseline"`
	Scheme    string  `json:"scheme"`
	VDD       float64 `json:"vdd"`
	Tolerance float64 `json:"tolerance"`
	Slack     float64 `json:"slack"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tvgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gatesF := fs.String("gates", ".github/gates.json", "gates file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tvgate [-gates FILE] GATE ARTIFACT")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	name, path := fs.Arg(0), fs.Arg(1)
	gates, err := readGates(*gatesF)
	if err != nil {
		fmt.Fprintln(stderr, "tvgate:", err)
		return 2
	}
	g, ok := gates[name]
	if !ok {
		fmt.Fprintf(stderr, "tvgate: no gate %q in %s\n", name, *gatesF)
		return 2
	}
	lines, fails, err := g.check(path, filepath.Dir(*gatesF))
	if err != nil {
		fmt.Fprintf(stderr, "tvgate: %s: FAIL: %s: %v\n", name, path, err)
		return 1
	}
	fmt.Fprintf(stdout, "tvgate: %s: %s\n", name, strings.Join(lines, ", "))
	for _, f := range fails {
		fmt.Fprintf(stderr, "tvgate: %s: FAIL: %s\n", name, f)
	}
	if len(fails) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "tvgate: OK")
	return 0
}

// readGates decodes the gates file strictly: an unknown key (a misspelt
// "min", say) or a gate that bounds nothing is an error, not a gate that
// always passes.
func readGates(path string) (map[string]*gate, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var gates map[string]*gate
	if err := dec.Decode(&gates); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name, g := range gates {
		if g == nil || g.Schema == "" || len(g.Min)+len(g.Max)+len(g.Equal) == 0 && g.Overhead == nil {
			return nil, fmt.Errorf("%s: gate %q needs a schema and at least one bound", path, name)
		}
	}
	return gates, nil
}

// check evaluates the artifact at path; dir resolves the overhead rule's
// baseline. It returns one line per bound and the lines of the bounds
// violated; err reports an artifact the gate cannot be evaluated on.
func (g *gate) check(path, dir string) (lines, fails []string, err error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, nil, err
	}
	if doc["schema"] != g.Schema {
		return nil, nil, fmt.Errorf("schema %v, want %q", doc["schema"], g.Schema)
	}
	field := func(name string) (float64, error) {
		v, ok := doc[name].(float64)
		if !ok {
			return 0, fmt.Errorf("no numeric field %q", name)
		}
		return v, nil
	}
	bound := func(line string, ok bool) {
		lines = append(lines, line)
		if !ok {
			fails = append(fails, line)
		}
	}
	for _, name := range sortedKeys(g.Min) {
		v, err := field(name)
		if err != nil {
			return nil, nil, err
		}
		bound(fmt.Sprintf("%s %g (min %g)", name, v, g.Min[name]), v >= g.Min[name])
	}
	for _, name := range sortedKeys(g.Max) {
		v, err := field(name)
		if err != nil {
			return nil, nil, err
		}
		bound(fmt.Sprintf("%s %g (max %g)", name, v, g.Max[name]), v <= g.Max[name])
	}
	for _, name := range sortedKeys(g.Equal) {
		other := g.Equal[name]
		v, err := field(name)
		if err != nil {
			return nil, nil, err
		}
		w, err := field(other)
		if err != nil {
			return nil, nil, err
		}
		bound(fmt.Sprintf("%s %g (= %s %g)", name, v, other, w), v == w)
	}
	if o := g.Overhead; o != nil {
		cur, err := perfPct(blob, o)
		if err != nil {
			return nil, nil, err
		}
		baseline := filepath.Join(dir, o.Baseline)
		var base float64
		bblob, err := os.ReadFile(baseline)
		if err == nil {
			base, err = perfPct(bblob, o)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("baseline %s: %w", baseline, err)
		}
		limit := base*(1+o.Tolerance) + o.Slack
		bound(fmt.Sprintf("%s perf overhead at %.2f V %.3f%% (max %.3f%%, baseline %.3f%%)",
			o.Scheme, o.VDD, cur, limit, base), cur <= limit)
	}
	return lines, fails, nil
}

// perfPct reads the rule's scheme and supply overhead out of a run report.
func perfPct(blob []byte, o *overheadRule) (float64, error) {
	rep, err := obs.ReadRunReport(bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	ov, ok := rep.Overhead(o.Scheme, o.VDD)
	if !ok {
		return 0, fmt.Errorf("no overhead entry for %s at %.2f V", o.Scheme, o.VDD)
	}
	return ov.PerfPct, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
