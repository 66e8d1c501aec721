package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const gatesFile = "../../.github/gates.json"

// conforming builds an artifact that passes g with nothing to spare: every
// min and max field sits on its bound and every equal pair agrees; an
// overhead gate gets its own baseline, whose overhead is the baseline's.
func conforming(t *testing.T, g *gate) map[string]any {
	t.Helper()
	doc := map[string]any{}
	if o := g.Overhead; o != nil {
		blob, err := os.ReadFile(filepath.Join(filepath.Dir(gatesFile), o.Baseline))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
	}
	doc["schema"] = g.Schema
	for f, b := range g.Min {
		doc[f] = b
	}
	for f, b := range g.Max {
		doc[f] = b
	}
	for f, other := range g.Equal {
		doc[f], doc[other] = 16.0, 16.0
	}
	return doc
}

// overheadEntry returns the artifact's scheme_overheads entry the rule
// reads, so a test can move it.
func overheadEntry(t *testing.T, doc map[string]any, o *overheadRule) (entries []any, i int) {
	t.Helper()
	entries, _ = doc["scheme_overheads"].([]any)
	for i, e := range entries {
		m := e.(map[string]any)
		if m["scheme"] == o.Scheme && m["vdd"] == o.VDD {
			return entries, i
		}
	}
	t.Fatalf("baseline has no %s entry at %v V", o.Scheme, o.VDD)
	return nil, 0
}

// exitOn writes doc as an artifact and returns tvgate's exit code on it.
func exitOn(t *testing.T, name string, doc map[string]any) int {
	t.Helper()
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return run([]string{"-gates", gatesFile, name, path}, io.Discard, io.Discard)
}

func clone(doc map[string]any) map[string]any {
	blob, _ := json.Marshal(doc)
	var out map[string]any
	json.Unmarshal(blob, &out)
	return out
}

// TestGatesFile runs every gate of the checked-in gates file: it passes a
// conforming artifact, and exits 1 when any single bound is violated, when
// any named field is absent, and when the schema differs.
func TestGatesFile(t *testing.T) {
	gates, err := readGates(gatesFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster", "chaos", "campaign-summary", "campaign-bench", "table1"} {
		if gates[name] == nil {
			t.Errorf("gates file lacks the %q gate CI runs", name)
		}
	}
	for name, g := range gates {
		t.Run(name, func(t *testing.T) {
			ok := conforming(t, g)
			if code := exitOn(t, name, ok); code != 0 {
				t.Fatalf("conforming artifact: exit %d, want 0", code)
			}
			mutants := map[string]func(map[string]any){
				"schema": func(d map[string]any) { d["schema"] = g.Schema + "x" },
			}
			for f, b := range g.Min {
				mutants["min "+f] = func(d map[string]any) { d[f] = b - 0.01 }
				mutants["absent "+f] = func(d map[string]any) { delete(d, f) }
			}
			for f, b := range g.Max {
				mutants["max "+f] = func(d map[string]any) { d[f] = b + 1 }
				mutants["absent "+f] = func(d map[string]any) { delete(d, f) }
			}
			for f, other := range g.Equal {
				mutants["equal "+f] = func(d map[string]any) { d[f] = d[other].(float64) - 1 }
				mutants["absent "+f] = func(d map[string]any) { delete(d, f) }
				mutants["absent "+other] = func(d map[string]any) { delete(d, other) }
			}
			if o := g.Overhead; o != nil {
				mutants["overhead"] = func(d map[string]any) {
					entries, i := overheadEntry(t, d, o)
					e := entries[i].(map[string]any)
					e["perf_pct"] = e["perf_pct"].(float64)*(1+o.Tolerance) + o.Slack + 0.001
				}
				mutants["absent overhead"] = func(d map[string]any) {
					entries, i := overheadEntry(t, d, o)
					d["scheme_overheads"] = append(entries[:i:i], entries[i+1:]...)
				}
			}
			for what, mutate := range mutants {
				doc := clone(ok)
				mutate(doc)
				if code := exitOn(t, name, doc); code != 1 {
					t.Errorf("%s: exit %d, want 1", what, code)
				}
			}
		})
	}
}

// TestGatesFileErrors pins the usage exits: an unknown gate, a misspelt
// bound key and a gate that bounds nothing are errors (2), never a pass.
func TestGatesFileErrors(t *testing.T) {
	if code := run([]string{"-gates", gatesFile, "nope", gatesFile}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("unknown gate: exit %d, want 2", code)
	}
	for _, bad := range []string{
		`{"g": {"schema": "s", "mni": {"x": 1}}}`,
		`{"g": {"schema": "s"}}`,
		`{"g": {"min": {"x": 1}}}`,
	} {
		path := filepath.Join(t.TempDir(), "gates.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		var stderr strings.Builder
		if code := run([]string{"-gates", path, "g", path}, io.Discard, &stderr); code != 2 {
			t.Fatalf("gates file %s: exit %d, want 2 (%s)", bad, code, stderr.String())
		}
	}
}
