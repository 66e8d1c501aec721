package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tvsched"
	"tvsched/internal/obs"
)

// Golden files pin every output the benchmark checks: one line per cell or
// request, "<key> <hash>", the hash being the first 64 bits of the SHA-256 of
// the output body in hex. They are written by -write-golden and read on every
// run; a model change that alters results regenerates them in its own commit.

func goldenPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
}

func bodyHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// loadGolden reads a golden file; a missing file is nil, not an error — the
// run then reports verified=false.
func loadGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, hash, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("golden %s: malformed line %q", path, line)
		}
		golden[key] = hash
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return golden, nil
}

func writeGolden(path, workload string, seed uint64, ops []op) error {
	entries := map[string]string{}
	for i := range ops {
		if ops[i].err != nil {
			return fmt.Errorf("golden: %s failed: %v", ops[i].key, ops[i].err)
		}
		entries[ops[i].key] = bodyHash(ops[i].body)
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed %d: <benchmark/scheme/vdd/sim-seed> <first 16 hex digits of SHA-256(output body)>\n", workload, seed)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, entries[k])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// cellKey names a cell in golden files and traces.
func cellKey(cfg tvsched.Config) string {
	return fmt.Sprintf("%s/%s/%g/%d", cfg.Benchmark, cfg.Scheme, cfg.VDD, cfg.Seed)
}

// verify checks every operation's output and fills in its simulated
// counts. An operation fails when it errored, when its body is not the
// run report of its own config, when it disagrees with the golden entry
// for its key, or when an earlier operation on the same key returned other
// bytes (determinism holds on every seed, golden file or not).
func verify(ops []op, golden map[string]string) (failed int, msgs []string) {
	seen := map[string]string{}
	fail := func(o *op, format string, args ...any) {
		failed++
		if len(msgs) < 10 {
			msgs = append(msgs, o.key+": "+fmt.Sprintf(format, args...))
		}
	}
	for i := range ops {
		o := &ops[i]
		if o.err != nil {
			fail(o, "%v", o.err)
			continue
		}
		var rep obs.RunReport
		if err := json.Unmarshal(o.body, &rep); err != nil {
			fail(o, "body is not a run report: %v", err)
			continue
		}
		cfg := o.cfg
		if rep.Benchmark != cfg.Benchmark || rep.Scheme != cfg.Scheme.String() || rep.VDD != cfg.VDD ||
			rep.Seed != cfg.Seed || rep.Instructions != cfg.Instructions || rep.Cycles == 0 || rep.TEP == nil {
			fail(o, "report does not describe its config: %s/%s/%g/%d %d insts %d cycles",
				rep.Benchmark, rep.Scheme, rep.VDD, rep.Seed, rep.Instructions, rep.Cycles)
			continue
		}
		o.insts, o.cycles = rep.Instructions, rep.Cycles
		o.violations = rep.TEP.TruePositives + rep.TEP.Unpredicted
		o.replays = rep.TEP.Unpredicted
		h := bodyHash(o.body)
		if prev, ok := seen[o.key]; ok && prev != h {
			fail(o, "output %s differs from an earlier %s on the same cell", h, prev)
			continue
		}
		seen[o.key] = h
		if golden != nil {
			if want, ok := golden[o.key]; !ok {
				fail(o, "no golden entry")
			} else if want != h {
				fail(o, "output %s, golden %s", h, want)
			}
		}
	}
	return failed, msgs
}
