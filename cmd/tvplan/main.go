// Command tvplan plans and executes simulation campaigns offline — the
// same planner/executor engine behind POST /v1/campaign and /v1/sweep
// (internal/campaign), without a server. A campaign spec (schema
// tvsched/campaign-spec/v1) names the benchmark × scheme × VDD × seed cross
// product; tvplan expands it lazily, executes cells on a bounded worker pool
// with warm-prefix snapshot sharing and per-digest dedup, and streams one
// campaign-report/v1 NDJSON line per cell in the canonical plan order.
//
// Every completed cell is checkpointed to an append-only journal named after
// the plan hash, so a killed campaign — SIGKILL included — resumes exactly
// where it stopped: re-running the same invocation replays the journaled
// prefix verbatim and executes only the missing cells, and the resumed
// output is byte-identical to an uninterrupted run (CI enforces this with a
// kill-and-resume drill).
//
// Usage:
//
//	tvplan -spec campaign.json                     # execute, report on stdout
//	tvplan -spec campaign.json -dry-run            # plan document only, no cells
//	tvplan -spec campaign.json -out report.ndjson -summary summary.json
//	tvplan -spec campaign.json -dir /var/lib/tvplan -progress
//	tvplan -spec campaign.json -store results/     # persistent cross-campaign cache
//	tvplan -spec - < campaign.json                 # spec on stdin
//
// The report stream (-out, default stdout) is byte-deterministic for a
// fixed spec; progress/v1 heartbeats (-progress) go to stderr so they never
// perturb it. The -summary artifact (tvsched/campaign-summary/v1) carries
// the per-provenance accounting and the skip ratio the campaign-summary
// gate bounds (cmd/tvgate, .github/gates.json).
//
// Exit status: 0 on a fully successful campaign, 1 when any cell failed or
// the campaign machinery broke (an interrupted campaign reports how far the
// journal got and is resumable), 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tvsched"
	"tvsched/internal/campaign"
	"tvsched/internal/experiments"
	"tvsched/internal/store"
)

// planDoc is the -dry-run artifact (schema tvsched/campaign-plan/v1): the
// campaign's identity and shape, everything knowable without simulating.
type planDoc struct {
	Schema string `json:"schema"`
	// Plan is the plan hash — the campaign id and its journal's basename.
	Plan string `json:"plan"`
	Tag  string `json:"tag,omitempty"`
	// Cells is the cross-product size; WarmGroups the number of distinct
	// warm prefixes (each paying one warmup that all its cells share).
	Cells      int           `json:"cells"`
	WarmGroups int           `json:"warm_groups"`
	Journal    string        `json:"journal,omitempty"`
	Journaled  int           `json:"journaled"`
	Spec       campaign.Spec `json:"spec"`
}

func main() {
	var (
		specF     = flag.String("spec", "", "campaign spec JSON file (\"-\" = stdin; required)")
		outF      = flag.String("out", "-", "campaign-report NDJSON destination (\"-\" = stdout)")
		dirF      = flag.String("dir", ".", "journal directory; the journal is <dir>/<plan-hash>.tvcj")
		journalF  = flag.String("journal", "", "explicit journal path (overrides -dir)")
		noJournal = flag.Bool("no-journal", false, "run without a journal: nothing persists, nothing resumes")
		dryRun    = flag.Bool("dry-run", false, "print the plan document (campaign-plan/v1) and exit without simulating")
		workers   = flag.Int("workers", 0, "concurrent cell simulations (0 = GOMAXPROCS)")
		storeDir  = flag.String("store", "", "persistent result store directory shared across campaigns (empty = none)")
		progress  = flag.Bool("progress", false, "emit progress/v1 heartbeats on stderr")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "heartbeat cadence with -progress")
		summaryF  = flag.String("summary", "", "write the campaign-summary/v1 artifact here (empty = skip)")
	)
	flag.Parse()
	if *specF == "" {
		fmt.Fprintln(os.Stderr, "tvplan: -spec is required")
		os.Exit(2)
	}

	spec, err := readSpec(*specF)
	if err != nil {
		fatal(err)
	}
	plan, err := campaign.NewPlan(spec)
	if err != nil {
		fatal(err)
	}

	jpath := *journalF
	if jpath == "" {
		jpath = filepath.Join(*dirF, plan.Hash()+".tvcj")
	}
	if *noJournal {
		jpath = ""
	}

	if *dryRun {
		doc := planDoc{
			Schema:     campaign.PlanSchema,
			Plan:       plan.Hash(),
			Tag:        plan.Spec().Tag,
			Cells:      plan.Total(),
			WarmGroups: plan.WarmGroups(),
			Journal:    jpath,
			Spec:       plan.Spec(),
		}
		if jpath != "" {
			if j, p2, err := campaign.LoadJournal(jpath); err == nil {
				if p2.Hash() != plan.Hash() {
					fatal(fmt.Errorf("journal %s belongs to campaign %s, not %s", jpath, p2.Hash(), plan.Hash()))
				}
				doc.Journaled = j.DoneCount()
				j.Close()
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		return
	}

	out := io.Writer(os.Stdout)
	if *outF != "-" && *outF != "" {
		f, err := os.Create(*outF)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	runner := &campaign.LocalRunner{
		Checkpoint: plan.Checkpoint(),
		Render: func(cfg tvsched.Config, res tvsched.Result) ([]byte, error) {
			return experiments.RunReportJSON("tvplan", cfg, res)
		},
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, 0)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		runner.Store = st
	}

	var j *campaign.Journal
	if jpath != "" {
		if err := os.MkdirAll(filepath.Dir(jpath), 0o755); err != nil {
			fatal(err)
		}
		if j, err = campaign.OpenJournal(jpath, plan); err != nil {
			fatal(err)
		}
		defer j.Close()
		if n := j.DoneCount(); n > 0 {
			fmt.Fprintf(os.Stderr, "tvplan: resuming campaign %s: %d of %d cells journaled\n",
				plan.Hash(), n, plan.Total())
		}
	}

	// SIGINT/SIGTERM cancel the executor cleanly: the journal keeps every
	// finished cell and the same invocation resumes. SIGKILL gets the same
	// guarantee from the journal's per-append flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := campaign.Options{
		Workers:    *workers,
		HeartbeatW: os.Stderr,
	}
	if *progress {
		opts.Heartbeat = *heartbeat
	}
	prog := campaign.NewProgress(plan.Total())
	opts.Progress = prog
	start := time.Now()
	opts.Start = start

	stats, execErr := campaign.Execute(ctx, plan, j, runner.Run, out, opts)

	summary := prog.Summary(plan, time.Since(start))
	if *summaryF != "" {
		if err := writeSummary(*summaryF, summary); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "tvplan: campaign %s: %d/%d cells (%d replayed, %d errors, skip ratio %.2f) in %s\n",
		plan.Hash(), stats.Done, stats.Total, stats.Replayed, stats.Errors(),
		summary.SkipRatio, stats.Elapsed.Round(time.Millisecond))
	if execErr != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "tvplan: interrupted; re-run the same invocation to resume\n")
		}
		fatal(execErr)
	}
	if stats.Errors() > 0 {
		os.Exit(1)
	}
}

func readSpec(path string) (campaign.Spec, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return campaign.Spec{}, err
		}
		defer f.Close()
		r = f
	}
	var spec campaign.Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return campaign.Spec{}, fmt.Errorf("bad campaign spec: %w", err)
	}
	return spec, nil
}

func writeSummary(path string, s *campaign.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvplan:", err)
	os.Exit(1)
}
