package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"tvsched"
	"tvsched/internal/campaign"
)

// campaignBenchSchema tags the campaign bench's report.
const campaignBenchSchema = "tvsched/campaign-bench/v1"

// benchConfig parameterizes the campaign bench against a server started
// with -campaign-dir.
type benchConfig struct {
	URL       string
	Benchmark string
	// Warmup and Instructions shape each cell; the bench is warmup-heavy so
	// shared warm prefixes have something to save.
	Warmup       uint64
	Instructions uint64
	// Seed is the independent pass's seed; the engine and cached passes use
	// Seed+1, so the independent pass shares no digest or warm key with them.
	Seed uint64
	// Timeout bounds each campaign, admission to completion.
	Timeout time.Duration
}

// campaignBench is the bench's report (schema tvsched/campaign-bench/v1):
// the wall time of one ten-cell grid run as three campaigns. Speedup is
// IndependentNS/EngineNS; CachedSkipRatio is the fraction of the cached
// pass's cells that cost no simulation.
type campaignBench struct {
	Schema       string `json:"schema"`
	URL          string `json:"url"`
	Benchmark    string `json:"benchmark"`
	Cells        int    `json:"cells"`
	Warmup       uint64 `json:"warmup"`
	Instructions uint64 `json:"instructions"`
	// The three campaign ids, for cross-checking against server logs.
	IndependentID string `json:"independent_id"`
	EngineID      string `json:"engine_id"`
	CachedID      string `json:"cached_id"`

	IndependentNS   int64   `json:"independent_ns"`
	EngineNS        int64   `json:"engine_ns"`
	CachedNS        int64   `json:"cached_ns"`
	Speedup         float64 `json:"speedup"`
	CachedSkipRatio float64 `json:"cached_skip_ratio"`
}

// runCampaignBench times one benchmark's grid of all five schemes at both
// faulty supplies (ten cells, one warm prefix) as three campaigns:
// cell-independent (checkpoint sharing off), engine (shared warm-prefix
// snapshots, on a fresh seed) and cached (the engine grid re-tagged, so
// every cell is already in the result cache).
func runCampaignBench(ctx context.Context, cfg benchConfig) (*campaignBench, error) {
	schemes := []string{"Razor", "EP", "ABS", "FFS", "CDS"}
	vdds := []float64{tvsched.VLowFault, tvsched.VHighFault}
	cells := len(schemes) * len(vdds)
	client := &http.Client{Timeout: cfg.Timeout}

	pass := func(tag string, seed uint64, checkpoint bool) (string, time.Duration, *campaign.ProgressLine, error) {
		spec, err := json.Marshal(campaign.Spec{
			Schema:       campaign.SpecSchema,
			Tag:          tag,
			Benchmarks:   []string{cfg.Benchmark},
			Schemes:      schemes,
			VDDs:         vdds,
			Seeds:        []uint64{seed},
			Instructions: cfg.Instructions,
			Warmup:       cfg.Warmup,
			Checkpoint:   &checkpoint,
		})
		if err != nil {
			return "", 0, nil, err
		}
		var st struct {
			ID, State, Error string
			Done             int
			Progress         *campaign.ProgressLine
		}
		start := time.Now()
		resp, body, err := fetch(ctx, client, http.MethodPost, cfg.URL+"/v1/campaign", spec)
		for {
			if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			if err == nil {
				err = json.Unmarshal(body, &st)
			}
			if err == nil && st.State == "running" && time.Since(start) > cfg.Timeout {
				err = fmt.Errorf("still running after %s", cfg.Timeout)
			}
			if err != nil || st.State != "running" {
				break
			}
			time.Sleep(20 * time.Millisecond)
			resp, body, err = fetch(ctx, client, http.MethodGet, cfg.URL+"/v1/campaign/"+st.ID, nil)
		}
		elapsed := time.Since(start)
		if err == nil && (st.State != "done" || st.Error != "" || st.Done != cells) {
			err = fmt.Errorf("ended %s with %d of %d cells: %s", st.State, st.Done, cells, st.Error)
		}
		if err != nil {
			return "", 0, nil, fmt.Errorf("campaign %s: %w", tag, err)
		}
		return st.ID, elapsed, st.Progress, nil
	}

	rep := &campaignBench{
		Schema:       campaignBenchSchema,
		URL:          cfg.URL,
		Benchmark:    cfg.Benchmark,
		Cells:        cells,
		Warmup:       cfg.Warmup,
		Instructions: cfg.Instructions,
	}
	var indep, engine, cached time.Duration
	var prog *campaign.ProgressLine
	var err error
	if rep.IndependentID, indep, _, err = pass("campaignbench-independent", cfg.Seed, false); err != nil {
		return nil, err
	}
	if rep.EngineID, engine, _, err = pass("campaignbench-engine", cfg.Seed+1, true); err != nil {
		return nil, err
	}
	if rep.CachedID, cached, prog, err = pass("campaignbench-cached", cfg.Seed+1, true); err != nil {
		return nil, err
	}
	rep.IndependentNS, rep.EngineNS, rep.CachedNS = indep.Nanoseconds(), engine.Nanoseconds(), cached.Nanoseconds()
	if engine > 0 {
		rep.Speedup = float64(indep) / float64(engine)
	}
	if prog != nil && prog.Done > 0 {
		rep.CachedSkipRatio = float64(prog.Hit+prog.Shared+prog.Stolen) / float64(prog.Done)
	}
	return rep, nil
}
