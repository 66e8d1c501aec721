package serve

import (
	"errors"
	"fmt"

	"tvsched"
	"tvsched/internal/campaign"
)

// The wire schemas this package speaks. Like obs.RunReportSchema, these are
// matched exactly before any field semantics are trusted; bump on breaking
// change. They are documented in EXPERIMENTS.md alongside run-report/v1 and
// storm-report/v1.
const (
	// RunRequestSchema tags one simulation request (POST /v1/run).
	RunRequestSchema = "tvsched/run-request/v1"
	// SweepRequestSchema tags a cross-product sweep (POST /v1/sweep).
	SweepRequestSchema = "tvsched/sweep-request/v1"
)

// ErrBadRequest reports a request the server refuses to simulate: wrong
// schema, unknown benchmark or scheme, or out-of-policy phase lengths.
// Handlers map it to HTTP 400.
var ErrBadRequest = errors.New("bad request")

// RunRequest is the wire form of one simulation request. Zero fields take
// the library defaults (tvsched.Config.Normalized), so an omitted field and
// its explicit default address the same cache entry.
type RunRequest struct {
	// Schema must be RunRequestSchema (or empty, which assumes it).
	Schema string `json:"schema,omitempty"`
	// Benchmark is a workload name from tvsched.Benchmarks().
	Benchmark string `json:"benchmark,omitempty"`
	// Scheme is the handling scheme name ("Razor", "EP", "ABS", "FFS",
	// "CDS"); empty means Razor, matching the library zero value.
	Scheme string `json:"scheme,omitempty"`
	// VDD is the supply voltage (0 means nominal 1.10 V).
	VDD float64 `json:"vdd,omitempty"`
	// Instructions and Warmup are the phase lengths in committed
	// instructions.
	Instructions uint64 `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`
	// Seed drives all deterministic randomness; responses are
	// byte-deterministic given the request, so two posts of the same
	// request always return identical bodies.
	Seed uint64 `json:"seed,omitempty"`
	// FaultBias multiplies the fault model's near-critical fraction.
	FaultBias float64 `json:"fault_bias,omitempty"`
}

// Config validates the request and converts it to a normalized simulation
// config. All failures wrap ErrBadRequest.
func (r *RunRequest) Config() (tvsched.Config, error) {
	if r.Schema != "" && r.Schema != RunRequestSchema {
		return tvsched.Config{}, fmt.Errorf("%w: schema %q, want %q", ErrBadRequest, r.Schema, RunRequestSchema)
	}
	cfg := tvsched.Config{
		Benchmark:    r.Benchmark,
		VDD:          r.VDD,
		Instructions: r.Instructions,
		Warmup:       r.Warmup,
		Seed:         r.Seed,
		FaultBias:    r.FaultBias,
	}
	if r.Scheme != "" {
		s, err := tvsched.ParseScheme(r.Scheme)
		if err != nil {
			return tvsched.Config{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		cfg.Scheme = s
	}
	cfg = cfg.Normalized()
	if _, ok := tvsched.Profile(cfg.Benchmark); !ok {
		return tvsched.Config{}, fmt.Errorf("%w: unknown benchmark %q", ErrBadRequest, cfg.Benchmark)
	}
	return cfg, nil
}

// SweepRequest is the wire form of a batch sweep: the cross product of the
// listed axes, each cell an independent (and independently cached)
// simulation. Empty axes default to a single element: bzip2 / ABS /
// 0.97 V / seed 1.
type SweepRequest struct {
	// Schema must be SweepRequestSchema (or empty, which assumes it).
	Schema     string    `json:"schema,omitempty"`
	Benchmarks []string  `json:"benchmarks,omitempty"`
	Schemes    []string  `json:"schemes,omitempty"`
	VDDs       []float64 `json:"vdds,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`
	// Instructions, Warmup and FaultBias apply to every cell.
	Instructions uint64  `json:"instructions,omitempty"`
	Warmup       uint64  `json:"warmup,omitempty"`
	FaultBias    float64 `json:"fault_bias,omitempty"`
	// Checkpoint, when absent or true, lets cells restore the server's
	// shared warm-state snapshot for their WarmKey instead of each
	// re-simulating the warmup phase; false forces every cell to warm up
	// from scratch. Responses are byte-identical either way (all server runs
	// use neutral warmup) — the flag trades warmup CPU for snapshot-cache
	// memory, and exists mainly so benchmarks and CI can compare the paths.
	Checkpoint *bool `json:"checkpoint,omitempty"`
	// Progress, when true, interleaves tvsched/progress/v1 heartbeat records
	// (cells done/total, per-provenance counts, EWMA-based ETA) with the cell
	// lines, at the server's heartbeat cadence, plus one final heartbeat after
	// the last cell. Off by default: heartbeats carry wall-clock timings, so
	// only streams that opt in trade away byte-determinism.
	Progress bool `json:"progress,omitempty"`
}

// Plan converts the request into a lazy campaign plan — the one cross-product
// enumerator the whole repo shares (internal/campaign). The plan is O(axes) in
// memory no matter how many cells it describes; handleSweep bounds the cell
// count against the server cap, and plan.Cell(i) materializes one cell at a
// time. The cell order is campaign's canonical order, which is exactly the
// order this endpoint has always promised: benchmarks × schemes × VDDs ×
// seeds, each axis as requested, seeds varying fastest. All failures wrap
// ErrBadRequest.
func (s *SweepRequest) Plan() (*campaign.Plan, error) {
	if s.Schema != "" && s.Schema != SweepRequestSchema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadRequest, s.Schema, SweepRequestSchema)
	}
	plan, err := campaign.NewPlan(campaign.Spec{
		Benchmarks:   s.Benchmarks,
		Schemes:      s.Schemes,
		VDDs:         s.VDDs,
		Seeds:        s.Seeds,
		Instructions: s.Instructions,
		Warmup:       s.Warmup,
		FaultBias:    s.FaultBias,
		Checkpoint:   s.Checkpoint,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return plan, nil
}
