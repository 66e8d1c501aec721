package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"tvsched"
)

// The wire schemas this package speaks, documented in EXPERIMENTS.md. Like
// the serve schemas they are matched exactly before any field semantics are
// trusted; bump on breaking change.
const (
	// SpecSchema tags a campaign spec (POST /v1/campaign, tvplan -spec).
	SpecSchema = "tvsched/campaign-spec/v1"
	// ReportSchema names the NDJSON stream a campaign emits: one Line per
	// cell in plan order. The line layout is identical to a /v1/sweep cell
	// line (the sweep is a journal-less campaign), so consumers share code.
	ReportSchema = "tvsched/campaign-report/v1"
	// SummarySchema tags the end-of-campaign accounting artifact
	// (tvplan -summary), the input of the campaign-summary gate.
	SummarySchema = "tvsched/campaign-summary/v1"
	// PlanSchema tags the dry-run plan description (tvplan -plan).
	PlanSchema = "tvsched/campaign-plan/v1"
)

// ErrBadSpec reports a campaign spec the planner refuses: wrong schema,
// unknown benchmark or scheme, or a cross product too large to index.
var ErrBadSpec = errors.New("bad campaign spec")

// Spec is the wire form of a campaign: the cross product of the four axes,
// every cell sharing the scalar phase parameters. Empty axes default to a
// single element — bzip2 / ABS / 0.97 V / seed 1 — matching /v1/sweep.
type Spec struct {
	// Schema must be SpecSchema (or empty, which assumes it).
	Schema string `json:"schema,omitempty"`
	// Tag is a free-form campaign label. It participates in the plan hash —
	// two campaigns over identical axes but different tags are distinct
	// campaigns with distinct journals — but never in cell configs, so a
	// re-tagged campaign still hits the result cache cell for cell.
	Tag        string    `json:"tag,omitempty"`
	Benchmarks []string  `json:"benchmarks,omitempty"`
	Schemes    []string  `json:"schemes,omitempty"`
	VDDs       []float64 `json:"vdds,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`
	// Instructions, Warmup and FaultBias apply to every cell.
	Instructions uint64  `json:"instructions,omitempty"`
	Warmup       uint64  `json:"warmup,omitempty"`
	FaultBias    float64 `json:"fault_bias,omitempty"`
	// Checkpoint, when absent or true, lets cells restore a shared warm-state
	// snapshot for their WarmKey instead of each re-simulating the warmup
	// phase; false forces every cell to warm up from scratch. Results are
	// byte-identical either way (neutral warmup) — the flag trades warmup CPU
	// for snapshot memory, and exists so benchmarks can compare the paths.
	Checkpoint *bool `json:"checkpoint,omitempty"`
}

// normalized returns the spec with every default applied — the exact axes a
// plan enumerates. Normalizing before hashing makes an omitted axis and its
// explicit default the same campaign.
func (s Spec) normalized() Spec {
	s.Schema = SpecSchema
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = []string{"bzip2"}
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []string{"ABS"}
	}
	if len(s.VDDs) == 0 {
		s.VDDs = []float64{tvsched.VHighFault}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	t := true
	if s.Checkpoint == nil {
		s.Checkpoint = &t
	}
	return s
}

// Cell is one planned simulation: its flat index in the campaign order and
// the fully normalized config (whose Digest is its result address and whose
// WarmKey is its warm-prefix group).
type Cell struct {
	Index  int
	Config tvsched.Config
	// Group is the cell's warm group within the Execute call running it
	// (nil outside one, or when the plan does not checkpoint).
	Group *Group
}

// Plan is a validated, hashable campaign: axes parsed and checked once, cells
// addressed lazily by index arithmetic. Construction costs O(axes); nothing
// is ever proportional to Total until cells actually execute, which is what
// lets a million-cell sweep stream in constant memory.
type Plan struct {
	spec    Spec
	schemes []tvsched.Scheme
	lens    [4]int // benchmarks, schemes, vdds, seeds
	total   int
	hash    string
}

// NewPlan validates the spec (schema tag, benchmark and scheme names, index
// range) and returns the plan. All failures wrap ErrBadSpec.
func NewPlan(spec Spec) (*Plan, error) {
	if spec.Schema != "" && spec.Schema != SpecSchema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadSpec, spec.Schema, SpecSchema)
	}
	spec = spec.normalized()
	for _, b := range spec.Benchmarks {
		if _, ok := tvsched.Profile(b); !ok {
			return nil, fmt.Errorf("%w: unknown benchmark %q", ErrBadSpec, b)
		}
	}
	schemes := make([]tvsched.Scheme, len(spec.Schemes))
	for i, name := range spec.Schemes {
		s, err := tvsched.ParseScheme(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		schemes[i] = s
	}
	p := &Plan{
		spec:    spec,
		schemes: schemes,
		lens:    [4]int{len(spec.Benchmarks), len(spec.Schemes), len(spec.VDDs), len(spec.Seeds)},
	}
	p.total = Count(p.lens[:])
	if p.total < 0 {
		return nil, fmt.Errorf("%w: cross product overflows int", ErrBadSpec)
	}
	sum := sha256.Sum256(p.canonicalSpecJSON())
	p.hash = hex.EncodeToString(sum[:])
	return p, nil
}

// canonicalSpecJSON renders the normalized spec deterministically (fixed
// field order, defaults applied, Checkpoint concrete). The plan hash — the
// campaign's identity, its journal's name and its /v1/campaign id — is the
// SHA-256 of these bytes.
func (p *Plan) canonicalSpecJSON() []byte {
	b, err := json.Marshal(p.spec)
	if err != nil {
		// The spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("campaign: canonical spec: %v", err))
	}
	return b
}

// Spec returns the normalized spec the plan was built from.
func (p *Plan) Spec() Spec { return p.spec }

// Total is the cell count of the cross product.
func (p *Plan) Total() int { return p.total }

// Hash is the campaign's content address: hex SHA-256 of the canonical
// normalized spec. Equal hashes mean identical plans, hence (determinism)
// identical uninterrupted reports.
func (p *Plan) Hash() string { return p.hash }

// Checkpoint reports whether cells may share warm-state snapshots.
func (p *Plan) Checkpoint() bool { return *p.spec.Checkpoint }

// WarmGroups is the number of distinct warm-prefix groups the plan fans out
// to: one neutral snapshot per (benchmark, seed) pair serves every
// (scheme, VDD) cell under it.
func (p *Plan) WarmGroups() int {
	benches := make(map[string]struct{}, len(p.spec.Benchmarks))
	for _, b := range p.spec.Benchmarks {
		benches[b] = struct{}{}
	}
	seeds := make(map[uint64]struct{}, len(p.spec.Seeds))
	for _, s := range p.spec.Seeds {
		seeds[s] = struct{}{}
	}
	return len(benches) * len(seeds)
}

// Cell addresses one cell by flat index in O(axes): benchmarks × schemes ×
// VDDs × seeds, each axis in spec order, seeds varying fastest — the order
// Enumerate defines and the golden tests pin.
func (p *Plan) Cell(i int) Cell {
	var idx [4]int
	Unrank(p.lens[:], i, idx[:])
	cfg := tvsched.Config{
		Benchmark:    p.spec.Benchmarks[idx[0]],
		Scheme:       p.schemes[idx[1]],
		VDD:          p.spec.VDDs[idx[2]],
		Seed:         p.spec.Seeds[idx[3]],
		Instructions: p.spec.Instructions,
		Warmup:       p.spec.Warmup,
		FaultBias:    p.spec.FaultBias,
	}
	return Cell{Index: i, Config: cfg.Normalized()}
}

// Line is one NDJSON record of a campaign (or sweep) report stream: the
// cell's coordinates, its result digest, the cache-provenance annotation, and
// either the embedded run-report/v1 body or the cell's error. The field
// layout is byte-compatible with the historical /v1/sweep cell line.
//
// Ordering contract (pinned by golden tests): a stream carries exactly one
// line per cell, Index ascending from 0 with no gaps, in the plan's cell
// order. Only Cache may vary between two runs of the same plan, and only when
// the plan addresses one digest from several cells.
type Line struct {
	Index     int             `json:"index"`
	Benchmark string          `json:"benchmark"`
	Scheme    string          `json:"scheme"`
	VDD       float64         `json:"vdd"`
	Seed      uint64          `json:"seed"`
	Digest    string          `json:"digest"`
	Cache     string          `json:"cache"`
	Report    json.RawMessage `json:"report,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Summary is the end-of-campaign accounting artifact
// (tvsched/campaign-summary/v1): how every cell resolved, how many were
// replayed from the journal rather than executed, and the cached-cell skip
// ratio the campaign-summary gate (.github/gates.json) bounds.
type Summary struct {
	Schema string `json:"schema"`
	Plan   string `json:"plan"`
	Tag    string `json:"tag,omitempty"`
	Cells  int    `json:"cells"`
	Done   int    `json:"done"`
	// Replayed cells were emitted verbatim from the journal: completed by an
	// earlier run of this campaign and never re-executed here.
	Replayed int `json:"replayed"`
	Hit      int `json:"hit"`
	Shared   int `json:"shared"`
	Restored int `json:"restored"`
	Cold     int `json:"cold"`
	Stolen   int `json:"stolen"`
	Errors   int `json:"errors"`
	// SkipRatio is the fraction of done cells that cost no local simulation:
	// cache/store hits, collapsed duplicates, cluster-served cells and
	// journal replays.
	SkipRatio  float64 `json:"skip_ratio"`
	ElapsedSec float64 `json:"elapsed_sec"`
}
