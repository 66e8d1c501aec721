package campaign

import (
	"context"
	"math"
	"sync"

	"tvsched"
	"tvsched/internal/lru"
	"tvsched/internal/resolve"
	"tvsched/internal/store"
)

// ReportFunc renders one finished simulation as the line's embedded report
// payload (compact JSON, no trailing newline needed). It is injected rather
// than fixed so cmd/tvplan can emit run-report/v1 with its own tool tag
// without this package importing the experiments layer.
type ReportFunc func(cfg tvsched.Config, res tvsched.Result) ([]byte, error)

// LocalRunner executes cells in-process — the offline engine behind
// cmd/tvplan — through the same resolver the serving layer configures
// (internal/resolve): a result flight keyed by digest, then the optional
// persistent store, then resolve.Simulate with a snapshot flight keyed by
// WarmKey. Every group's first cell leads one donor warmup and every cell of
// the group, the leader included, restores it ("restored"); a concurrent
// duplicate joins the running lead ("shared"), a later one reuses its bytes
// ("hit"), and so does a cell the store already holds.
type LocalRunner struct {
	// Checkpoint enables the warm-snapshot sharing tier; off, every cell
	// warms up from scratch ("cold"). Results are byte-identical either way.
	Checkpoint bool
	// Store, when non-nil, persists result bytes by digest across runs. The
	// caller owns its lifecycle. Note a store's bytes embed the producing
	// tool's name, so tvplan stores and tvservd stores must not be mixed.
	Store *store.Store
	// Render is the report renderer (required).
	Render ReportFunc

	once    sync.Once
	results *resolve.Flight // digest → rendered report bytes
	snaps   *resolve.Flight // WarmKey → neutral warm-state bytes
}

// Run executes one cell.
func (r *LocalRunner) Run(ctx context.Context, cell Cell) CellResult {
	r.once.Do(func() {
		// Both memos keep everything for the runner's lifetime: campaign
		// order puts the cells of one warm group a stride of #seeds apart,
		// so any bound below the group count would re-run warmups.
		r.results = &resolve.Flight{Memo: lru.New[string, []byte](math.MaxInt)}
		r.snaps = &resolve.Flight{Memo: lru.New[string, []byte](math.MaxInt)}
	})
	digest := cell.Config.Digest()
	body, prov, err := r.results.Do(ctx, digest, nil, func(ctx context.Context) ([]byte, resolve.Source, error) {
		return r.lead(ctx, cell.Config, digest)
	})
	class := ClassOf(prov, err)
	if err != nil {
		return CellResult{Class: class, Cache: "error", Err: err}
	}
	return CellResult{Class: class, Cache: class.String(), Body: body}
}

// lead produces the bytes for one digest: store read-through, then a
// simulation, written back to the store.
func (r *LocalRunner) lead(ctx context.Context, cfg tvsched.Config, digest string) ([]byte, resolve.Source, error) {
	if r.Store != nil {
		if b, ok, _ := r.Store.Get(digest); ok {
			return b, resolve.Store, nil
		}
	}
	var snaps *resolve.Flight
	if r.Checkpoint {
		snaps = r.snaps
	}
	res, src, err := resolve.Simulate(ctx, cfg, snaps)
	if err != nil {
		return nil, src, err
	}
	body, err := r.Render(cfg, res)
	if err != nil {
		return nil, src, err
	}
	if r.Store != nil {
		// Best effort: a failed write-back costs a recomputation later,
		// never a wrong answer.
		_ = r.Store.Put(digest, body)
	}
	return body, src, nil
}
