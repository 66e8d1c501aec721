package resolve

import (
	"context"

	"tvsched"
)

// Simulate runs one cell: it builds the cell's session, restores the cell's
// WarmKey snapshot through snaps — produced once per key by an observer-free
// donor leading that flight — and runs the measured phase. Any snapshot
// failure other than a context error falls back to a cold neutral warmup:
// checkpoints are an optimization, never a correctness dependency. A nil
// snaps always warms up cold. Neutral warm state is scheme- and
// VDD-independent, so both paths produce the same result; the Source says
// which one ran (Restored or Cold).
//
// cfg, PhaseHook included, configures the donor as well as the cell, so a
// hook sees a leading cell's donor "warmup_neutral" before the cell's own
// "restore" and "run".
func Simulate(ctx context.Context, cfg tvsched.Config, snaps *Flight) (tvsched.Result, Source, error) {
	sess, err := tvsched.NewSession(cfg)
	if err != nil {
		return tvsched.Result{}, Cold, err
	}
	if snaps != nil {
		key := sess.WarmKey()
		data, _, err := snaps.Do(ctx, key, nil, func(ctx context.Context) ([]byte, Source, error) {
			b, err := donate(ctx, cfg)
			return b, None, err
		})
		switch {
		case err == nil:
			if err := sess.Restore(&tvsched.Snapshot{Key: key, Data: data}); err == nil {
				res, err := sess.Run(ctx, tvsched.RunOpts{})
				return res, Restored, err
			}
			// A failed restore may leave the machine half-loaded; rebuild it
			// for the cold path.
			if sess, err = tvsched.NewSession(cfg); err != nil {
				return tvsched.Result{}, Cold, err
			}
		case isCtxErr(err):
			return tvsched.Result{}, Cold, err
		}
	}
	if err := sess.WarmupNeutral(ctx); err != nil {
		return tvsched.Result{}, Cold, err
	}
	res, err := sess.Run(ctx, tvsched.RunOpts{})
	return res, Cold, err
}

// donate warms a throwaway donor session neutrally and serializes its warm
// state. Any scheme or VDD with the cell's WarmKey produces the same bytes.
// The donor carries no observer: warm-state bytes are observer-independent,
// and the observer-off cycle loop is the fast one.
func donate(ctx context.Context, cfg tvsched.Config) ([]byte, error) {
	cfg.Observer = nil
	donor, err := tvsched.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := donor.WarmupNeutral(ctx); err != nil {
		return nil, err
	}
	snap, err := donor.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.Data, nil
}
