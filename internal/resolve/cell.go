package resolve

import (
	"context"

	"tvsched"
	"tvsched/internal/store"
)

// WarmStatePrefix namespaces warm-state records in a result store: the
// record of a WarmKey is stored under WarmStatePrefix + key, 75 bytes, which
// no 64-hex-digit config digest can ever equal.
const WarmStatePrefix = "warm-state/"

// Simulate runs one cell: it builds the cell's session, restores the cell's
// WarmKey snapshot through snaps, and runs the measured phase. Any snapshot
// failure other than a context error falls back to a cold neutral warmup:
// checkpoints are an optimization, never a correctness dependency. A nil
// snaps always warms up cold. Neutral warm state is scheme- and
// VDD-independent, so both paths produce the same result; the Source says
// which one ran (Restored or Cold).
//
// snaps is the in-memory level of the warm-state tier, st, when non-nil,
// the level under it: a snapshot lead reads the warm state from st under
// WarmStatePrefix + key, and only on a miss (or a read error) warms an
// observer-free donor, whose snapshot it then writes back to st on a
// best-effort basis. A failed write costs a later warmup, never a wrong
// answer. st is consulted only when snaps is non-nil. warm says where a
// restored cell's warm state came from: Memory (the memo), Store (st) or
// Cold (a donor's neutral warmup), the lead's source for a cell that joined
// it; it is None for a cell that warmed up cold.
//
// cfg, PhaseHook included, configures the donor as well as the cell, so a
// hook sees a leading cell's donor "warmup_neutral" before the cell's own
// "restore" and "run".
func Simulate(ctx context.Context, cfg tvsched.Config, snaps *Flight, st *store.Store) (res tvsched.Result, src, warm Source, err error) {
	sess, err := tvsched.NewSession(cfg)
	if err != nil {
		return tvsched.Result{}, Cold, None, err
	}
	if snaps != nil {
		key := sess.WarmKey()
		data, prov, err := snaps.Do(ctx, key, nil, func(ctx context.Context) ([]byte, Source, error) {
			return warmState(ctx, cfg, key, st)
		})
		switch {
		case err == nil:
			if err := sess.Restore(&tvsched.Snapshot{Key: key, Data: data}); err == nil {
				res, err := sess.Run(ctx, tvsched.RunOpts{})
				return res, Restored, prov.Src, err
			}
			// A failed restore may leave the machine half-loaded; rebuild it
			// for the cold path.
			if sess, err = tvsched.NewSession(cfg); err != nil {
				return tvsched.Result{}, Cold, None, err
			}
		case isCtxErr(err):
			return tvsched.Result{}, Cold, None, err
		}
	}
	if err := sess.WarmupNeutral(ctx); err != nil {
		return tvsched.Result{}, Cold, None, err
	}
	res, err = sess.Run(ctx, tvsched.RunOpts{})
	return res, Cold, None, err
}

// warmState is a snapshot lead: the warm state of key from st, or else a
// donor's, written back to st.
func warmState(ctx context.Context, cfg tvsched.Config, key string, st *store.Store) ([]byte, Source, error) {
	if st != nil {
		if b, ok, _ := st.Get(WarmStatePrefix + key); ok {
			return b, Store, nil
		}
	}
	b, err := donate(ctx, cfg)
	if err == nil && st != nil {
		_ = st.Put(WarmStatePrefix+key, b)
	}
	return b, Cold, err
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
