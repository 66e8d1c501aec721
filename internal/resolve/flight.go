// Package resolve is the one result-resolution mechanism behind tvservd
// (internal/serve) and tvplan (internal/campaign.LocalRunner): a keyed
// singleflight with an optional memo, the function that simulates one cell
// through a shared warm-state snapshot, and the provenance vocabulary that
// names how every result was obtained. Each caller configures these pieces
// and wraps its own concerns (admission, metrics, cluster, store) around
// them; none keeps a singleflight or session-restore path of its own.
package resolve

import (
	"context"
	"errors"
	"sync"
	"time"

	"tvsched/internal/lru"
)

// Lead produces the bytes for one key and names where they came from.
type Lead func(ctx context.Context) ([]byte, Source, error)

// Flight collapses concurrent resolutions of one key — a config digest or a
// WarmKey — onto a single lead, and optionally memoizes what leads produce.
// The zero Flight is ready: no memo, leads run inline.
type Flight struct {
	// Memo, when non-nil, answers keys a lead already produced and keeps
	// every successful lead's bytes, so a hit is byte-identical to the lead
	// that filled it. The flight reads and fills it under its own lock,
	// which makes "memo miss, register lead" one atomic step: two racing
	// misses on one key resolve to one lead, never two.
	Memo *lru.LRU[string, []byte]
	// Detach runs each lead on its own goroutine, detached from the leading
	// caller's cancellation, and every caller — the leader included — waits
	// under its own context. Otherwise the leader runs the lead inline,
	// under its own context.
	Detach bool
	// OnLead, when non-nil, observes each finished lead's duration under
	// the context the lead ran with.
	OnLead func(ctx context.Context, d time.Duration)

	mu    sync.Mutex
	calls map[string]*call
}

// call is one lead in flight. The leader fills the result fields and closes
// done; waiters read them afterwards.
type call struct {
	done chan struct{}
	body []byte
	src  Source
	err  error
}

// Do resolves key: a memo hit, a join of the lead already in flight, or a
// new lead running lead. The Provenance says which: Src Memory for a memo
// hit, Shared with the lead's Src for a join, the lead's Src for a leader.
//
// decide, when non-nil, runs under the flight's lock once the caller's
// standing is known — joining (shared) or about to lead — so a lead can be
// admitted atomically with its registration; it must be brief and must not
// call back into the flight. An error from it refuses the caller: nothing
// registers and Do returns that error.
//
// A caller whose own context ends while it waits gets ctx.Err(). A failed
// lead's error reaches every waiter and is never memoized. A waiter re-leads
// instead only when the failed lead ran inline under another caller's
// context and died of that context while the waiter's own is live: the
// failure said nothing about the work. A detached lead runs under no
// caller's context, so its failure is final for every waiter.
func (f *Flight) Do(ctx context.Context, key string, decide func(shared bool) error, lead Lead) ([]byte, Provenance, error) {
	for {
		f.mu.Lock()
		if f.Memo != nil {
			if b, ok := f.Memo.Get(key); ok {
				f.mu.Unlock()
				return b, Provenance{Src: Memory}, nil
			}
		}
		c, shared := f.calls[key]
		if decide != nil {
			if err := decide(shared); err != nil {
				f.mu.Unlock()
				return nil, Provenance{Shared: shared}, err
			}
		}
		if !shared {
			c = &call{done: make(chan struct{})}
			if f.calls == nil {
				f.calls = make(map[string]*call)
			}
			f.calls[key] = c
		}
		f.mu.Unlock()

		if !shared {
			if !f.Detach {
				f.lead(ctx, key, c, lead)
				return c.body, Provenance{Src: c.src}, c.err
			}
			go f.lead(context.WithoutCancel(ctx), key, c, lead)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, Provenance{Shared: shared}, ctx.Err()
		}
		if shared && !f.Detach && isCtxErr(c.err) && ctx.Err() == nil {
			continue // the leader's context died, not ours: re-lead
		}
		return c.body, Provenance{Src: c.src, Shared: shared}, c.err
	}
}

// lead runs one registered call to completion, memoizes a success, and
// releases the call's waiters.
func (f *Flight) lead(ctx context.Context, key string, c *call, lead Lead) {
	start := time.Now()
	c.body, c.src, c.err = lead(ctx)
	if f.OnLead != nil {
		f.OnLead(ctx, time.Since(start))
	}
	f.mu.Lock()
	if c.err == nil && f.Memo != nil {
		f.Memo.Put(key, c.body)
	}
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
}

// isCtxErr reports whether err is a context cancellation or deadline — an
// error bound to one caller's lifetime, not to the work itself.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
