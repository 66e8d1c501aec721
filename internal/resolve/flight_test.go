package resolve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tvsched/internal/lru"
)

// blockingLead returns a lead that counts its runs, signals started, and
// then either waits for gate or dies of its own context.
func blockingLead(runs *atomic.Int64, started chan<- struct{}, gate <-chan struct{}) Lead {
	return func(ctx context.Context) ([]byte, Source, error) {
		runs.Add(1)
		started <- struct{}{}
		select {
		case <-gate:
			return []byte("v"), Cold, nil
		case <-ctx.Done():
			return nil, Cold, ctx.Err()
		}
	}
}

// joinNotice is a decide hook that reports each join on joined.
func joinNotice(joined chan<- struct{}) func(bool) error {
	return func(shared bool) error {
		if shared {
			joined <- struct{}{}
		}
		return nil
	}
}

// TestFlightReportsHow holds one lead in flight while callers join it, then
// checks every caller's provenance: the leader reports the lead's source,
// joiners report it shared, and a caller after the lead hits the memo.
func TestFlightReportsHow(t *testing.T) {
	f := &Flight{Memo: lru.New[string, []byte](4)}
	var runs atomic.Int64
	started, gate := make(chan struct{}, 1), make(chan struct{})
	lead := blockingLead(&runs, started, gate)
	type got struct {
		b    []byte
		prov Provenance
		err  error
	}
	const joiners = 8
	results := make(chan got, joiners+1)
	go func() {
		b, p, err := f.Do(context.Background(), "k", nil, lead)
		results <- got{b, p, err}
	}()
	<-started
	joined := make(chan struct{}, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			b, p, err := f.Do(context.Background(), "k", joinNotice(joined), lead)
			results <- got{b, p, err}
		}()
	}
	for i := 0; i < joiners; i++ {
		<-joined
	}
	close(gate)
	led, shared := 0, 0
	for i := 0; i < joiners+1; i++ {
		r := <-results
		switch {
		case r.err != nil || string(r.b) != "v":
			t.Fatalf("caller got %q, %v", r.b, r.err)
		case r.prov == Provenance{Src: Cold}:
			led++
		case r.prov == Provenance{Src: Cold, Shared: true}:
			shared++
		default:
			t.Fatalf("unexpected provenance %+v", r.prov)
		}
	}
	if led != 1 || shared != joiners || runs.Load() != 1 {
		t.Fatalf("led %d shared %d runs %d, want 1, %d, 1", led, shared, runs.Load(), joiners)
	}
	if b, p, err := f.Do(context.Background(), "k", nil, lead); err != nil || string(b) != "v" || p != (Provenance{Src: Memory}) {
		t.Fatalf("after the lead: %q %+v %v, want a memo hit", b, p, err)
	}
}

// TestFlightReleadsAfterLeaderContextDies pins the re-lead rule on an inline
// flight: a leader that dies of its own context hands its waiters no error;
// a waiter whose context is live leads the work itself.
func TestFlightReleadsAfterLeaderContextDies(t *testing.T) {
	f := &Flight{Memo: lru.New[string, []byte](4)}
	var runs atomic.Int64
	started, gate := make(chan struct{}, 2), make(chan struct{})
	close(gate) // only the first lead blocks: on its context
	lead := blockingLead(&runs, started, nil)
	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := f.Do(leaderCtx, "k", nil, lead)
		leaderErr <- err
	}()
	<-started
	joined := make(chan struct{}, 1)
	follower := make(chan error, 1)
	var fb []byte
	var fp Provenance
	go func() {
		var err error
		fb, fp, err = f.Do(context.Background(), "k", joinNotice(joined), blockingLead(&runs, started, gate))
		follower <- err
	}()
	<-joined
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	if err := <-follower; err != nil {
		t.Fatalf("follower inherited the leader's death: %v", err)
	}
	if string(fb) != "v" || fp != (Provenance{Src: Cold}) || runs.Load() != 2 {
		t.Fatalf("follower got %q %+v after %d leads, want its own lead of v (2 leads)", fb, fp, runs.Load())
	}
	if b, ok := f.Memo.Get("k"); !ok || string(b) != "v" {
		t.Fatal("the re-led production was not memoized")
	}
}

// TestFlightDetachedFailureIsFinal: a detached lead runs under no caller's
// context, so even a context error it dies of — a server shutting down —
// reaches every waiter instead of starting a re-lead loop. A caller that
// gives up stops waiting without stopping the lead.
func TestFlightDetachedFailureIsFinal(t *testing.T) {
	f := &Flight{Memo: lru.New[string, []byte](4), Detach: true}
	var runs atomic.Int64
	started, gate := make(chan struct{}, 1), make(chan struct{})
	stop, cancelStop := context.WithCancel(context.Background())
	lead := func(ctx context.Context) ([]byte, Source, error) {
		runs.Add(1)
		started <- struct{}{}
		<-gate
		return nil, Cold, stop.Err()
	}
	leaver, leave := context.WithCancel(context.Background())
	leaverErr := make(chan error, 1)
	go func() {
		_, _, err := f.Do(leaver, "k", nil, lead)
		leaverErr <- err
	}()
	<-started
	joined := make(chan struct{}, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.Do(context.Background(), "k", joinNotice(joined), lead)
		}(i)
	}
	<-joined
	<-joined
	leave()
	if err := <-leaverErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader caller that gave up got %v, want its own context.Canceled", err)
	}
	cancelStop()
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d got %v, want the lead's context.Canceled", i, err)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("%d leads, want 1: a detached failure must not be re-led", runs.Load())
	}
}

// TestFlightFailureNotMemoized: a failed lead leaves nothing behind, so the
// next caller leads again and its success is memoized.
func TestFlightFailureNotMemoized(t *testing.T) {
	f := &Flight{Memo: lru.New[string, []byte](4)}
	boom := errors.New("boom")
	var runs atomic.Int64
	lead := func(ctx context.Context) ([]byte, Source, error) {
		if runs.Add(1) == 1 {
			return nil, Cold, boom
		}
		return []byte("v"), Restored, nil
	}
	if _, _, err := f.Do(context.Background(), "k", nil, lead); !errors.Is(err, boom) {
		t.Fatalf("first lead error %v, want boom", err)
	}
	if f.Memo.Len() != 0 {
		t.Fatal("a failure was memoized")
	}
	b, p, err := f.Do(context.Background(), "k", nil, lead)
	if err != nil || string(b) != "v" || p != (Provenance{Src: Restored}) || runs.Load() != 2 {
		t.Fatalf("second lead: %q %+v %v after %d runs", b, p, err, runs.Load())
	}
	if _, ok := f.Memo.Get("k"); !ok {
		t.Fatal("the successful lead was not memoized")
	}
}

// TestFlightDecideRefuses: a refused caller registers nothing and runs no
// lead, so the next caller leads.
func TestFlightDecideRefuses(t *testing.T) {
	f := &Flight{Detach: true}
	busy := errors.New("busy")
	var runs atomic.Int64
	lead := func(ctx context.Context) ([]byte, Source, error) {
		runs.Add(1)
		return []byte("v"), Cold, nil
	}
	refuse := func(shared bool) error { return busy }
	if _, p, err := f.Do(context.Background(), "k", refuse, lead); !errors.Is(err, busy) || p.Shared {
		t.Fatalf("refused caller: %+v %v", p, err)
	}
	if runs.Load() != 0 {
		t.Fatal("a refused caller ran the lead")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if b, p, err := f.Do(ctx, "k", nil, lead); err != nil || string(b) != "v" || p.Shared {
		t.Fatalf("caller after the refusal: %q %+v %v, want its own lead", b, p, err)
	}
}
