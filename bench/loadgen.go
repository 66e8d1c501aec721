package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tvsched/internal/serve"
)

// exchange is one HTTP request. The loop's times are offsets from its start.
type exchange struct {
	sent, done time.Duration
	// latency runs from when the request was due, not when it was sent: a
	// stalled request also charges every request queued behind it.
	latency time.Duration
	// late is how far behind schedule the generator handed it to a
	// connection.
	late time.Duration
	lane int

	cache, source, digest, reqID string
	body                         []byte
	err                          error
}

// post sends one /v1/run request and reads the whole answer.
func post(ctx context.Context, client *http.Client, url string, body []byte) exchange {
	var ex exchange
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		ex.err = err
		return ex
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		ex.err = err
		return ex
	}
	defer resp.Body.Close()
	ex.body, err = io.ReadAll(resp.Body)
	h := resp.Header
	ex.cache, ex.source = h.Get("X-Tvsched-Cache"), h.Get(serve.SourceHeader)
	ex.digest, ex.reqID = h.Get("X-Tvsched-Digest"), h.Get("X-Request-Id")
	switch {
	case err != nil:
		ex.err = err
	case resp.StatusCode != http.StatusOK:
		ex.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(ex.body))
	}
	return ex
}

// openLoop sends bodies[i] at start+due[i] whatever the server is doing,
// over conns connections. A dispatcher releases each request on schedule
// into a queue the connections drain in order; a request waits there while
// every connection is busy, and that wait counts in its latency.
func openLoop(ctx context.Context, client *http.Client, url string, start time.Time, due []time.Duration, bodies [][]byte) []exchange {
	exs := make([]exchange, len(due))
	// Sized to every arrival, so the dispatcher never blocks on a busy
	// connection and its lateness is its own.
	queue := make(chan int, len(due))
	go func() {
		defer close(queue)
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		defer timer.Stop()
		for i, d := range due {
			if wait := time.Until(start.Add(d)); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					for j := i; j < len(due); j++ {
						exs[j].err = ctx.Err()
					}
					return
				}
			}
			exs[i].late = time.Since(start) - d
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for lane := 0; lane < conns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range queue {
				sent := time.Since(start)
				ex := post(ctx, client, url, bodies[i])
				ex.done = time.Since(start)
				ex.sent, ex.lane, ex.late = sent, lane, exs[i].late
				ex.latency = ex.done - due[i]
				exs[i] = ex
			}
		}(lane)
	}
	wg.Wait()
	return exs
}
