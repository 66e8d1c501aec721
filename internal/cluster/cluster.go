// Package cluster is the fleet layer under cmd/tvservd: a static peer list,
// rendezvous (highest-random-weight) hashing that assigns every config
// digest one owning node, and a small HTTP client for the three peer
// operations the serving layer needs — read-through fetch of a cached
// result, forwarding a run to its owner, and health probes.
//
// Rendezvous hashing was chosen over a token ring because the peer lists
// here are small and static: every node scores each (node, digest) pair
// with an independent hash and the highest score owns the digest. All nodes
// holding the same peer list agree on every owner with no coordination, and
// removing a node remaps only the digests it owned — the property that
// keeps a deploy from stampeding the whole keyspace.
//
// The routing protocol is one hop by construction: a node that accepts a
// request it does not own forwards it to the owner with the ForwardHeader
// set, and a forwarded request is always computed locally, even if the
// receiving node's (possibly skewed) peer list disagrees about ownership.
// Two nodes with inconsistent peer lists can therefore each compute a
// digest — wasteful, never wrong, and the divergence sweep would surface
// any disagreement in the bytes.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// ForwardHeader marks a /v1/run request as already routed: the value is the
// forwarding node's ID, and the receiving node must compute locally instead
// of routing again (the loop-prevention rule).
const ForwardHeader = "X-Tvsched-Forwarded"

// Peer is one cluster member: a stable ID (the hashing identity — renaming
// a node remaps its keys) and the base URL its tvservd listens on.
type Peer struct {
	ID  string
	URL string
}

// ParsePeers parses the -peers flag form: comma-separated id=url pairs,
// e.g. "b=http://10.0.0.2:8844,c=http://10.0.0.3:8844".
func ParsePeers(s string) ([]Peer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q, want id=url", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, URL: strings.TrimRight(url, "/")})
	}
	return peers, nil
}

// Ring assigns digests to nodes by rendezvous hashing over self + peers.
// It is immutable after New — swap the whole Ring to change membership.
type Ring struct {
	self  string
	peers []Peer
}

// NewRing builds the ring for a node and its peers. The self ID must not
// collide with a peer ID.
func NewRing(self string, peers []Peer) (*Ring, error) {
	if self == "" {
		return nil, errors.New("cluster: empty node id")
	}
	ps := make([]Peer, len(peers))
	copy(ps, peers)
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
	for _, p := range ps {
		if p.ID == self {
			return nil, fmt.Errorf("cluster: peer id %q collides with this node's id", self)
		}
	}
	return &Ring{self: self, peers: ps}, nil
}

// Peers returns the ring's peer list (sorted by ID, self excluded).
func (r *Ring) Peers() []Peer { return r.peers }

// score is the rendezvous weight of one (node, digest) pair: FNV-64a over
// the node ID, a separator that cannot appear in IDs parsed from id=url
// pairs, and the digest.
func score(node, digest string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, node)
	h.Write([]byte{0})
	io.WriteString(h, digest)
	return h.Sum64()
}

// Owner returns the node owning digest and whether that node is self.
// Ties (astronomically unlikely with 64-bit scores) break toward the
// lexically greatest ID so every node still agrees.
func (r *Ring) Owner(digest string) (Peer, bool) {
	best := Peer{ID: r.self}
	bestScore := score(r.self, digest)
	for _, p := range r.peers {
		s := score(p.ID, digest)
		if s > bestScore || (s == bestScore && p.ID > best.ID) {
			best, bestScore = p, s
		}
	}
	return best, best.ID == r.self
}

// FaultClass partitions peer-call failures by where in the exchange they
// happened — the property retry policy keys on. A connect-class fault means
// the request may never have reached the peer, so retrying costs only the
// wire. A status fault means the peer answered (headers arrived, no useful
// body); retrying is safe for 5xx because the peer declined rather than
// processed. A body fault means the exchange died mid-stream after a good
// status: for a non-idempotent-cost call like Forward, the peer has already
// done the work, and the cheaper recovery is computing locally.
type FaultClass int

const (
	// FaultConnect is a transport-level failure before any response: dial
	// refused, DNS, TLS, timeout waiting for headers.
	FaultConnect FaultClass = iota
	// FaultStatus is a non-2xx response whose status arrived intact.
	FaultStatus
	// FaultBody is an error reading the response body after a good status.
	FaultBody
)

var faultNames = [...]string{"connect", "status", "body"}

// String names the class.
func (f FaultClass) String() string {
	if f < 0 || int(f) >= len(faultNames) {
		return "unknown"
	}
	return faultNames[f]
}

// PeerError is every error the Client returns for a reachable-protocol
// failure, carrying the fault class, the peer, the operation, and — for
// FaultStatus — the HTTP status. It unwraps to the underlying transport
// error so sentinel checks (context.DeadlineExceeded, chaos.ErrRefused)
// still work through it.
type PeerError struct {
	Class  FaultClass
	Peer   string // peer ID
	Op     string // "fetch", "forward", "health", "push"
	Status int    // HTTP status for FaultStatus, else 0
	Detail string // trimmed response body for FaultStatus, may be empty
	Err    error  // underlying error for FaultConnect/FaultBody, else nil
}

// Error renders the failure with its class, so logs show at a glance
// whether the peer was unreachable, declining, or cut off mid-answer.
func (e *PeerError) Error() string {
	switch e.Class {
	case FaultStatus:
		if e.Detail != "" {
			return fmt.Sprintf("cluster: %s %s: status %d: %s", e.Op, e.Peer, e.Status, e.Detail)
		}
		return fmt.Sprintf("cluster: %s %s: status %d", e.Op, e.Peer, e.Status)
	default:
		return fmt.Sprintf("cluster: %s %s: %s fault: %v", e.Op, e.Peer, e.Class, e.Err)
	}
}

// Unwrap exposes the underlying transport error.
func (e *PeerError) Unwrap() error { return e.Err }

// Retryable reports whether any peer error is worth retrying at all: every
// class except a mid-body cut, where the peer already did the work. Fetch,
// Health and Push use this directly.
func Retryable(err error) bool {
	var pe *PeerError
	if !errors.As(err, &pe) {
		return false
	}
	return pe.Class != FaultBody
}

// ForwardRetryable is the stricter rule for Forward, the one call that makes
// the peer simulate: retry only when the peer provably did not accept the
// work — a connect-class fault, or a 5xx that arrived before any result body
// (overload shedding, chaos bursts). A 4xx is deterministic and a body cut
// means the run completed; both retries would be wasted simulation.
func ForwardRetryable(err error) bool {
	var pe *PeerError
	if !errors.As(err, &pe) {
		return false
	}
	switch pe.Class {
	case FaultConnect:
		return true
	case FaultStatus:
		return pe.Status >= 500
	default:
		return false
	}
}

// sharedTransport pools peer connections process-wide: every Client reuses
// it, so repeated peer calls ride warm keep-alive connections, and the dial
// and TLS-handshake timeouts bound how long a black-holed peer can hang a
// call even when the caller forgot a context deadline.
var sharedTransport = &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	TLSHandshakeTimeout:   5 * time.Second,
	MaxIdleConns:          64,
	MaxIdleConnsPerHost:   16,
	IdleConnTimeout:       90 * time.Second,
	ExpectContinueTimeout: 1 * time.Second,
}

// Client speaks the peer protocol. The zero value is not usable; use
// NewClient.
type Client struct {
	self string
	http *http.Client
}

// NewClient builds a peer client identifying as self, on the shared pooled
// transport. The http.Client's timeout is left zero — every call takes a
// context, and the serving layer bounds each operation with its own
// deadline.
func NewClient(self string) *Client {
	return NewClientWith(self, nil)
}

// NewClientWith is NewClient with an interposed RoundTripper — the seam the
// chaos transport installs through. A nil rt means the shared transport.
func NewClientWith(self string, rt http.RoundTripper) *Client {
	if rt == nil {
		rt = sharedTransport
	}
	return &Client{self: self, http: &http.Client{Transport: rt}}
}

// Fetch asks peer for its locally cached bytes of digest (GET
// /v1/result/{digest}). A 404 is a clean miss, not an error; the peer never
// computes or forwards on this path.
func (c *Client) Fetch(ctx context.Context, peer Peer, digest string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer.URL+"/v1/result/"+digest, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, &PeerError{Class: FaultConnect, Peer: peer.ID, Op: "fetch", Err: err}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, &PeerError{Class: FaultBody, Peer: peer.ID, Op: "fetch", Err: err}
		}
		return body, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, false, &PeerError{Class: FaultStatus, Peer: peer.ID, Op: "fetch", Status: resp.StatusCode}
	}
}

// Forward posts a run request to its owner (POST /v1/run with ForwardHeader
// set) and returns the response bytes plus the owner's response headers (the
// caller reads X-Tvsched-Digest to verify both nodes normalized the request
// identically, and X-Tvsched-Cache for provenance). Any non-200 answer is an
// error — the caller falls back to computing locally.
func (c *Client) Forward(ctx context.Context, peer Peer, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer.URL+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, &PeerError{Class: FaultConnect, Peer: peer.ID, Op: "forward", Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read the error detail best-effort: the status already arrived, so
		// the class is FaultStatus even if the detail body is cut short.
		detail, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, nil, &PeerError{Class: FaultStatus, Peer: peer.ID, Op: "forward",
			Status: resp.StatusCode, Detail: strings.TrimSpace(string(detail))}
	}
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, &PeerError{Class: FaultBody, Peer: peer.ID, Op: "forward", Err: err}
	}
	return respBody, resp.Header, nil
}

// Health probes peer's liveness endpoint.
func (c *Client) Health(ctx context.Context, peer Peer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return &PeerError{Class: FaultConnect, Peer: peer.ID, Op: "health", Err: err}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &PeerError{Class: FaultStatus, Peer: peer.ID, Op: "health", Status: resp.StatusCode}
	}
	return nil
}

// Push replicates locally held result bytes of digest to peer (PUT
// /v1/result/{digest}) — the repair half of the protocol, used to hand an
// owner the result a non-owner computed in degraded mode, and to overwrite
// a diverged replica after anti-entropy re-simulation. The digest names the
// config, not the body, so the receiver cannot check the bytes against it —
// pushes are trusted cluster-internal traffic (it does validate the digest's
// shape and reject empty bodies); anti-entropy is the backstop for bad ones.
func (c *Client) Push(ctx context.Context, peer Peer, digest string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer.URL+"/v1/result/"+digest, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.http.Do(req)
	if err != nil {
		return &PeerError{Class: FaultConnect, Peer: peer.ID, Op: "push", Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		detail, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &PeerError{Class: FaultStatus, Peer: peer.ID, Op: "push",
			Status: resp.StatusCode, Detail: strings.TrimSpace(string(detail))}
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
