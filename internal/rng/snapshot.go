package rng

import "tvsched/internal/snap"

// AppendState serializes the source's full state — including the cached
// Box-Muller spare, without which a restored stream would diverge from the
// original on the next Norm call.
func (s *Source) AppendState(w *snap.Writer) {
	w.U64(s.state)
	w.F64(s.spare)
	w.Bool(s.hasSpare)
}

// StateLen returns the length of the bytes AppendState writes.
func (s *Source) StateLen() int { return 8 + 8 + 1 }

// ReadState restores state written by AppendState.
func (s *Source) ReadState(r *snap.Reader) error {
	s.state = r.U64()
	s.spare = r.F64()
	s.hasSpare = r.Bool()
	return r.Err()
}
