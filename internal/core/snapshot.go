package core

import (
	"fmt"

	"tvsched/internal/snap"
)

// AppendState serializes the FUSR's lane reservations. Lane kinds are
// configuration (rebuilt by the restoring side) and only sanity-checked.
func (f *FUSR) AppendState(w *snap.Writer) {
	w.U32(uint32(len(f.lanes)))
	for i := range f.lanes {
		w.U8(uint8(f.lanes[i].Kind))
		w.U64(f.lanes[i].nextFree)
	}
}

// StateLen returns the length of the bytes AppendState writes.
func (f *FUSR) StateLen() int { return 4 + len(f.lanes)*(1+8) }

// ReadState restores lane reservations written by AppendState; a mismatched
// lane count or kind layout is rejected.
func (f *FUSR) ReadState(r *snap.Reader) error {
	if got := int(r.U32()); got != len(f.lanes) {
		return fmt.Errorf("%w: %d lanes, have %d", snap.ErrCorrupt, got, len(f.lanes))
	}
	for i := range f.lanes {
		if k := FUKind(r.U8()); k != f.lanes[i].Kind {
			return fmt.Errorf("%w: lane %d kind %v, have %v", snap.ErrCorrupt, i, k, f.lanes[i].Kind)
		}
		f.lanes[i].nextFree = r.U64()
	}
	return r.Err()
}
