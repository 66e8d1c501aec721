package fault

import (
	"errors"

	"tvsched/internal/rng"
	"tvsched/internal/snap"
)

// ErrHazardSnapshot is returned when snapshotting an environment with a
// hazard timeline attached: timelines are arbitrary interfaces and cannot be
// serialized, and warm checkpoints are only taken in stationary conditions
// anyway (DESIGN.md §13).
var ErrHazardSnapshot = errors.New("fault: cannot snapshot an environment with a hazard attached")

// AppendState serializes the environment's dynamic state: thermal transient,
// RNG stream and cycle count. The supply voltage is included for the reader
// to overwrite via SetVDD — restore deliberately rebinds the checkpoint to
// the restoring machine's target voltage, which is what lets one warm
// snapshot serve every (scheme, VDD) sweep cell.
func (e *Env) AppendState(w *snap.Writer) error {
	if e.hazard != nil {
		return ErrHazardSnapshot
	}
	w.F64(e.vdd)
	w.F64(e.Thermal())
	w.F64(e.phase)
	w.F64(e.walk)
	w.U64(e.cycle)
	e.src.AppendState(w)
	return nil
}

// StateLen returns the length of the bytes AppendState writes.
func (e *Env) StateLen() int { return 5*8 + e.src.StateLen() }

// ReadState restores state written by AppendState. The receiver's hazard
// must be nil (mirroring the writer-side refusal); the perturbation resets
// to neutral and the voltage-derived scale is recomputed from the restored
// vdd — callers retarget with SetVDD afterwards.
func (e *Env) ReadState(r *snap.Reader) error {
	if e.hazard != nil {
		return ErrHazardSnapshot
	}
	e.vdd = r.F64()
	e.thermal = r.F64()
	e.phase = r.F64()
	e.walk = r.F64()
	e.cycle = r.U64()
	e.walked = e.cycle
	if e.src == nil {
		e.src = &rng.Source{}
	}
	if err := e.src.ReadState(r); err != nil {
		return err
	}
	e.vScale = DelayScale(e.vdd)
	e.pert = Neutral()
	return r.Err()
}
