// Package fault implements the timing-violation model of §4.3. The paper
// embeds gate-delay information from a SPICE-characterized statistical timing
// tool into the architectural simulation; we reproduce the same decision
// structure analytically:
//
//   - Every static instruction sensitizes, per pipe stage, a particular set
//     of logic paths. The 95%-confidence stage delay (µ+2σ over process
//     variation) for that PC/stage pair is a stable property of the
//     instruction — this is the path-sensitization locality of §S1 that makes
//     PC-indexed prediction work. We derive a per-(PC,stage) "margin": the
//     ratio of that delay to the cycle time at the nominal 1.10 V supply.
//   - Supply voltage scales all delays by the alpha-power law
//     D(V) ∝ V/(V−Vth)^α. The baseline is fault-free at 1.10 V; at 1.04 V
//     a small tail of instructions' sensitized paths exceed the cycle time
//     (the paper's "low fault rate" environment), and at 0.97 V a larger
//     tail does ("high fault rate").
//   - A violation occurs when margin × voltageScale × thermal × (1+jitter)
//     exceeds 1.0, i.e. when µ+2σ of the sensitized delay exceeds Tclk.
//     The per-instance jitter models operand-dependent variation in the
//     sensitized path (the ~10% of gates outside the common core φ measured
//     in §S1), so borderline PCs violate on most-but-not-all instances and
//     the TEP sees occasional mispredictions.
//
// Violations are concentrated in the CAM-heavy issue wakeup/select and
// memory (LSQ search) stages, per §3.3.1/§3.3.4 and Sartori & Kumar [16].
package fault

import (
	"math"

	"tvsched/internal/isa"
	"tvsched/internal/rng"
)

// Supply voltages of the paper's three environments (§4.3).
const (
	VNominal   = 1.10 // fault-free baseline
	VLowFault  = 1.04 // "low fault rate" environment
	VHighFault = 0.97 // "high fault rate" environment
)

// Alpha-power-law parameters (Sakurai–Newton), 45nm-class.
const (
	vth   = 0.35
	alpha = 1.3
)

// DelayScale returns the gate-delay multiplier of supply voltage v relative
// to the nominal 1.10 V supply: D(v)/D(1.10).
func DelayScale(v float64) float64 {
	d := func(v float64) float64 { return v / math.Pow(v-vth, alpha) }
	return d(v) / d(VNominal)
}

// Config parameterizes the fault model.
type Config struct {
	// Seed drives all deterministic derivations.
	Seed uint64
	// TailFraction is the fraction of (PC, stage) pairs — for the most
	// fault-prone stage — whose sensitized paths fall in the near-critical
	// tail. Per-benchmark susceptibility multiplies this (Bias).
	TailFraction float64
	// Bias is the per-benchmark susceptibility multiplier (≈1.0–2.0);
	// benchmarks with high inherent ILP exercise deeper CAM matches and show
	// higher fault rates (paper §5.1, sjeng vs libquantum).
	Bias float64
	// Jitter is the 1σ per-dynamic-instance multiplicative delay variation
	// modeling operand-dependent path differences. Around 0.5–1% reproduces
	// the ~87–92% common-path fraction of §S1.
	Jitter float64
}

// DefaultConfig returns the calibration used for the paper reproduction.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, TailFraction: 0.055, Bias: 1.0, Jitter: 0.002}
}

// Margin tail shape: near-critical margins are uniform in [tailLo, tailHi]
// at nominal voltage. With DelayScale(1.04)≈1.054 and DelayScale(0.97)≈1.13,
// thresholds are 1/1.054≈0.949 and 1/1.13≈0.885: the sub-ranges determine
// the two environments' fault rates. tailHi stays below 1.0 so the 1.10 V
// baseline is exactly fault-free.
const (
	tailLo = 0.860
	tailHi = 0.968
)

// stageWeight is the share of near-critical sensitized paths per pipe stage.
// Nearly all violations land in issue wakeup/select; the LSQ CAM in the
// memory stage takes most of the rest (§3.3).
func stageWeight(s isa.Stage) float64 {
	switch s {
	case isa.Issue:
		return 1.00
	case isa.Memory:
		return 0.055
	case isa.RegRead:
		return 0.012
	case isa.Execute:
		return 0.018
	case isa.Writeback:
		return 0.008
	case isa.Rename, isa.Dispatch, isa.Retire:
		return 0.003 // in-order engine: rare (§2.2)
	case isa.Fetch, isa.Decode:
		return 0.001 // thermally stable, violations very rare [17]
	default:
		return 0
	}
}

// Hash salts of the per-(PC,stage) draws.
const (
	saltTail     = iota // tail membership
	saltSeverity        // position within the tail
	saltComfort         // position within the comfortable band
	numSalts
)

// StageMask is a set of pipe stages, bit s for isa.Stage s.
type StageMask uint16

// AllStages holds every pipe stage.
const AllStages StageMask = 1<<isa.NumStages - 1

// Model derives per-(PC,stage) margins and evaluates violations. It is
// read-only once built, so one model may serve concurrent pipelines.
type Model struct {
	cfg Config
	// key[salt][stage] is Seed ^ Mix(stage + 0x1000·salt), the part of every
	// per-(PC,stage) hash that does not depend on the PC.
	key [numSalts][isa.NumStages]uint64
	// pTail[stage] is the unperturbed tail-membership probability,
	// TailFraction·Bias·stageWeight(stage).
	pTail [isa.NumStages]float64
	// masks[i], when built by NewWithTable, is the tail mask at TailScale 1
	// of the instruction at base+4i.
	base  uint64
	masks []StageMask
}

// New builds a fault model.
func New(cfg Config) *Model {
	m := &Model{cfg: cfg}
	for s := isa.Stage(0); s < isa.NumStages; s++ {
		for salt := range m.key {
			m.key[salt][s] = cfg.Seed ^ rng.Mix(uint64(s)+0x1000*uint64(salt))
		}
		m.pTail[s] = cfg.TailFraction * cfg.Bias * stageWeight(s)
	}
	return m
}

// NewWithTable builds a fault model that also tabulates the unperturbed
// tail mask of the n instructions at base, base+4, …: a static program's
// code, whose Stages queries then read the table instead of hashing.
func NewWithTable(cfg Config, base uint64, n int) *Model {
	m := New(cfg)
	m.base = base
	m.masks = make([]StageMask, n)
	for i := range m.masks {
		m.masks[i] = m.tailMask(rng.Mix(base+4*uint64(i)), 1)
	}
	return m
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// hash01 returns a stable uniform value in [0,1) for (pc, stage, salt), given
// mpc = rng.Mix(pc).
func (m *Model) hash01(mpc uint64, stage isa.Stage, salt int) float64 {
	h := rng.Mix(mpc ^ m.key[salt][stage])
	return float64(h>>11) / (1 << 53)
}

// Margin returns the (µ+2σ)/Tclk ratio of the paths instruction pc
// sensitizes in stage, at the nominal 1.10 V supply. Most pairs sit far from
// critical; a stage-weighted tail sits near critical.
func (m *Model) Margin(pc uint64, stage isa.Stage) float64 {
	return m.marginAt(pc, stage, 1)
}

// marginAt is Margin with the tail-membership probability scaled by
// tailScale — the violation-storm hook: a transient TailFraction inflation
// (see Env.TailScale) pulls additional PCs into the near-critical tail
// without moving the margins of PCs already there, so storms superimpose on
// (never reshuffle) the stationary fault population. tailScale == 1 is
// bit-identical to the unperturbed model.
func (m *Model) marginAt(pc uint64, stage isa.Stage, tailScale float64) float64 {
	mpc := rng.Mix(pc)
	if m.inTail(mpc, stage, tailScale) {
		return m.tailMargin(mpc, stage)
	}
	// Comfortable paths: 0.45–0.80 of the cycle.
	return 0.45 + 0.35*m.hash01(mpc, stage, saltComfort)
}

// inTail reports whether (pc, stage) is near-critical under tailScale.
func (m *Model) inTail(mpc uint64, stage isa.Stage, tailScale float64) bool {
	return m.hash01(mpc, stage, saltTail) < m.pTail[stage]*tailScale
}

// tailMask is the set of stages in which pc (mpc = rng.Mix(pc)) is
// near-critical under tailScale.
func (m *Model) tailMask(mpc uint64, tailScale float64) StageMask {
	var mask StageMask
	for s := isa.Stage(0); s < isa.NumStages; s++ {
		if m.inTail(mpc, s, tailScale) {
			mask |= 1 << s
		}
	}
	return mask
}

// Stages returns the stages in which instruction pc is near-critical under
// tailScale: the only stages in which Violates can report a violation. It
// reads the table when the model has one covering pc and tailScale is 1 —
// the table holds exactly what the hash gives there — and hashes otherwise.
func (m *Model) Stages(pc uint64, tailScale float64) StageMask {
	if i := (pc - m.base) / 4; tailScale == 1 && i < uint64(len(m.masks)) && pc&3 == m.base&3 {
		return m.masks[i]
	}
	return m.tailMask(rng.Mix(pc), tailScale)
}

// tailMargin is the margin of a near-critical pair: its position within
// [tailLo, tailHi] comes from an independent hash, so tail membership and
// severity are uncorrelated.
func (m *Model) tailMargin(mpc uint64, stage isa.Stage) float64 {
	return tailLo + m.hash01(mpc, stage, saltSeverity)*(tailHi-tailLo)
}

// Violates reports whether the dynamic instance (identified by seq) of
// instruction pc incurs a timing violation in stage under environment env.
// The decision applies the paper's µ+2σ criterion with the instance's
// operand-dependent jitter.
//
// Only near-critical pairs can violate. Comfortable margins (below 0.80) are
// far from critical by construction and never violate, hazard or not, while
// every tail margin is at least tailLo. The tail-membership draw therefore
// settles almost every call before any margin is computed.
func (m *Model) Violates(pc uint64, stage isa.Stage, env *Env, seq uint64) bool {
	mpc := rng.Mix(pc)
	if !m.inTail(mpc, stage, env.TailScale()) {
		return false
	}
	margin := m.tailMargin(mpc, stage)
	jitterU := rng.Mix(m.cfg.Seed ^ rng.Mix(pc^0xfeed) ^ rng.Mix(seq) ^ uint64(stage))
	// Cheap deterministic approximation of a Gaussian: sum of 4 uniforms,
	// clamped to ±2σ. The clamp, together with tailHi < 1, guarantees the
	// 1.10 V baseline is exactly fault-free, matching §4.3.
	g := (unif(jitterU) + unif(jitterU^0xa5a5) + unif(jitterU^0x5a5a) + unif(jitterU^0xffff) - 2) * math.Sqrt(3)
	if g > 2 {
		g = 2
	} else if g < -2 {
		g = -2
	}
	inst := 1 + m.cfg.Jitter*g
	return margin*env.DelayScale()*inst > 1.0
}

func unif(h uint64) float64 { return float64(rng.Mix(h)>>11) / (1 << 53) }

// Prone reports whether pc is fault-prone in any stage at supply v (ignoring
// jitter), and the most critical such stage. The workload and tests use this
// to reason about expected fault populations.
func (m *Model) Prone(pc uint64, v float64) (isa.Stage, bool) {
	scale := DelayScale(v)
	best, bestMargin := isa.NumStages, 0.0
	for s := isa.Fetch; s < isa.NumStages; s++ {
		if mg := m.Margin(pc, s); mg*scale > 1.0 && mg > bestMargin {
			best, bestMargin = s, mg
		}
	}
	return best, best != isa.NumStages
}

// SensorOverride is a hazard's view of the TEP's thermal/voltage sensors
// (§2.1.1). The zero value leaves the sensors healthy.
type SensorOverride uint8

const (
	// SensorAuto: sensors report truthfully (Favorable follows the supply).
	SensorAuto SensorOverride = iota
	// SensorStuckOff: the sensor is stuck reporting benign conditions, so
	// the TEP suppresses every prediction — violations silently escape to
	// replay recovery.
	SensorStuckOff
	// SensorStuckOn: the sensor is stuck reporting hazardous conditions, so
	// the TEP predicts even at the fault-free nominal supply — stale entries
	// fire as false positives.
	SensorStuckOn
)

// Perturbation is the per-cycle operating-condition delta a Hazard layers
// onto the environment. Delay and TailScale are multipliers (1 = neutral,
// must be > 0); Sensor overrides the TEP sensor gating.
type Perturbation struct {
	// Delay multiplies the combined delay scale (voltage droops, thermal
	// steps, aging drift all stretch gate delays).
	Delay float64
	// TailScale multiplies the fault model's TailFraction (violation storm:
	// additional near-critical paths appear transiently).
	TailScale float64
	// Sensor overrides the TEP sensor reading.
	Sensor SensorOverride
}

// Neutral is the identity perturbation.
func Neutral() Perturbation { return Perturbation{Delay: 1, TailScale: 1} }

// Hazard supplies the perturbation for each cycle. internal/hazard.Timeline
// is the production implementation; tests inject fixed functions. At must be
// deterministic in cycle — the environment consults it exactly once per
// Step, with a strictly increasing cycle.
type Hazard interface {
	At(cycle uint64) Perturbation
}

// HazardFunc adapts a function to the Hazard interface.
type HazardFunc func(cycle uint64) Perturbation

// At implements Hazard.
func (f HazardFunc) At(cycle uint64) Perturbation { return f(cycle) }

// ReplayScaleLimit is the delay scale beyond which Razor-style replay stops
// being a reliable recovery: re-execution happens at speed through the same
// logic, so when the combined (voltage × thermal × hazard) stretch leaves no
// margin even for the retry, the replayed computation fails again and the
// recovery loops. Predicted-violation padding is immune — it pre-allocates a
// whole extra cycle, doubling the timing window (§2.2). The limit sits well
// above anything the stationary environments produce (≤ ~1.14 at 0.97 V), so
// it only engages under injected hazards.
const ReplayScaleLimit = 1.5

// Env models the runtime operating conditions: supply voltage plus a slowly
// wandering thermal factor, and optionally a Hazard timeline layering
// transient perturbations (droops, storms, sensor faults) on top. It also
// backs the TEP's sensor gating (§2.1.1): Favorable reports whether
// conditions admit timing errors at all.
type Env struct {
	vdd    float64
	vScale float64
	// thermal is 1 + 0.002·sin(phase) + walk. Step only advances phase and
	// walk and marks thermal stale; the first read within a cycle takes the
	// sine, so cycles nobody reads the thermal factor in skip it.
	thermal      float64
	thermalStale bool
	phase        float64
	walk         float64
	src          *rng.Source

	// Hazard state: cycle counts Steps; the perturbation sampled at the
	// last Step applies until the next. All zero-cost when hazard is nil.
	hazard Hazard
	cycle  uint64
	pert   Perturbation
}

// NewEnv builds an environment at supply voltage vdd.
func NewEnv(vdd float64, seed uint64) *Env {
	return &Env{
		vdd:     vdd,
		vScale:  DelayScale(vdd),
		thermal: 1.0,
		src:     rng.New(rng.Mix(seed ^ 0x7e47)),
		pert:    Neutral(),
	}
}

// VDD returns the supply voltage.
func (e *Env) VDD() float64 { return e.vdd }

// Cycle returns the number of Steps taken so far — the clock the hazard
// timeline is evaluated against.
func (e *Env) Cycle() uint64 { return e.cycle }

// Thermal returns the current thermal delay factor (1 ± 0.4%). Exposed so
// tests can pin that voltage retargets never disturb the thermal transient.
func (e *Env) Thermal() float64 {
	if e.thermalStale {
		e.thermal = 1 + 0.002*math.Sin(e.phase) + e.walk
		e.thermalStale = false
	}
	return e.thermal
}

// SetHazard attaches (or, with nil, detaches) a hazard timeline. The next
// Step samples it; detaching restores the neutral perturbation immediately.
func (e *Env) SetHazard(h Hazard) {
	e.hazard = h
	if h == nil {
		e.pert = Neutral()
	}
}

// Step advances the thermal state; call once per simulated cycle (cheap).
// Temperature wanders on two time scales: a slow periodic component
// (package-level) and a bounded random walk (local hotspots). The excursion
// is ±0.4%, enough to modulate borderline paths without moving the fault
// population wholesale.
func (e *Env) Step() {
	e.cycle++
	e.phase += 2 * math.Pi / 200000
	if e.phase > 2*math.Pi {
		e.phase -= 2 * math.Pi
	}
	e.walk += (e.src.Float64() - 0.5) * 1e-5
	if e.walk > 0.002 {
		e.walk = 0.002
	} else if e.walk < -0.002 {
		e.walk = -0.002
	}
	e.thermalStale = true
	if e.hazard != nil {
		e.pert = e.hazard.At(e.cycle)
	}
}

// DelayScale returns the combined delay multiplier (voltage × thermal ×
// hazard) relative to nominal conditions.
func (e *Env) DelayScale() float64 {
	if e.hazard == nil {
		return e.vScale * e.Thermal()
	}
	return e.vScale * e.Thermal() * e.pert.Delay
}

// TailScale returns the hazard's current TailFraction multiplier (1 when no
// hazard is attached or the timeline is quiet).
func (e *Env) TailScale() float64 {
	if e.hazard == nil {
		return 1
	}
	return e.pert.TailScale
}

// ReplayReliable reports whether Razor-style replay recovery succeeds under
// the current conditions: true whenever the combined delay scale stays below
// ReplayScaleLimit. Without a hazard attached it is always true — the
// stationary environments never stretch delays that far.
func (e *Env) ReplayReliable() bool {
	if e.hazard == nil {
		return true
	}
	return e.DelayScale() <= ReplayScaleLimit
}

// Favorable reports whether the thermal/voltage sensors observe conditions
// under which timing errors can occur; at the nominal 1.10 V supply the
// sensors gate TEP predictions off. A hazard sensor fault overrides the
// truthful reading in either direction.
func (e *Env) Favorable() bool {
	switch e.pert.Sensor {
	case SensorStuckOff:
		return false
	case SensorStuckOn:
		return true
	}
	return e.vdd < VNominal-1e-9
}

// SetVDD retargets the environment to a new supply voltage, for closed-loop
// DVFS studies: delay scaling and sensor gating follow immediately; the
// thermal state is preserved.
func (e *Env) SetVDD(v float64) {
	e.vdd = v
	e.vScale = DelayScale(v)
}
