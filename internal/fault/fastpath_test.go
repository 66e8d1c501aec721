package fault

import (
	"bytes"
	"math"
	"testing"

	"tvsched/internal/isa"
	"tvsched/internal/rng"
	"tvsched/internal/snap"
	"tvsched/internal/workload"
)

// refMargin derives a pair's margin from scratch, every hash recomputed: the
// tail position when the tail-membership draw falls under the (storm-scaled)
// tail probability, else the comfortable band.
func refMargin(cfg Config, pc uint64, stage isa.Stage, tailScale float64) float64 {
	hash01 := func(salt uint64) float64 {
		h := rng.Mix(cfg.Seed ^ rng.Mix(pc) ^ rng.Mix(uint64(stage)+0x1000*salt))
		return float64(h>>11) / (1 << 53)
	}
	if hash01(0) < cfg.TailFraction*cfg.Bias*stageWeight(stage)*tailScale {
		return tailLo + hash01(1)*(tailHi-tailLo)
	}
	return 0.45 + 0.35*hash01(2)
}

// refStages is the per-stage tail-membership reference: every stage whose
// tail draw, with every hash recomputed, falls under the (storm-scaled) tail
// probability.
func refStages(cfg Config, pc uint64, tailScale float64) StageMask {
	var mask StageMask
	for s := isa.Fetch; s < isa.NumStages; s++ {
		h := rng.Mix(cfg.Seed ^ rng.Mix(pc) ^ rng.Mix(uint64(s)))
		if float64(h>>11)/(1<<53) < cfg.TailFraction*cfg.Bias*stageWeight(s)*tailScale {
			mask |= 1 << s
		}
	}
	return mask
}

// refViolates is the full-margin violation decision: derive the margin, skip
// anything below 0.82, then apply the jittered µ+2σ test. Violates must
// decide exactly as this does.
func refViolates(cfg Config, pc uint64, stage isa.Stage, env *Env, seq uint64) bool {
	margin := refMargin(cfg, pc, stage, env.TailScale())
	if margin < 0.82 {
		return false
	}
	jitterU := rng.Mix(cfg.Seed ^ rng.Mix(pc^0xfeed) ^ rng.Mix(seq) ^ uint64(stage))
	g := (unif(jitterU) + unif(jitterU^0xa5a5) + unif(jitterU^0x5a5a) + unif(jitterU^0xffff) - 2) * math.Sqrt(3)
	if g > 2 {
		g = 2
	} else if g < -2 {
		g = -2
	}
	return margin*env.DelayScale()*(1+cfg.Jitter*g) > 1.0
}

// TestViolatesMatchesFullMargin compares the tail-first decision with the
// full-margin reference over random seeds, biases, PCs, stages and instances,
// under storm tail inflation and hazard delay, at every studied supply.
func TestViolatesMatchesFullMargin(t *testing.T) {
	src := rng.New(20260)
	var calls, violations, tailMisses int
	for trial := 0; trial < 60; trial++ {
		cfg := DefaultConfig(src.Uint64())
		cfg.Bias = 0.5 + 2.5*src.Float64()
		m := New(cfg)
		for _, ts := range []float64{1, 1.5, 6} {
			for _, delay := range []float64{1, 1.12, 1.4} {
				for _, vdd := range []float64{VNominal, VLowFault, VHighFault} {
					env := NewEnv(vdd, cfg.Seed)
					if ts != 1 || delay != 1 || trial%2 == 0 {
						pert := Perturbation{Delay: delay, TailScale: ts}
						env.SetHazard(HazardFunc(func(uint64) Perturbation { return pert }))
					}
					for i := 0; i < 40; i++ {
						env.Step()
						pc := src.Uint64() &^ 3
						seq := src.Uint64()
						for s := isa.Fetch; s < isa.NumStages; s++ {
							got := m.Violates(pc, s, env, seq)
							if want := refViolates(cfg, pc, s, env, seq); got != want {
								t.Fatalf("seed %d bias %v pc %#x stage %v seq %d tail×%v delay×%v vdd %v: Violates = %v, reference %v",
									cfg.Seed, cfg.Bias, pc, s, seq, ts, delay, vdd, got, want)
							}
							calls++
							if got {
								violations++
							} else if m.inTail(rng.Mix(pc), s, env.TailScale()) {
								tailMisses++
							}
						}
					}
				}
			}
		}
	}
	// Both outcomes of the jittered test must have been exercised, or the
	// comparison above says nothing about the tail path.
	if violations < 100 || tailMisses < 100 {
		t.Fatalf("weak coverage: %d calls, %d violations, %d tail non-violations", calls, violations, tailMisses)
	}
	t.Logf("%d calls, %d violations, %d tail non-violations", calls, violations, tailMisses)
}

// TestMarginMatchesFullMargin pins Margin to the reference derivation.
func TestMarginMatchesFullMargin(t *testing.T) {
	src := rng.New(7)
	for i := 0; i < 20000; i++ {
		cfg := DefaultConfig(src.Uint64())
		cfg.Bias = 0.5 + 2.5*src.Float64()
		m := New(cfg)
		pc := src.Uint64() &^ 3
		s := isa.Stage(src.Intn(int(isa.NumStages)))
		if got, want := m.Margin(pc, s), refMargin(cfg, pc, s, 1); got != want {
			t.Fatalf("seed %d pc %#x stage %v: Margin = %v, reference %v", cfg.Seed, pc, s, got, want)
		}
	}
}

// eagerEnv is the thermal state machine with the sine taken on every step.
type eagerEnv struct {
	vdd, thermal, phase, walk float64
	cycle                     uint64
	src                       *rng.Source
}

func newEagerEnv(vdd float64, seed uint64) *eagerEnv {
	return &eagerEnv{vdd: vdd, thermal: 1, src: rng.New(rng.Mix(seed ^ 0x7e47))}
}

func (e *eagerEnv) step() {
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
	e.thermal = 1 + 0.002*math.Sin(e.phase) + e.walk
}

func (e *eagerEnv) state() []byte {
	w := &snap.Writer{}
	w.F64(e.vdd)
	w.F64(e.thermal)
	w.F64(e.phase)
	w.F64(e.walk)
	w.U64(e.cycle)
	e.src.AppendState(w)
	return w.B
}

// TestThermalMatchesEager steps an environment past a full thermal period,
// reading the thermal factor only on scattered cycles, with and without a
// hazard, and requires every read, and the snapshot bytes at the end, to
// equal the eagerly computed state machine's.
func TestThermalMatchesEager(t *testing.T) {
	for _, hazard := range []bool{false, true} {
		const seed = 11
		e, ref := NewEnv(VHighFault, seed), newEagerEnv(VHighFault, seed)
		if hazard {
			e.SetHazard(HazardFunc(func(c uint64) Perturbation {
				return Perturbation{Delay: 1 + float64(c%7)/20, TailScale: 1 + float64(c%3)}
			}))
		}
		pick := rng.New(3)
		for i := 0; i < 210000; i++ {
			e.Step()
			ref.step()
			if i%997 != 0 && !pick.Bool(0.01) {
				continue
			}
			if math.Float64bits(e.Thermal()) != math.Float64bits(1+0.002*math.Sin(e.phase)+e.walk) {
				t.Fatalf("hazard=%v step %d: Thermal() = %v, 1+0.002·sin(phase)+walk = %v",
					hazard, i, e.Thermal(), 1+0.002*math.Sin(e.phase)+e.walk)
			}
			if math.Float64bits(e.Thermal()) != math.Float64bits(ref.thermal) {
				t.Fatalf("hazard=%v step %d: Thermal() = %v, eager %v", hazard, i, e.Thermal(), ref.thermal)
			}
			want := DelayScale(VHighFault) * ref.thermal
			if hazard {
				want *= e.pert.Delay
			}
			if e.DelayScale() != want {
				t.Fatalf("hazard=%v step %d: DelayScale() = %v, eager %v", hazard, i, e.DelayScale(), want)
			}
		}
		// Leave the last cycles unread so the snapshot is what takes the
		// sine.
		for i := 0; i < 1234; i++ {
			e.Step()
			ref.step()
		}
		e.SetHazard(nil)
		var w snap.Writer
		if err := e.AppendState(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.B, ref.state()) {
			t.Fatalf("hazard=%v: snapshot bytes differ from the eager state machine's", hazard)
		}
	}
}

// TestStagesMatchesInTail pins the tail-mask table of every bundled
// program at seeds 1–3 to the per-stage reference: the table answers
// Stages(pc, 1) for every PC of the program, the hash answers storm tail
// scales and PCs off the table (below it, past it, misaligned, and on a
// model without one), and all of them must equal refStages. Violates must
// never report a stage outside Stages.
func TestStagesMatchesInTail(t *testing.T) {
	var pcs, tailPCs, violations int
	for _, prof := range workload.SPEC2006() {
		for seed := uint64(1); seed <= 3; seed++ {
			prog, err := workload.NewProgram(prof, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(seed)
			cfg.Bias = prof.FaultBias
			n := prog.StaticFootprint()
			m, bare := NewWithTable(cfg, workload.CodeBase, n), New(cfg)
			env := NewEnv(VHighFault, seed)
			check := func(pc uint64, ts float64) StageMask {
				want := refStages(cfg, pc, ts)
				if got := m.Stages(pc, ts); got != want {
					t.Fatalf("%s/%d pc %#x tail×%v: Stages = %010b, reference %010b", prof.Name, seed, pc, ts, got, want)
				}
				if got := bare.Stages(pc, ts); got != want {
					t.Fatalf("%s/%d pc %#x tail×%v: Stages without a table = %010b, reference %010b", prof.Name, seed, pc, ts, got, want)
				}
				return want
			}
			for i := 0; i < n; i++ {
				pc := workload.CodeBase + 4*uint64(i)
				mask := check(pc, 1)
				for _, ts := range []float64{0.25, 2, 8} {
					check(pc, ts)
				}
				pcs++
				if mask != 0 {
					tailPCs++
				}
				env.Step()
				for s := isa.Fetch; s < isa.NumStages; s++ {
					if m.Violates(pc, s, env, uint64(i)) {
						violations++
						if mask&(1<<s) == 0 {
							t.Fatalf("%s/%d pc %#x: Violates in %v, outside Stages %010b", prof.Name, seed, pc, s, mask)
						}
					}
				}
			}
			for _, pc := range []uint64{workload.CodeBase - 4, workload.CodeBase + 4*uint64(n), workload.CodeBase + 4*uint64(n) + 64, workload.CodeBase + 2, 0} {
				for _, ts := range []float64{1, 0.25, 2, 8} {
					check(pc, ts)
				}
			}
		}
	}
	if tailPCs == 0 || violations == 0 {
		t.Fatalf("weak coverage: %d PCs, %d with a tail stage, %d violations", pcs, tailPCs, violations)
	}
	t.Logf("%d PCs, %d with a tail stage, %d violations", pcs, tailPCs, violations)
}
