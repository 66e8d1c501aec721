package pipeline

import (
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/isa"
	"tvsched/internal/workload"
)

// countingModel is the production fault model with its calls counted.
type countingModel struct {
	*fault.Model
	violates, stages uint64
}

func (c *countingModel) Violates(pc uint64, stage isa.Stage, env *fault.Env, seq uint64) bool {
	c.violates++
	return c.Model.Violates(pc, stage, env, seq)
}

func (c *countingModel) Stages(pc uint64, tailScale float64) fault.StageMask {
	c.stages++
	return c.Model.Stages(pc, tailScale)
}

// TestFaultWorkPin is the deterministic gate on the fetch path's fault-model
// cost: fetch asks Violates only about an instruction's near-critical
// stages, about 9% of instructions have any, so on every benchmark at
// 0.97 V under ABS there are at most 0.2 Violates calls per fetched
// instruction, where testing every stage makes about 9.4. Each fetched
// instruction also asks Stages exactly once.
func TestFaultWorkPin(t *testing.T) {
	for _, name := range workload.Names() {
		prof := mustProfile(t, name)
		prog, err := workload.NewProgram(prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		gen := prog.NewGenerator()
		cfg := DefaultConfig()
		cfg.Scheme = core.ABS
		cfg.MispredictRate = prof.MispredictRate
		fc := fault.DefaultConfig(1)
		fc.Bias = prof.FaultBias
		model := &countingModel{Model: fault.NewWithTable(fc, workload.CodeBase, prog.StaticFootprint())}
		p, err := New(cfg, gen, model, fault.VHighFault)
		if err != nil {
			t.Fatal(err)
		}
		p.PrefillData(gen.WarmRegion())
		st, err := p.Run(40000)
		if err != nil {
			t.Fatal(err)
		}
		fetched := gen.Emitted()
		perInst := float64(model.violates) / float64(fetched)
		t.Logf("%-10s %.3f Violates calls per fetched instruction (%d faults)", name, perInst, st.Faults)
		if model.stages != fetched {
			t.Errorf("%s: %d Stages calls for %d fetched instructions", name, model.stages, fetched)
		}
		if perInst > 0.2 {
			t.Errorf("%s: %.3f Violates calls per fetched instruction, want ≤ 0.2", name, perInst)
		}
		if st.Faults == 0 {
			t.Errorf("%s: no faults at 0.97 V; the pin needs a faulty cell", name)
		}
	}
}
