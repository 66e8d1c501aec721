package experiments

import (
	"encoding/json"

	"tvsched"
	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/obs"
	"tvsched/internal/pipeline"
)

// This file bridges the experiment engine and the obs.RunReport artifact:
// deriving a CPI-stack configuration from a machine configuration, and
// summarizing a suite into the per-scheme overhead rows a report carries,
// and rendering one finished run as a report.

// CPIStackConfigFor derives the cycle-accounting parameters from a machine
// configuration: issue width, the fetch-to-execute mispredict loop
// (FrontDepth plus the two issue stages, register read and execute), and the
// L1/L2 total data-access latencies that split load misses into L2 and DRAM
// components.
func CPIStackConfigFor(cfg pipeline.Config) obs.CPIStackConfig {
	l1 := uint64(cfg.Hierarchy.L1D.Latency)
	return obs.CPIStackConfig{
		Width:             cfg.Width,
		MispredictPenalty: uint64(cfg.FrontDepth + 4),
		L1DLatency:        l1,
		L2DLatency:        l1 + uint64(cfg.Hierarchy.L2.Latency),
	}
}

// NewRunCPIStack builds a profiler matched to the default Core-1 machine —
// what every simulation this package drives uses.
func NewRunCPIStack() *obs.CPIStack {
	return obs.NewCPIStack(CPIStackConfigFor(pipeline.DefaultConfig()))
}

// SchemeOverheads measures each scheme's performance and energy-delay
// overhead versus the fault-free baseline at each supply voltage, averaged
// across the benchmarks — the rows Figures 4/5/8/9 plot, in the shape
// obs.RunReport carries. A nil scheme list means every scheme. Runs are
// memoized with the rest of the suite, so this is free after the figures
// are built.
func (s *Suite) SchemeOverheads(schemes []core.Scheme, vdds []float64) ([]obs.SchemeOverhead, error) {
	if schemes == nil {
		for sch := core.Scheme(0); sch < core.NumSchemes; sch++ {
			schemes = append(schemes, sch)
		}
	}
	if err := s.prefetch(keysFor(schemes, vdds)); err != nil {
		return nil, err
	}
	var out []obs.SchemeOverhead
	for _, v := range vdds {
		for _, sch := range schemes {
			var perf, ed float64
			n := 0
			for _, b := range benches() {
				base, err := s.faultFree(b)
				if err != nil {
					return nil, err
				}
				r, err := s.get(runKey{b, sch, v})
				if err != nil {
					return nil, err
				}
				perf += r.PerfOverhead(&base)
				ed += r.EDOverhead(&base)
				n++
			}
			out = append(out, obs.SchemeOverhead{
				Scheme:  sch.String(),
				VDD:     v,
				PerfPct: 100 * perf / float64(n),
				EDPct:   100 * ed / float64(n),
			})
		}
	}
	return out, nil
}

// EvalVoltages returns the two faulty supply points of the evaluation
// (§5): the marginal 1.04 V and the aggressive 0.97 V.
func EvalVoltages() []float64 { return []float64{fault.VLowFault, fault.VHighFault} }

// TEPAccuracyFrom summarizes predictor quality from a run's statistics.
func TEPAccuracyFrom(st *pipeline.Stats) *obs.TEPAccuracy {
	acc := &obs.TEPAccuracy{
		TruePositives:  st.PredictedFaults,
		FalsePositives: st.FalsePositives,
		Unpredicted:    st.Mispredicted,
	}
	if st.Faults > 0 {
		acc.Coverage = float64(st.PredictedFaults) / float64(st.Faults)
	}
	if pos := st.PredictedFaults + st.FalsePositives; pos > 0 {
		acc.Precision = float64(st.PredictedFaults) / float64(pos)
	}
	return acc
}

// RunReportJSON renders one finished run as a run-report/v1 artifact tagged
// with the producing tool, in compact JSON so the bytes embed verbatim in
// NDJSON lines. Every field derives from the deterministic result: the bytes
// are a pure function of the tool and the config.
func RunReportJSON(tool string, cfg tvsched.Config, res tvsched.Result) ([]byte, error) {
	st := res.Stats
	return json.Marshal(&obs.RunReport{
		Schema:       obs.RunReportSchema,
		Tool:         tool,
		Benchmark:    cfg.Benchmark,
		Scheme:       cfg.Scheme.String(),
		VDD:          cfg.VDD,
		Seed:         cfg.Seed,
		Instructions: st.Committed,
		Cycles:       st.Cycles,
		IPC:          st.IPC(),
		TEP:          TEPAccuracyFrom(&st),
	})
}
