// Package bpred holds the front-end branch prediction state of the pipeline
// model: a gshare direction predictor, a direct-mapped branch target buffer
// and a return-address stack, and OracleNoise. The paper's Core-1
// configuration has a 10-stage misprediction loop from fetch to execute
// (§4.1). The trace-driven pipeline does not ask the predictor when that
// loop is paid: OracleNoise charges a misprediction at the workload
// profile's rate. The pipeline trains the gshare and BTB tables on every
// branch, but reads only the global-history register, the history the
// Timing Error Predictor folds into its index (§2.1.1); the tables'
// predictions and the return-address stack reach no result.
package bpred

import "tvsched/internal/rng"

// Config sizes the predictor structures.
type Config struct {
	// HistoryBits is the global-history length and the log2 size of the
	// pattern history table.
	HistoryBits int
	// BTBEntries is the number of branch-target-buffer entries (power of 2).
	BTBEntries int
	// RASEntries is the return-address-stack depth.
	RASEntries int
}

// DefaultConfig returns a predictor comparable to a mid-2000s 4-wide core:
// 12 bits of history (4K-entry PHT), 1K-entry BTB, 16-deep RAS.
func DefaultConfig() Config {
	return Config{HistoryBits: 12, BTBEntries: 1024, RASEntries: 16}
}

// Stats counts predictor outcomes.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// MispredictRate returns mispredicts per branch.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// Predictor is a gshare + BTB + RAS front-end predictor.
type Predictor struct {
	cfg     Config
	pht     []uint8 // 2-bit saturating counters
	phtMask uint64
	history uint64
	histMsk uint64
	btb     []btbEntry
	btbMask uint64
	ras     []uint64
	rasTop  int
	Stats   Stats
}

// New builds a predictor; pht counters start weakly taken.
func New(cfg Config) *Predictor {
	phtSize := 1 << cfg.HistoryBits
	p := &Predictor{
		cfg:     cfg,
		pht:     make([]uint8, phtSize),
		phtMask: uint64(phtSize - 1),
		histMsk: uint64(phtSize - 1),
		btb:     make([]btbEntry, cfg.BTBEntries),
		btbMask: uint64(cfg.BTBEntries - 1),
		ras:     make([]uint64, cfg.RASEntries),
	}
	for i := range p.pht {
		p.pht[i] = 2 // weakly taken
	}
	return p
}

// History returns the current global branch history register (low bits). The
// TEP mixes this into its table index, per §2.1.1.
func (p *Predictor) History() uint64 { return p.history }

func (p *Predictor) phtIndex(pc uint64) uint64 {
	return ((pc >> 2) ^ p.history) & p.phtMask
}

// Predict returns the predicted direction and target for the branch at pc.
// If the BTB misses, the target is unknown (0) and the front end must
// fall through until resolution even on a predicted-taken branch.
func (p *Predictor) Predict(pc uint64) (taken bool, target uint64) {
	taken = p.pht[p.phtIndex(pc)] >= 2
	e := &p.btb[(pc>>2)&p.btbMask]
	if e.valid && e.tag == pc {
		target = e.target
	}
	return taken, target
}

// Update trains the predictor with the resolved outcome and maintains global
// history. It returns whether the prediction (direction and, for taken
// branches, target) was correct.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) bool {
	p.Stats.Branches++
	idx := p.phtIndex(pc)
	predTaken := p.pht[idx] >= 2
	e := &p.btb[(pc>>2)&p.btbMask]
	predTarget := uint64(0)
	if e.valid && e.tag == pc {
		predTarget = e.target
	}
	correct := predTaken == taken && (!taken || predTarget == target)
	if taken && (predTarget == 0 || predTarget != target) {
		p.Stats.BTBMisses++
	}
	if !correct {
		p.Stats.Mispredicts++
	}
	// Train the 2-bit counter.
	if taken {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	// Install/refresh the BTB entry for taken branches.
	if taken {
		*e = btbEntry{tag: pc, target: target, valid: true}
	}
	// Shift history.
	p.history = ((p.history << 1) | b2u(taken)) & p.histMsk
	return correct
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(ret uint64) {
	p.ras[p.rasTop%len(p.ras)] = ret
	p.rasTop++
}

// PopRAS predicts a return target; returns 0 if the stack is empty.
func (p *Predictor) PopRAS() uint64 {
	if p.rasTop == 0 {
		return 0
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)]
}

// Reset clears all state.
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 2
	}
	for i := range p.btb {
		p.btb[i] = btbEntry{}
	}
	p.history = 0
	p.rasTop = 0
	p.Stats = Stats{}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// OracleNoise is a helper predictor model used by the trace-driven pipeline:
// because the workload supplies the committed path, the pipeline charges a
// misprediction penalty stochastically at the profile's mispredict rate
// rather than simulating wrong-path fetch. OracleNoise decides, per branch,
// whether this dynamic branch mispredicts, deterministically from the seed
// and the branch's sequence number, while still training the real gshare
// structures (so TEP history indexing stays realistic).
type OracleNoise struct {
	rate float64
	src  *rng.Source
}

// NewOracleNoise builds a mispredict-noise source with the given per-branch
// rate and deterministic seed.
func NewOracleNoise(rate float64, seed uint64) *OracleNoise {
	return &OracleNoise{rate: rate, src: rng.New(seed)}
}

// Mispredict reports whether this dynamic branch instance mispredicts.
func (o *OracleNoise) Mispredict() bool {
	if o.rate <= 0 {
		return false
	}
	return o.src.Bool(o.rate)
}

// Rate returns the configured misprediction rate.
func (o *OracleNoise) Rate() float64 { return o.rate }
