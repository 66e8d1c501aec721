// Package sim is the session layer between the public facade / experiment
// harness and the pipeline model: one Session owns one simulated machine
// through its lifecycle — construct, warm up, optionally checkpoint or
// restore warm state, then measure (DESIGN.md §13).
//
// Two warmup modes exist and the distinction carries the checkpoint design:
//
//   - Warmup runs the warmup phase at the session's configured supply. This
//     is the historical behaviour; the deprecated facade entry points wrap it
//     and stay byte-identical to their pre-Session output.
//   - WarmupNeutral runs the warmup phase at the nominal supply (VNominal)
//     and defers the retarget to the configured (scheme already fixed at
//     construction) supply until Run begins. At VNominal no instruction
//     violates timing, so the warm state is provably independent of both the
//     handling scheme and the eventual measurement supply — the TEP table
//     stays empty, criticality marks are no-ops, and every issue-selection
//     policy orders identical candidate sets identically. One neutral warm
//     checkpoint therefore serves every (scheme, VDD) cell of a sweep, which
//     is what Snapshot/Restore and the serving layer's snapshot cache build
//     on.
package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tvsched/internal/asm"
	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/lru"
	"tvsched/internal/obs"
	"tvsched/internal/pipeline"
	"tvsched/internal/workload"
)

// Config describes one simulation session.
type Config struct {
	// Benchmark names a bundled workload profile; ignored when Profile is
	// non-nil or the session is built with NewAsm.
	Benchmark string
	// Profile, when non-nil, is a custom workload profile used instead of
	// the named benchmark.
	Profile *workload.Profile
	// Scheme is the handling scheme under test.
	Scheme core.Scheme
	// VDD is the measurement supply voltage.
	VDD float64
	// Warmup is the warmup phase length in committed instructions.
	Warmup uint64
	// Seed drives all deterministic randomness.
	Seed uint64
	// FaultBias is the fault-model susceptibility multiplier used by asm
	// sessions. Benchmark/profile sessions always use the profile's
	// calibrated bias (matching the historical facade behaviour).
	FaultBias float64
	// Observer, when non-nil, receives the event stream (warmup included).
	Observer obs.Observer
	// PhaseHook, when non-nil, is called after each lifecycle phase
	// completes with the phase name ("warmup", "warmup_neutral", "restore",
	// "run") and its wall-clock duration. Pure observability: the hook sees
	// host time, never simulated time, and cannot perturb the simulation —
	// the serving layer uses it to attribute request latency to pipeline
	// phases (DESIGN.md §14).
	PhaseHook func(phase string, d time.Duration)
	// Debug enables per-cycle invariant checking.
	Debug bool
	// Machine, when non-nil, overrides the simulated machine configuration
	// (its Scheme, MispredictRate, Seed, Observer, Debug and Supervisor
	// fields are overwritten from this Config).
	Machine *pipeline.Config
	// Supervisor, when non-nil, attaches the graceful-degradation
	// supervisor. Supervised sessions cannot be checkpointed.
	Supervisor *core.SupervisorPolicy
}

// machineConfig assembles the pipeline configuration for this session.
func (c *Config) machineConfig(mispredict float64) pipeline.Config {
	pcfg := pipeline.DefaultConfig()
	if c.Machine != nil {
		pcfg = *c.Machine
	}
	pcfg.Scheme = c.Scheme
	pcfg.MispredictRate = mispredict
	pcfg.Seed = c.Seed
	pcfg.Observer = c.Observer
	pcfg.Debug = c.Debug
	pcfg.Supervisor = c.Supervisor
	return pcfg
}

// Session is one simulated machine through its lifecycle. Not safe for
// concurrent use.
type Session struct {
	cfg  Config
	prof workload.Profile // zero for asm sessions
	p    *pipeline.Pipeline

	warmed     bool // a warmup phase has completed
	neutral    bool // the warm state was produced at the nominal supply
	retargeted bool // the measurement supply is in force
	measured   bool // Run has been called; checkpointing is over
}

// New builds a session over a bundled benchmark (cfg.Benchmark) or custom
// profile (cfg.Profile).
func New(cfg Config) (*Session, error) {
	var prof workload.Profile
	if cfg.Profile != nil {
		prof = *cfg.Profile
	} else {
		p, err := workload.Lookup(cfg.Benchmark)
		if err != nil {
			return nil, err
		}
		prof = p
	}
	img, err := imageOf(prof, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen := img.prog.NewGenerator()
	p, err := pipeline.New(cfg.machineConfig(prof.MispredictRate), gen, img.model, cfg.VDD)
	if err != nil {
		return nil, err
	}
	// A measured phase's working set was touched earlier in the program, so
	// SimPoint phases never start from a cold L2: install the benchmark's
	// warm data region. Where the L2 holds the region without an eviction,
	// this records a rule and builds no set (mem.Hierarchy.Prefill); a
	// Restore replaces it.
	p.PrefillData(gen.WarmRegion())
	return &Session{cfg: cfg, prof: prof, p: p, retargeted: true}, nil
}

// image is the read-only part of a session that depends only on (profile,
// seed): the static program and the fault model with its per-PC tail masks.
// Every session of that key walks the program with a fresh generator and
// shares the model.
type image struct {
	prog  *workload.Program
	model *fault.Model
}

type imageKey struct {
	prof workload.Profile
	seed uint64
}

// imageEntries bounds the process-wide image cache. A warm group's donor and
// cells, and a sweep's schemes and supplies, run one key back to back.
const imageEntries = 4

// images is shared by every session in the process. A session built on a
// cached image and one built on a fresh image are the same machine, so the
// cache changes how fast sessions are built and nothing else.
var images = lru.New[imageKey, *image](imageEntries)

// imageOf returns the image of (prof, seed), building it on a miss. Two
// sessions that miss on one key at once both build it; the images are
// equal, and the cache keeps whichever lands last.
func imageOf(prof workload.Profile, seed uint64) (*image, error) {
	key := imageKey{prof, seed}
	if img, ok := images.Get(key); ok {
		return img, nil
	}
	img, err := buildImage(prof, seed)
	if err != nil {
		return nil, err
	}
	// A profile holding a NaN never equals itself: it could neither hit nor
	// be evicted, so its image stays out of the cache.
	if key == key {
		images.Put(key, img)
	}
	return img, nil
}

// buildImage builds the program of (prof, seed) and its fault model, whose
// table covers exactly the program's code.
func buildImage(prof workload.Profile, seed uint64) (*image, error) {
	prog, err := workload.NewProgram(prof, seed)
	if err != nil {
		return nil, err
	}
	fc := fault.DefaultConfig(seed)
	fc.Bias = prof.FaultBias
	return &image{prog, fault.NewWithTable(fc, workload.CodeBase, prog.StaticFootprint())}, nil
}

// NewAsm builds a session whose instruction stream comes from a kernel in
// the repository's mini assembly: the program is assembled, executed
// architecturally, and the committed stream drives the pipeline. init, when
// non-nil, seeds registers and memory first. Asm sessions cannot be
// checkpointed (the interpreter's architectural state is not serialized).
func NewAsm(cfg Config, source string, init func(m *asm.Machine)) (*Session, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	m := asm.NewMachine(prog)
	if init != nil {
		init(m)
	}
	fc := fault.DefaultConfig(cfg.Seed)
	fc.Bias = cfg.FaultBias
	p, err := pipeline.New(cfg.machineConfig(0), m, fault.New(fc), cfg.VDD)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, p: p, retargeted: true}, nil
}

// Warmup simulates cfg.Warmup committed instructions at the configured
// supply and discards statistics, keeping micro-architectural state. This is
// the historical warmup; its machine state depends on (scheme, VDD), so it
// cannot feed the shared snapshot cache — use WarmupNeutral for that.
func (s *Session) Warmup(ctx context.Context) error {
	defer s.phase("warmup")()
	if err := s.p.WarmupContext(ctx, s.cfg.Warmup); err != nil {
		return err
	}
	s.warmed = true
	s.neutral = s.cfg.VDD == fault.VNominal
	return nil
}

// phase times one lifecycle phase for the PhaseHook; use as
// `defer s.phase("name")()`. With no hook attached it costs two calls and
// no clock reads.
func (s *Session) phase(name string) func() {
	if s.cfg.PhaseHook == nil {
		return func() {}
	}
	start := time.Now()
	return func() { s.cfg.PhaseHook(name, time.Since(start)) }
}

// WarmupNeutral simulates the warmup phase at the nominal supply regardless
// of cfg.VDD, deferring the retarget to Run. The resulting warm state is
// scheme- and VDD-independent (see the package comment), so Snapshot may
// share it across sweep cells.
func (s *Session) WarmupNeutral(ctx context.Context) error {
	defer s.phase("warmup_neutral")()
	s.p.SetVDD(fault.VNominal)
	if err := s.p.WarmupContext(ctx, s.cfg.Warmup); err != nil {
		return err
	}
	s.warmed = true
	s.neutral = true
	s.retargeted = s.cfg.VDD == fault.VNominal
	return nil
}

// Snapshot serializes the session's warm state. Only a neutral warm state
// may be snapshotted — it is the only state whose bytes are valid for every
// (scheme, VDD) cell under the same WarmKey — and only before measurement
// begins.
func (s *Session) Snapshot() ([]byte, error) {
	if !s.warmed || s.measured {
		return nil, fmt.Errorf("sim: snapshot is only valid between warmup and the first Run")
	}
	if !s.neutral {
		return nil, fmt.Errorf("sim: snapshot requires a neutral warm state (WarmupNeutral, or warmup at the nominal supply)")
	}
	return s.p.SnapshotState()
}

// Restore loads a warm state produced by Snapshot into this freshly built
// session, replacing its (not yet run) cold state. The snapshot must come
// from a session with the same benchmark, seed, warmup and machine geometry
// — WarmKey captures exactly this compatibility class; the pipeline
// additionally verifies geometry field by field. After Restore the session
// behaves as if WarmupNeutral had just completed. The snapshot carries its
// donor's L2 prefill rule and the sets that differ from it, each as its
// lines' tags in recency order, and replaces both the rule New recorded and
// any set built since.
//
// The restored caches keep a reference to snapshot and decode each set from
// it the first time the set is reached, so snapshot must not change while
// the session lives. Any number of sessions may restore one snapshot at
// once.
func (s *Session) Restore(snapshot []byte) error {
	defer s.phase("restore")()
	if s.warmed || s.measured {
		return fmt.Errorf("sim: restore is only valid on a fresh session")
	}
	if err := s.p.RestoreState(snapshot); err != nil {
		return err
	}
	s.warmed = true
	s.neutral = true
	s.retargeted = s.cfg.VDD == fault.VNominal
	return nil
}

// Run simulates n committed instructions at the configured (scheme, VDD)
// operating point — applying the deferred retarget if the warm state is
// neutral — and returns the statistics accumulated since the warm boundary.
func (s *Session) Run(ctx context.Context, n uint64) (pipeline.Stats, error) {
	defer s.phase("run")()
	if !s.retargeted {
		s.p.SetVDD(s.cfg.VDD)
		s.retargeted = true
	}
	s.measured = true
	return s.p.RunContext(ctx, n)
}

// SetObserver attaches (or detaches) the event observer mid-lifecycle, e.g.
// to start tracing only after warmup.
func (s *Session) SetObserver(o obs.Observer) { s.p.SetObserver(o) }

// SetHazard attaches (or detaches) a transient-hazard timeline.
func (s *Session) SetHazard(h fault.Hazard) { s.p.SetHazard(h) }

// SetVDD retargets the supply mid-run (closed-loop DVFS experiments).
func (s *Session) SetVDD(v float64) {
	s.p.SetVDD(v)
	s.retargeted = true
}

// Scheme returns the handling scheme currently in force (cfg.Scheme unless
// the supervisor escalated).
func (s *Session) Scheme() core.Scheme { return s.p.Scheme() }

// Supervisor exposes the graceful-degradation supervisor (nil when
// unsupervised).
func (s *Session) Supervisor() *core.Supervisor { return s.p.Supervisor() }

// Env exposes the operating environment (diagnostics).
func (s *Session) Env() *fault.Env { return s.p.Env() }

// WarmKey is the content address of the neutral warm state a session with
// these parameters would produce: sessions with equal WarmKeys produce
// byte-identical Snapshots, and a Snapshot may be restored into any session
// with the same WarmKey regardless of its (scheme, VDD). The key covers the
// snapshot wire version, the full profile identity, the seed, the warmup
// length, and every machine-configuration field except the scheme; it
// excludes VDD and the measurement length.
func WarmKey(cfg Config) string {
	var prof workload.Profile
	if cfg.Profile != nil {
		prof = *cfg.Profile
	} else if p, err := workload.Lookup(cfg.Benchmark); err == nil {
		prof = p
	}
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "tvsched/warm-state/v%d\n", pipeline.SnapshotVersion)
	fmt.Fprintf(&b, "profile=%+v\n", prof)
	fmt.Fprintf(&b, "seed=%d warmup=%d\n", cfg.Seed, cfg.Warmup)
	mc := cfg.machineConfig(prof.MispredictRate)
	fmt.Fprintf(&b, "machine={w=%d fd=%d fq=%d rob=%d iq=%d lq=%d sq=%d phys=%d alus=%d/%d/%d replay=%d/%d full=%t mp=%s ct=%d tep=%d/%d l1i=%d/%d/%d/%d l1d=%d/%d/%d/%d l2=%d/%d/%d/%d mem=%d sample=%d}\n",
		mc.Width, mc.FrontDepth, mc.FrontQ, mc.ROBSize, mc.IQSize, mc.LQSize, mc.SQSize,
		mc.NumPhys, mc.SimpleALUs, mc.ComplexALUs, mc.MemPorts,
		mc.ReplayBubble, mc.ReplayLatency, mc.FullFlushReplay, num(mc.MispredictRate), mc.CT,
		mc.TEP.Entries, mc.TEP.HistoryBits,
		mc.Hierarchy.L1I.SizeBytes, mc.Hierarchy.L1I.Ways, mc.Hierarchy.L1I.LineBytes, mc.Hierarchy.L1I.Latency,
		mc.Hierarchy.L1D.SizeBytes, mc.Hierarchy.L1D.Ways, mc.Hierarchy.L1D.LineBytes, mc.Hierarchy.L1D.Latency,
		mc.Hierarchy.L2.SizeBytes, mc.Hierarchy.L2.Ways, mc.Hierarchy.L2.LineBytes, mc.Hierarchy.L2.Latency,
		mc.Hierarchy.MemLatency, mc.SamplePeriod)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
