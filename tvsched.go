// Package tvsched is a library-grade reproduction of "Efficiently Tolerating
// Timing Violations in Pipelined Microprocessors" (Chakraborty, Cozzens, Roy,
// Ancajas — DAC 2013).
//
// The paper's contribution is a violation-aware instruction scheduling
// framework for out-of-order processors: when the Timing Error Predictor
// (TEP) flags an instruction as likely to violate timing in a particular
// pipe stage, the issue stage schedules around it — the faulty instruction
// occupies its stage one extra cycle, its issue slot / functional unit is
// frozen for the following cycle, and its dependents are held back — instead
// of stalling the whole pipeline (Error Padding) or replaying (Razor). Three
// selection policies are provided: age-based (ABS), faulty-first (FFS) and
// criticality-driven (CDS).
//
// This package is the public facade. It wraps:
//
//   - a cycle-level 4-wide out-of-order core model (Fabscalar Core-1 class)
//     with caches, branch prediction, TEP, and all five handling schemes;
//   - twelve calibrated SPEC CPU2006-like workload models;
//   - the statistical timing-fault model of the paper's §4.3;
//   - the gate-level substrate for the supplemental sensitized-path study;
//   - an experiment harness regenerating every table and figure.
//
// Quick start:
//
//	s, err := tvsched.NewSession(tvsched.Config{
//	    Benchmark: "bzip2",
//	    Scheme:    tvsched.ABS,
//	    VDD:       tvsched.VHighFault,
//	    Instructions: 300000,
//	})
//	if err != nil { ... }
//	if err := s.Warmup(ctx); err != nil { ... }
//	res, err := s.Run(ctx, tvsched.RunOpts{})
//	fmt.Println(res.IPC, res.FaultRate, res.Coverage)
//
// Session is the lifecycle API: construct (NewSession, NewProfileSession or
// NewAsmSession), warm up, optionally checkpoint (Snapshot) or restore a
// previous warm state (Restore), then measure.
//
// See cmd/tvbench for the full paper reproduction and EXPERIMENTS.md for the
// paper-vs-measured record.
package tvsched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tvsched/internal/asm"
	"tvsched/internal/core"
	"tvsched/internal/energy"
	"tvsched/internal/fault"
	"tvsched/internal/obs"
	"tvsched/internal/pipeline"
	"tvsched/internal/sim"
	"tvsched/internal/workload"
)

// Sentinel errors, matchable with errors.Is. They originate in the internal
// packages (which cannot import this facade) and are re-exported here so
// callers never need to match on message text.
var (
	// ErrUnknownBenchmark reports a Config.Benchmark outside Benchmarks().
	ErrUnknownBenchmark = workload.ErrUnknownBenchmark
	// ErrUnknownScheme reports a scheme name ParseScheme does not recognize.
	ErrUnknownScheme = core.ErrUnknownScheme
	// ErrBadConfig reports an invalid machine configuration.
	ErrBadConfig = pipeline.ErrBadConfig
	// ErrSnapshotUnsupported reports a Snapshot or Restore refused because of
	// the machine's configuration (supervisor attached, custom predictor,
	// non-checkpointable source, or a wire-format version mismatch).
	ErrSnapshotUnsupported = pipeline.ErrSnapshotUnsupported
)

// Scheme selects the timing-error handling scheme.
type Scheme = core.Scheme

// The five comparative schemes of the paper's §5.
const (
	// Razor replays every violation (reactive baseline).
	Razor = core.Razor
	// EP (Error Padding) stalls the whole pipeline one cycle per predicted
	// violation (the paper's baseline, after Roy et al. and Xin et al.).
	EP = core.EP
	// ABS is violation-aware scheduling with age-based selection.
	ABS = core.ABS
	// FFS is violation-aware scheduling with faulty-first selection.
	FFS = core.FFS
	// CDS is violation-aware scheduling with criticality-driven selection.
	CDS = core.CDS
)

// The three supply-voltage environments of §4.3.
const (
	// VNominal (1.10 V) is fault-free.
	VNominal = fault.VNominal
	// VLowFault (1.04 V) is the paper's low-fault-rate environment.
	VLowFault = fault.VLowFault
	// VHighFault (0.97 V) is the paper's high-fault-rate environment.
	VHighFault = fault.VHighFault
)

// ParseScheme converts "Razor" | "EP" | "ABS" | "FFS" | "CDS" to a Scheme.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// Benchmarks returns the available workload names (Table 1's twelve
// SPEC CPU2006 profiles).
func Benchmarks() []string { return workload.Names() }

// PipeStats re-exports the detailed pipeline statistics.
type PipeStats = pipeline.Stats

// EnergyResult re-exports the energy accounting.
type EnergyResult = energy.Result

// Observability re-exports (see internal/obs for the full documentation).
// An Observer attached via Config.Observer receives every typed pipeline
// event — fetch/dispatch/issue/retire progress, predicted and actual timing
// violations, replays and flushes, FUSR slot freezes, delayed tag broadcasts,
// TEP activity, and periodic occupancy samples. A nil observer costs nothing.
type (
	// Observer receives pipeline events.
	Observer = obs.Observer
	// ObserverFunc adapts a function to an Observer.
	ObserverFunc = obs.ObserverFunc
	// Event is one typed pipeline event.
	Event = obs.Event
	// EventKind discriminates Event payloads.
	EventKind = obs.Kind
	// Metrics is a thread-safe aggregating observer: counters, per-stage
	// violation counts and occupancy/burst histograms, rendered in the
	// Prometheus text format by an Exposition.
	Metrics = obs.Metrics
	// ChromeTracer is an observer that records Chrome trace-event JSON
	// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
	ChromeTracer = obs.ChromeTracer
	// CPIStack is the cycle-accounting profiler: it decomposes every issue
	// slot of the observed run into a CPI stack (base, branch mispredict,
	// cache misses, dispatch back-pressure, and each flavour of
	// timing-violation handling) with per-PC penalty attribution.
	CPIStack = obs.CPIStack
	// CPIStackConfig parameterizes a CPIStack; zero fields take Core-1
	// defaults.
	CPIStackConfig = obs.CPIStackConfig
	// CPIStackReport is a rendered CPI stack (components sum to the CPI).
	CPIStackReport = obs.CPIStackReport
	// RunReport is the machine-readable run summary written by tvsim
	// -report and tvbench -json (schema tvsched/run-report/v1).
	RunReport = obs.RunReport
	// Exposition renders Metrics and/or a CPIStack in the Prometheus text
	// format; mount Exposition.Handler at /metrics.
	Exposition = obs.Exposition
	// Sharder is implemented by observers (Metrics, CPIStack, Multi over
	// them) that can hand each pipeline a private lock-free shard, merged
	// back on Flush; the experiment harness uses it automatically.
	Sharder = obs.Sharder
	// ShardObserver is the per-pipeline accumulator a Sharder hands out.
	ShardObserver = obs.ShardObserver
	// Auditor is the accounting cross-check observer: it accumulates the
	// event stream into per-kind counts and reconciles them against the
	// simulator's own Stats counters (Auditor.Reconcile with
	// PipeStats.Expected), so the two accounting paths can never silently
	// diverge. Pair it with Config.Debug for full correctness checking.
	Auditor = obs.Auditor
	// AuditExpected is the counter-side view Auditor.Reconcile checks the
	// event stream against; build it with PipeStats.Expected.
	AuditExpected = obs.Expected
)

// Event kinds (see internal/obs for per-kind payload conventions).
const (
	EventFetch              = obs.KindFetch
	EventDispatch           = obs.KindDispatch
	EventIssue              = obs.KindIssue
	EventViolationPredicted = obs.KindViolationPredicted
	EventViolationActual    = obs.KindViolationActual
	EventReplay             = obs.KindReplay
	EventFlush              = obs.KindFlush
	EventSlotFreeze         = obs.KindSlotFreeze
	EventDelayedBroadcast   = obs.KindDelayedBroadcast
	EventRetire             = obs.KindRetire
	EventSample             = obs.KindSample
	EventTEPPredict         = obs.KindTEPPredict
	EventTEPTrain           = obs.KindTEPTrain
	EventDispatchStall      = obs.KindDispatchStall
	EventFrontStall         = obs.KindFrontStall
	EventGlobalStall        = obs.KindGlobalStall
)

// NeverIssued is the EventRetire payload-A sentinel for instructions that
// committed without passing through issue select (cycle 0 is a valid select
// time, so 0 cannot mean "never").
const NeverIssued = obs.NeverIssued

// NewMetrics builds an empty Metrics observer.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewChromeTracer builds a ChromeTracer. It records the issue, violation,
// replay, flush, freeze, sample and retire events, up to 400k of them.
func NewChromeTracer() *ChromeTracer { return obs.NewChromeTracer() }

// NewCPIStack builds a cycle-accounting profiler; zero config fields take
// the Core-1 machine defaults, matching what a Session simulates.
func NewCPIStack(cfg CPIStackConfig) *CPIStack { return obs.NewCPIStack(cfg) }

// NewExposition renders the given sources (either may be nil) in the
// Prometheus text exposition format under the ns name prefix.
func NewExposition(ns string, m *Metrics, s *CPIStack) *Exposition {
	return obs.NewExposition(ns, m, s)
}

// MultiObserver fans events out to every non-nil observer, and is nil when
// none remain — safe to assign to Config.Observer directly.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// NewAuditor builds an empty accounting-reconciliation observer.
func NewAuditor() *Auditor { return obs.NewAuditor() }

// Config describes one simulation.
type Config struct {
	// Benchmark is a workload name from Benchmarks().
	Benchmark string
	// Scheme is the handling scheme under test.
	Scheme Scheme
	// VDD is the supply voltage (use the V* constants).
	VDD float64
	// Instructions is the measured phase length in committed instructions
	// (default 300000). Warmup (default Instructions/4) instructions run
	// first, after an L2 working-set prefill, and are not measured.
	Instructions uint64
	Warmup       uint64
	// Seed drives all deterministic randomness (default 1).
	Seed uint64
	// FaultBias multiplies the fault model's near-critical path fraction
	// (default 1.0; bundled benchmarks override it with their calibrated
	// susceptibility). Useful for custom kernels whose few static
	// instructions may otherwise miss the fault-prone tail entirely.
	FaultBias float64
	// Observer, when non-nil, receives the simulation's event stream
	// (warmup included). See the observability re-exports above; attach a
	// *Metrics for aggregate counters or a *ChromeTracer for a Perfetto
	// trace, or combine them with MultiObserver.
	Observer Observer
	// PhaseHook, when non-nil, is called after each session lifecycle phase
	// completes — "warmup", "warmup_neutral", "restore", "run" — with the
	// phase's wall-clock duration. Like Observer it is machinery, not
	// simulation identity: it is excluded from CanonicalJSON/Digest and
	// cannot affect results. The serving layer uses it to attribute request
	// latency to pipeline phases as trace spans.
	PhaseHook func(phase string, d time.Duration)
	// Debug runs the pipeline's per-cycle invariant checker and end-of-run
	// drain check (see internal/pipeline CheckInvariants/CheckDrained).
	// Roughly an order of magnitude slower; meant for correctness work, not
	// measurement.
	Debug bool
}

func (c *Config) fill() {
	if c.Benchmark == "" {
		c.Benchmark = "bzip2"
	}
	if c.VDD == 0 {
		c.VDD = VNominal
	}
	if c.Instructions == 0 {
		c.Instructions = 300000
	}
	if c.Warmup == 0 {
		c.Warmup = c.Instructions / 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FaultBias == 0 {
		c.FaultBias = 1
	}
}

// Normalized returns the config with every default applied — the exact
// parameters a Session would simulate. Normalizing before comparing or digesting
// makes an omitted field and its explicit default the same simulation.
func (c Config) Normalized() Config {
	c.fill()
	return c
}

// CanonicalJSON renders the simulation-identity fields of the config —
// benchmark, scheme, supply voltage, phase lengths, seed, and fault bias,
// with defaults applied — as canonical JSON: keys sorted, floats in Go's
// shortest round-trip form, no insignificant whitespace. Two configs that
// describe the same simulation always serialize to identical bytes, which
// makes the form fit for content addressing; Digest hashes it. Observer and
// Debug are machinery, not identity, and are excluded. The exact byte
// layout is pinned by a golden test: changing it silently invalidates every
// stored digest downstream, so treat any change as a breaking schema change.
func (c Config) CanonicalJSON() []byte {
	c.fill()
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	str := func(s string) string { b, _ := json.Marshal(s); return string(b) }
	var b strings.Builder
	fmt.Fprintf(&b, `{"benchmark":%s,"fault_bias":%s,"instructions":%d,"scheme":%s,"seed":%d,"vdd":%s,"warmup":%d}`,
		str(c.Benchmark), num(c.FaultBias), c.Instructions, str(c.Scheme.String()),
		c.Seed, num(c.VDD), c.Warmup)
	return []byte(b.String())
}

// Digest returns the hex SHA-256 of CanonicalJSON: a content address for
// the simulation the config describes. Runs are deterministic, so equal
// digests mean equal results — the property the serving layer's result
// cache and request collapsing (internal/serve) key on.
func (c Config) Digest() string {
	sum := sha256.Sum256(c.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// WarmKey is the content address of the neutral warm state a session with
// this config would produce — the same key Session.WarmKey reports, computed
// without constructing a session. It covers the workload profile, seed,
// warmup length and machine geometry but excludes scheme and VDD, so every
// cell of a scheme×voltage sweep that shares (benchmark, seed, warmup) shares
// one key: the grouping the campaign planner (internal/campaign) fans warm
// snapshots out by.
func (c Config) WarmKey() string {
	c.fill()
	return sim.WarmKey(c.simConfig())
}

// Result is the outcome of one simulation.
type Result struct {
	// IPC is committed instructions per cycle.
	IPC float64
	// FaultRate is dynamic timing violations per committed instruction.
	FaultRate float64
	// Coverage is the fraction of violations the TEP predicted early.
	Coverage float64
	// Stats carries the full pipeline counters.
	Stats PipeStats
	// Energy carries the energy accounting (EDP is the paper's efficiency
	// metric).
	Energy EnergyResult
}

// resultFrom assembles a Result from final pipeline statistics, the way every
// entry point always has: energy is computed on the 45 nm defaults.
func resultFrom(st PipeStats) Result {
	return Result{
		IPC:       st.IPC(),
		FaultRate: st.FaultRate(),
		Coverage:  st.Coverage(),
		Stats:     st,
		Energy:    energy.Compute(energy.Default45nm(), &st),
	}
}

// simConfig maps the facade config onto the session layer's. Benchmark and
// profile sessions always use the profile's calibrated fault bias; the
// FaultBias field only reaches asm sessions.
func (c Config) simConfig() sim.Config {
	return sim.Config{
		Benchmark: c.Benchmark,
		Scheme:    c.Scheme,
		VDD:       c.VDD,
		Warmup:    c.Warmup,
		Seed:      c.Seed,
		FaultBias: c.FaultBias,
		Observer:  c.Observer,
		PhaseHook: c.PhaseHook,
		Debug:     c.Debug,
	}
}

// RunOpts parameterizes one measured phase of a Session.
type RunOpts struct {
	// Instructions overrides the session config's measured phase length for
	// this run; 0 keeps Config.Instructions.
	Instructions uint64
}

// Snapshot is a serialized warm machine state. Key is the content address of
// the compatibility class the bytes belong to (see Session.WarmKey): a
// snapshot restores into exactly the sessions that would produce it — same
// workload, seed, warmup length and machine geometry — regardless of their
// handling scheme or supply voltage.
type Snapshot struct {
	Key  string
	Data []byte
}

// Session is the unified simulation lifecycle: construct with NewSession (or
// NewProfileSession / NewAsmSession), warm up with Warmup or WarmupNeutral,
// optionally checkpoint with Snapshot or skip the warmup entirely with
// Restore, then measure with Run. A Session owns one simulated machine and is
// not safe for concurrent use; it is single-shot — build a new one per
// simulation.
type Session struct {
	cfg  Config
	scfg sim.Config
	s    *sim.Session
}

// NewSession builds a session over one of the bundled benchmarks.
func NewSession(cfg Config) (*Session, error) {
	cfg.fill()
	scfg := cfg.simConfig()
	s, err := sim.New(scfg)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, scfg: scfg, s: s}, nil
}

// NewProfileSession builds a session over a custom workload profile;
// cfg.Benchmark is ignored.
func NewProfileSession(cfg Config, prof WorkloadProfile) (*Session, error) {
	cfg.fill()
	scfg := cfg.simConfig()
	scfg.Benchmark = ""
	scfg.Profile = &prof
	s, err := sim.New(scfg)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, scfg: scfg, s: s}, nil
}

// NewAsmSession builds a session whose instruction stream comes from a kernel
// in the repository's mini assembly (see internal/asm for the syntax),
// executed architecturally. init, when non-nil, seeds registers and memory
// first (kernel arguments). cfg.Benchmark is ignored; asm sessions cannot be
// checkpointed.
func NewAsmSession(cfg Config, source string, init func(m *AsmMachine)) (*Session, error) {
	cfg.fill()
	scfg := cfg.simConfig()
	s, err := sim.NewAsm(scfg, source, init)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, scfg: scfg, s: s}, nil
}

// Warmup simulates Config.Warmup committed instructions at the configured
// supply voltage and discards statistics, keeping micro-architectural warm
// state (the per-cell warmup tvbench, tvsim and tvstorm measure after). Its
// warm state depends on (scheme, VDD), so Snapshot refuses it unless the
// configured supply is already VNominal — use WarmupNeutral to checkpoint.
func (s *Session) Warmup(ctx context.Context) error { return s.s.Warmup(ctx) }

// WarmupNeutral simulates the warmup phase at the nominal supply (where
// nothing violates timing) and defers the retarget to Config.VDD until Run
// begins. The resulting warm state is provably independent of the handling
// scheme and the eventual measurement supply, so one Snapshot of it serves
// every (scheme, VDD) cell of a sweep under the same WarmKey.
func (s *Session) WarmupNeutral(ctx context.Context) error { return s.s.WarmupNeutral(ctx) }

// Snapshot serializes the session's warm state, keyed by WarmKey. It is only
// valid between a neutral warmup and the first Run, and fails with
// ErrSnapshotUnsupported on configurations whose state cannot be serialized
// (supervised machines, custom predictors, asm sessions).
func (s *Session) Snapshot() (*Snapshot, error) {
	b, err := s.s.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Key: sim.WarmKey(s.scfg), Data: b}, nil
}

// Restore loads a warm state produced by Snapshot into this freshly built
// session, in place of running Warmup. The snapshot's Key must equal this
// session's WarmKey (the machine additionally verifies geometry field by
// field). After Restore the session behaves exactly as if WarmupNeutral had
// just completed.
//
// Restore validates all of snap.Data but does not copy it: the session's
// caches decode each set from snap.Data the first time it is reached. The
// bytes must not change while the session lives; any number of sessions may
// restore one Snapshot at the same time.
func (s *Session) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("tvsched: Restore(nil)")
	}
	if key := sim.WarmKey(s.scfg); snap.Key != "" && snap.Key != key {
		return fmt.Errorf("tvsched: %w: snapshot key %.12s… does not match session warm key %.12s…",
			ErrSnapshotUnsupported, snap.Key, key)
	}
	return s.s.Restore(snap.Data)
}

// Run simulates the measured phase at the configured (scheme, VDD) operating
// point — applying the deferred retarget if the warm state is neutral — and
// returns the result. Cancellation: the simulation stops within 256 simulated
// cycles of ctx being done and returns the context's error.
func (s *Session) Run(ctx context.Context, opts RunOpts) (Result, error) {
	n := opts.Instructions
	if n == 0 {
		n = s.cfg.Instructions
	}
	st, err := s.s.Run(ctx, n)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(st), nil
}

// WarmKey is the content address of the neutral warm state this session
// would produce: sessions with equal WarmKeys produce byte-identical
// Snapshots, restorable into any of them. The key covers the snapshot wire
// version, workload identity, seed, warmup length and machine geometry; it
// excludes the handling scheme, the supply voltage and the measurement
// length.
func (s *Session) WarmKey() string { return sim.WarmKey(s.scfg) }

// SetObserver attaches (or detaches) the event observer mid-lifecycle — for
// example to start tracing only after warmup.
func (s *Session) SetObserver(o Observer) { s.s.SetObserver(o) }

// Config returns the session's configuration with all defaults applied.
func (s *Session) Config() Config { return s.cfg }

// WorkloadProfile re-exports the synthetic benchmark parameterization so
// downstream users can model their own workloads: instruction mix,
// dependency-distance distribution (ILP), memory-level behaviour, branch
// misprediction rate, loop structure and fault susceptibility. See
// Benchmarks() for the twelve calibrated SPEC CPU2006 profiles.
type WorkloadProfile = workload.Profile

// Profile returns the calibrated profile for one of the bundled benchmarks,
// as a starting point for custom workloads.
func Profile(name string) (WorkloadProfile, bool) { return workload.ByName(name) }

// AsmMachine re-exports the mini-ISA interpreter for kernel setup.
type AsmMachine = asm.Machine
