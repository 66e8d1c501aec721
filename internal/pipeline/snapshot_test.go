package pipeline

import (
	"encoding/binary"
	"errors"
	"testing"

	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/workload"
)

// snapPipe builds the production-shaped pipeline (workload generator + fault
// model) the snapshot layer supports.
func snapPipe(t *testing.T, bench string, scheme core.Scheme, seed uint64, vdd float64) *Pipeline {
	t.Helper()
	prof, err := workload.Lookup(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.MispredictRate = prof.MispredictRate
	cfg.Seed = seed
	fcfg := fault.DefaultConfig(seed)
	fcfg.Bias = prof.FaultBias
	p, err := New(cfg, gen, fault.New(fcfg), vdd)
	if err != nil {
		t.Fatal(err)
	}
	p.PrefillData(gen.WarmRegion())
	return p
}

// TestSnapshotRestoreEquivalence is the tentpole property: warmup → snapshot
// → restore into a fresh machine → run must be statistic-for-statistic
// identical to warmup → run straight through on the original.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	const warmup, run = 30000, 20000
	p1 := snapPipe(t, "bzip2", core.ABS, 7, fault.VNominal)
	if err := p1.Warmup(warmup); err != nil {
		t.Fatal(err)
	}
	blob, err := p1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic bytes: snapshotting again must not change anything.
	blob2, err := p1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("snapshot bytes not deterministic")
	}
	if len(blob) != cap(blob) {
		t.Fatalf("snapshot of %d bytes in a buffer of %d: a component's StateLen is off", len(blob), cap(blob))
	}

	p2 := snapPipe(t, "bzip2", core.ABS, 7, fault.VNominal)
	if err := p2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	// A restored machine that has not run snapshots to its donor's bytes,
	// sized as exactly from the sets it has not decoded.
	blob3, err := p2.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob3) != string(blob) || len(blob3) != cap(blob3) {
		t.Fatalf("restored machine snapshots to %d bytes in a buffer of %d, want its donor's %d bytes exactly",
			len(blob3), cap(blob3), len(blob))
	}

	// Retarget both to the faulty supply and run.
	p1.SetVDD(fault.VHighFault)
	p2.SetVDD(fault.VHighFault)
	s1, err := p1.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("restored run diverged from straight-through run:\n  %+v\n  %+v", s1, s2)
	}
	if err := p2.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSchemeIndependent pins the property the checkpointed sweep is
// built on: after a warmup at the nominal supply (where nothing violates
// timing), the warm state is identical across schemes, so a snapshot taken
// on one scheme's machine restores into another's and reproduces exactly the
// run a natively warmed machine of that scheme would produce.
func TestSnapshotSchemeIndependent(t *testing.T) {
	const warmup, run = 30000, 20000
	warm := func(scheme core.Scheme) []byte {
		p := snapPipe(t, "sjeng", scheme, 11, fault.VNominal)
		if err := p.Warmup(warmup); err != nil {
			t.Fatal(err)
		}
		blob, err := p.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	absBlob := warm(core.ABS)
	for _, scheme := range []core.Scheme{core.Razor, core.EP, core.FFS, core.CDS} {
		if got := warm(scheme); string(got) != string(absBlob) {
			t.Fatalf("%v warm state differs from ABS warm state at nominal supply", scheme)
		}
		// Cross-restore: ABS-taken snapshot into a scheme-native machine.
		pNative := snapPipe(t, "sjeng", scheme, 11, fault.VNominal)
		if err := pNative.Warmup(warmup); err != nil {
			t.Fatal(err)
		}
		pRestored := snapPipe(t, "sjeng", scheme, 11, fault.VNominal)
		if err := pRestored.RestoreState(absBlob); err != nil {
			t.Fatal(err)
		}
		pNative.SetVDD(fault.VHighFault)
		pRestored.SetVDD(fault.VHighFault)
		sN, err := pNative.Run(run)
		if err != nil {
			t.Fatal(err)
		}
		sR, err := pRestored.Run(run)
		if err != nil {
			t.Fatal(err)
		}
		if sN != sR {
			t.Fatalf("%v: cross-scheme restore diverged from native warmup", scheme)
		}
	}
}

// TestSnapshotRefusals pins every unsupported-configuration refusal.
func TestSnapshotRefusals(t *testing.T) {
	p := snapPipe(t, "bzip2", core.ABS, 1, fault.VNominal)
	if err := p.Warmup(5000); err != nil {
		t.Fatal(err)
	}

	// Non-drained machine: hand a throwaway instance fetch budget and step
	// until instructions are in flight; snapshot must refuse.
	pin := snapPipe(t, "bzip2", core.ABS, 3, fault.VNominal)
	pin.fetchLimit += 1000
	for pin.robCount == 0 && pin.frontCount == 0 {
		pin.step()
	}
	if _, err := pin.SnapshotState(); err == nil {
		t.Fatal("in-flight snapshot accepted")
	}

	// Supervised machine.
	profCfg := DefaultConfig()
	pol := core.DefaultSupervisorPolicy()
	profCfg.Supervisor = &pol
	prof, _ := workload.Lookup("bzip2")
	g2, _ := workload.NewGenerator(prof, 1)
	sup, err := New(profCfg, g2, fault.New(fault.DefaultConfig(1)), fault.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.SnapshotState(); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("supervised snapshot: got %v", err)
	}

	// Hazard timeline attached.
	blob, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	p.SetHazard(fault.HazardFunc(func(uint64) fault.Perturbation { return fault.Neutral() }))
	if _, err := p.SnapshotState(); err == nil {
		t.Fatal("hazard-attached snapshot accepted")
	}
	p.SetHazard(nil)

	// Version / magic / geometry / truncation failures on restore.
	p2 := snapPipe(t, "bzip2", core.ABS, 1, fault.VNominal)
	if err := p2.RestoreState(blob[:40]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if err := p2.RestoreState(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[4] ^= 0xff
	if err := p2.RestoreState(bad); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("bad version: got %v", err)
	}
	// Version 1 recorded every cache set and no prefill rule, and version 2
	// a way index and an LRU stamp per line; this build reads neither.
	for _, v := range []uint32{1, 2} {
		binary.LittleEndian.PutUint32(bad[4:], v)
		if err := p2.RestoreState(bad); !errors.Is(err, ErrSnapshotUnsupported) {
			t.Fatalf("version %d snapshot: got %v", v, err)
		}
	}
	little := LittleConfig()
	little.MispredictRate = prof.MispredictRate
	little.Seed = 1
	g3, _ := workload.NewGenerator(prof, 1)
	pl, err := New(little, g3, fault.New(fault.DefaultConfig(1)), fault.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.RestoreState(blob); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("geometry mismatch: got %v", err)
	}
	if err := p2.RestoreState(blob); err != nil {
		t.Fatalf("clean restore failed after refusal tests: %v", err)
	}
}
