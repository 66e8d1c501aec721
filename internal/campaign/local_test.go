package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tvsched"
	"tvsched/internal/resil/chaos"
	"tvsched/internal/store"
)

// localRender renders a result as a pure function of the cell — the
// experiments layer's run report would import this package.
func localRender(cfg tvsched.Config, res tvsched.Result) ([]byte, error) {
	return json.Marshal(struct {
		Benchmark, Scheme string
		Seed              uint64
		Committed, Cycles uint64
	}{cfg.Benchmark, cfg.Scheme.String(), cfg.Seed, res.Stats.Committed, res.Stats.Cycles})
}

// phaseCounter counts session lifecycle phases across concurrent cells.
type phaseCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *phaseCounter) hook(phase string, _ time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == nil {
		p.n = make(map[string]int)
	}
	p.n[phase]++
}

func (p *phaseCounter) count(phase string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[phase]
}

// localPlan is 2 benchmarks × 2 schemes × 2 seeds of tiny real cells: 8
// cells in 4 warm groups.
func localPlan(t *testing.T, checkpoint bool) *Plan {
	t.Helper()
	plan, err := NewPlan(Spec{
		Benchmarks:   []string{"bzip2", "sjeng"},
		Schemes:      []string{"ABS", "FFS"},
		Seeds:        []uint64{1, 2},
		Instructions: 2000,
		Warmup:       2000,
		Checkpoint:   &checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// executeLocal runs plan through lr on 4 workers, every cell's phases
// counted by pc, and returns the report lines.
func executeLocal(t *testing.T, plan *Plan, lr *LocalRunner, pc *phaseCounter) []Line {
	t.Helper()
	run := func(ctx context.Context, cell Cell) CellResult {
		cell.Config.PhaseHook = pc.hook
		return lr.Run(ctx, cell)
	}
	var out bytes.Buffer
	stats, err := Execute(context.Background(), plan, nil, run, &out, Options{Workers: 4})
	if err != nil || stats.Errors() != 0 {
		t.Fatalf("execute: %v, %d failed cells", err, stats.Errors())
	}
	var lines []Line
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var l Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	if len(lines) != plan.Total() {
		t.Fatalf("%d lines, want %d", len(lines), plan.Total())
	}
	return lines
}

// sameReports fails unless both runs embed byte-identical reports.
func sameReports(t *testing.T, a, b []Line) {
	t.Helper()
	for i := range a {
		if !bytes.Equal(a[i].Report, b[i].Report) {
			t.Fatalf("cell %d: report %s, want %s", i, b[i].Report, a[i].Report)
		}
	}
}

// everyCell fails unless every line carries the cache annotation want.
func everyCell(t *testing.T, lines []Line, want string) {
	t.Helper()
	for _, l := range lines {
		if l.Cache != want {
			t.Fatalf("cell %d is %q, want %q", l.Index, l.Cache, want)
		}
	}
}

// TestLocalRunnerRestoresEveryCell: a checkpointed campaign pays one donor
// warmup per warm group, and every cell — each group's leader included —
// restores it.
func TestLocalRunnerRestoresEveryCell(t *testing.T) {
	plan := localPlan(t, true)
	var pc phaseCounter
	lines := executeLocal(t, plan, &LocalRunner{Checkpoint: true, Render: localRender}, &pc)
	if got := pc.count("warmup_neutral"); got != plan.WarmGroups() {
		t.Fatalf("%d neutral warmups, want one per warm group (%d)", got, plan.WarmGroups())
	}
	everyCell(t, lines, "restored")
}

// TestLocalRunnerCheckpointOffIsCold: without checkpoints every cell warms
// up on its own, and the reports are byte-identical to a checkpointed run.
func TestLocalRunnerCheckpointOffIsCold(t *testing.T) {
	var pc phaseCounter
	warm := executeLocal(t, localPlan(t, true), &LocalRunner{Checkpoint: true, Render: localRender}, &pc)
	cold := executeLocal(t, localPlan(t, false), &LocalRunner{Render: localRender}, &pc)
	everyCell(t, cold, "cold")
	sameReports(t, warm, cold)
}

// TestLocalRunnerStoreHits: a second runner over the first one's store
// simulates nothing and answers every cell from the store, byte-identical.
func TestLocalRunnerStoreHits(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	plan := localPlan(t, true)
	var first, second phaseCounter
	a := executeLocal(t, plan, &LocalRunner{Checkpoint: true, Store: st, Render: localRender}, &first)
	b := executeLocal(t, plan, &LocalRunner{Checkpoint: true, Store: st, Render: localRender}, &second)
	if n := second.count("run"); n != 0 {
		t.Fatalf("second runner simulated %d cells, want 0", n)
	}
	everyCell(t, b, "hit")
	sameReports(t, a, b)
}

// TestLocalRunnerFailedSnapshotReleads: a snapshot production that fails is
// not memoized, so a later cell of the same warm group leads it again and
// restores.
func TestLocalRunnerFailedSnapshotReleads(t *testing.T) {
	plan := localPlan(t, true)
	lr := &LocalRunner{Checkpoint: true, Render: localRender}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	first := plan.Cell(0)
	if res := lr.Run(canceled, first); res.Class != ClassError || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cell under a canceled context: class %v err %v", res.Class, res.Err)
	}
	if n := lr.snaps.Memo.Len(); n != 0 {
		t.Fatalf("the failed production left %d snapshots behind", n)
	}
	later := plan.Cell(1)
	for i := 1; later.Config.WarmKey() != first.Config.WarmKey(); i++ {
		later = plan.Cell(i)
	}
	var pc phaseCounter
	later.Config.PhaseHook = pc.hook
	res := lr.Run(context.Background(), later)
	if res.Err != nil || res.Class != ClassRestored {
		t.Fatalf("later cell of the group: class %v err %v, want restored", res.Class, res.Err)
	}
	if pc.count("warmup_neutral") != 1 || lr.snaps.Memo.Len() != 1 {
		t.Fatalf("%d donor warmups, %d snapshots; want the later cell to lead one",
			pc.count("warmup_neutral"), lr.snaps.Memo.Len())
	}
}

// waitSignal is a context that reports its first Done call. A cell whose
// duplicate is already leading consults its context only to wait for that
// lead, so the call marks the cell as joined.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// TestLocalRunnerDuplicateIsShared: a plan that repeats a seed addresses one
// digest from two cells. With the first cell's lead held open, the second
// joins it: one simulation, and the second cell is "shared" — not "hit",
// which names bytes that already existed, as a third request finds.
func TestLocalRunnerDuplicateIsShared(t *testing.T) {
	off := false
	plan, err := NewPlan(Spec{Seeds: []uint64{7, 7}, Instructions: 2000, Warmup: 2000, Checkpoint: &off})
	if err != nil {
		t.Fatal(err)
	}
	rendering, release := make(chan struct{}), make(chan struct{})
	var renders sync.Once
	lr := &LocalRunner{Render: func(cfg tvsched.Config, res tvsched.Result) ([]byte, error) {
		renders.Do(func() {
			close(rendering)
			<-release
		})
		return localRender(cfg, res)
	}}
	var pc phaseCounter
	cells := [2]Cell{plan.Cell(0), plan.Cell(1)}
	for i := range cells {
		cells[i].Config.PhaseHook = pc.hook
	}
	var results [2]CellResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		results[0] = lr.Run(context.Background(), cells[0])
	}()
	<-rendering
	joined := &waitSignal{Context: context.Background(), waiting: make(chan struct{})}
	go func() {
		defer wg.Done()
		results[1] = lr.Run(joined, cells[1])
	}()
	<-joined.waiting
	close(release)
	wg.Wait()

	if pc.count("run") != 1 {
		t.Fatalf("%d simulations for one digest, want 1", pc.count("run"))
	}
	if r := results[0]; r.Err != nil || r.Class != ClassCold || r.Cache != "cold" {
		t.Fatalf("leading cell: %+v", r)
	}
	if r := results[1]; r.Err != nil || r.Class != ClassShared || r.Cache != "shared" {
		t.Fatalf("joining cell: class %v cache %q err %v, want shared", r.Class, r.Cache, r.Err)
	}
	if !bytes.Equal(results[0].Body, results[1].Body) {
		t.Fatal("the joining cell got different bytes")
	}
	if r := lr.Run(context.Background(), cells[1]); r.Class != ClassHit || r.Cache != "hit" {
		t.Fatalf("settled duplicate: class %v cache %q, want hit", r.Class, r.Cache)
	}
}

// releasePlan is 3 benchmarks × 2 schemes × 2 seeds of tiny real cells: 12
// cells in 6 warm groups, the 2 groups of one benchmark interleaved (seeds
// vary fastest).
func releasePlan(t *testing.T) *Plan {
	t.Helper()
	on := true
	plan, err := NewPlan(Spec{
		Benchmarks:   []string{"bzip2", "mcf", "sjeng"},
		Schemes:      []string{"ABS", "FFS"},
		Seeds:        []uint64{1, 2},
		Instructions: 2000,
		Warmup:       2000,
		Checkpoint:   &on,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// executeReleasing runs plan through a fresh checkpointing LocalRunner on
// workers workers, journaled in j (nil for none). It returns the donor
// warmups the run paid and the most snapshots the runner held at any
// lifecycle phase of any cell, and fails unless the runner ends holding none.
func executeReleasing(t *testing.T, plan *Plan, j *Journal, workers int) (donors, peak int, stats Stats) {
	t.Helper()
	lr := &LocalRunner{Checkpoint: true, Render: localRender}
	var pc phaseCounter
	var mu sync.Mutex
	run := func(ctx context.Context, cell Cell) CellResult {
		cell.Config.PhaseHook = func(phase string, d time.Duration) {
			pc.hook(phase, d)
			mu.Lock()
			peak = max(peak, lr.snaps.Memo.Len())
			mu.Unlock()
		}
		return lr.Run(ctx, cell)
	}
	stats, err := Execute(context.Background(), plan, j, run, io.Discard, Options{Workers: workers})
	if err != nil || stats.Errors() != 0 {
		t.Fatalf("execute: %v, %d failed cells", err, stats.Errors())
	}
	if n := lr.snaps.Memo.Len(); n != 0 {
		t.Fatalf("the runner still holds %d snapshots after the campaign", n)
	}
	return pc.count("warmup_neutral"), peak, stats
}

// TestLocalRunnerReleasesSnapshots: the runner drops a warm group's snapshot
// once the group's last cell has finished. It holds at most the interleaved
// groups plus one per worker, none at the end, and still pays exactly one
// donor warmup per warm group.
func TestLocalRunnerReleasesSnapshots(t *testing.T) {
	plan := releasePlan(t)
	const workers, interleaved = 2, 2
	donors, peak, _ := executeReleasing(t, plan, nil, workers)
	if donors != plan.WarmGroups() {
		t.Fatalf("%d donor warmups, want one per warm group (%d)", donors, plan.WarmGroups())
	}
	if peak < 1 || peak > interleaved+workers {
		t.Fatalf("held up to %d snapshots, want 1..%d", peak, interleaved+workers)
	}
}

// TestLocalRunnerReleasesAfterResume: a resumed campaign counts only the
// cells its journal lacks. It pays one donor per warm group that still has
// cells to run and releases every snapshot it made.
func TestLocalRunnerReleasesAfterResume(t *testing.T) {
	plan := releasePlan(t)
	path := filepath.Join(t.TempDir(), "c.tvcj")
	j, err := OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	executeReleasing(t, plan, j, 2)
	j.Close()
	// Tear the journal's tail back to about the first third of the cells.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.TearTail(path, st.Size()*2/3); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	pending := make(map[string]bool)
	for i := 0; i < plan.Total(); i++ {
		if !j.Done(i) {
			pending[plan.Cell(i).Config.WarmKey()] = true
		}
	}
	done := j.DoneCount()
	if done == 0 || len(pending) == 0 || len(pending) == plan.WarmGroups() {
		t.Fatalf("tear left %d of %d cells journaled and %d of %d groups with cells to run: want both counts strictly between",
			done, plan.Total(), len(pending), plan.WarmGroups())
	}
	donors, _, stats := executeReleasing(t, plan, j, 2)
	if donors != len(pending) {
		t.Fatalf("resume paid %d donor warmups, want one per group with cells left (%d)", donors, len(pending))
	}
	if stats.Replayed != done {
		t.Fatalf("resume replayed %d cells, want %d", stats.Replayed, done)
	}
}
