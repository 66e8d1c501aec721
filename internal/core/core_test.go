package core

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tvsched/internal/isa"
)

func TestSchemeStringsAndParse(t *testing.T) {
	for _, s := range Schemes() {
		parsed, err := ParseScheme(s.String())
		if err != nil || parsed != s {
			t.Errorf("round trip failed for %v: %v %v", s, parsed, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("parsed bogus scheme")
	}
}

func TestSchemeTextRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var back Scheme
		if err := back.UnmarshalText(text); err != nil || back != s {
			t.Errorf("round trip %v -> %q -> %v (%v)", s, text, back, err)
		}
	}
	if _, err := NumSchemes.MarshalText(); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("out-of-range marshal: %v", err)
	}
	var s Scheme
	if err := s.UnmarshalText([]byte("bogus")); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("bogus unmarshal not matchable: %v", err)
	}
}

func TestSchemeProperties(t *testing.T) {
	if Razor.UsesTEP() {
		t.Error("Razor must not use the TEP")
	}
	for _, s := range []Scheme{EP, ABS, FFS, CDS} {
		if !s.UsesTEP() {
			t.Errorf("%v must use the TEP", s)
		}
	}
	for _, s := range Proposed() {
		if !s.Confined() {
			t.Errorf("%v must confine penalties", s)
		}
	}
	if EP.Confined() || Razor.Confined() {
		t.Error("baselines must not be confined")
	}
}

func TestSchemePolicies(t *testing.T) {
	// §4.2: fault-free and EP use age-based selection.
	if EP.Policy() != AgeBased || Razor.Policy() != AgeBased || ABS.Policy() != AgeBased {
		t.Error("Razor/EP/ABS must use age-based selection")
	}
	if FFS.Policy() != FaultyFirst {
		t.Error("FFS policy")
	}
	if CDS.Policy() != CriticalityDriven {
		t.Error("CDS policy")
	}
}

func TestRespondDecisionTable(t *testing.T) {
	// Unpredicted faults replay everywhere, in every scheme.
	for _, s := range Schemes() {
		for st := isa.Fetch; st < isa.NumStages; st++ {
			if got := Respond(s, false, st); got != ActReplay {
				t.Errorf("Respond(%v, unpredicted, %v) = %v, want replay", s, st, got)
			}
		}
	}
	// Razor replays even when the fault would have been predictable.
	if got := Respond(Razor, true, isa.Issue); got != ActReplay {
		t.Errorf("Razor predicted issue fault => %v", got)
	}
	// Fetch/decode predicted faults replay (§2.2).
	for _, st := range []isa.Stage{isa.Fetch, isa.Decode} {
		if got := Respond(ABS, true, st); got != ActReplay {
			t.Errorf("ABS predicted %v fault => %v, want replay", st, got)
		}
	}
	// In-order engine: stall-based handling.
	for _, st := range []isa.Stage{isa.Rename, isa.Dispatch, isa.Retire} {
		if got := Respond(ABS, true, st); got != ActFrontStall {
			t.Errorf("ABS predicted %v fault => %v, want front-stall", st, got)
		}
		if got := Respond(EP, true, st); got != ActGlobalStall {
			t.Errorf("EP predicted %v fault => %v, want global stall", st, got)
		}
	}
	// OoO engine: EP stalls globally, proposed schemes confine.
	for st := isa.Issue; st <= isa.Writeback; st++ {
		if got := Respond(EP, true, st); got != ActGlobalStall {
			t.Errorf("EP predicted %v => %v", st, got)
		}
		for _, s := range Proposed() {
			if got := Respond(s, true, st); got != ActConfined {
				t.Errorf("%v predicted %v => %v, want confined", s, st, got)
			}
		}
	}
}

func TestActionStrings(t *testing.T) {
	names := map[Action]string{
		ActNone: "none", ActConfined: "confined", ActGlobalStall: "global-stall",
		ActFrontStall: "front-stall", ActReplay: "replay",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestAgeModulo(t *testing.T) {
	if Age(0, 0) != 0 {
		t.Error("same timestamp age 0")
	}
	if Age(0, 5) != 5 {
		t.Error("simple age")
	}
	// Wraparound: allocated at 60, now counter has wrapped to 3 => age 7.
	if Age(60, 3) != 7 {
		t.Errorf("wrap age = %d, want 7", Age(60, 3))
	}
}

func cands(ts []uint8, faulty, critical []bool) []Candidate {
	out := make([]Candidate, len(ts))
	for i := range ts {
		out[i] = Candidate{Index: i, Timestamp: ts[i]}
		if faulty != nil {
			out[i].Faulty = faulty[i]
		}
		if critical != nil {
			out[i].Critical = critical[i]
		}
	}
	return out
}

func TestABSOrdersByAge(t *testing.T) {
	c := cands([]uint8{5, 2, 9, 0}, nil, nil)
	Order(AgeBased, c, 10)
	want := []int{3, 1, 0, 2} // ages: 10, 8, 5, 1 -> oldest first
	for i, w := range want {
		if c[i].Index != w {
			t.Fatalf("ABS order %v", c)
		}
	}
}

func TestABSWraparound(t *testing.T) {
	// Timestamps allocated just before wrap are older than ones after.
	c := cands([]uint8{62, 1}, nil, nil)
	Order(AgeBased, c, 3)
	if c[0].Index != 0 {
		t.Fatalf("wraparound age ordering broken: %v", c)
	}
}

func TestFFSPrefersFaulty(t *testing.T) {
	c := cands([]uint8{1, 5, 3}, []bool{false, true, false}, nil)
	Order(FaultyFirst, c, 10)
	if c[0].Index != 1 {
		t.Fatalf("FFS did not pick faulty first: %v", c)
	}
	// Remaining by age: ts=1 (age 9) before ts=3 (age 7).
	if c[1].Index != 0 || c[2].Index != 2 {
		t.Fatalf("FFS tail not age ordered: %v", c)
	}
}

func TestFFSFallsBackToAge(t *testing.T) {
	c := cands([]uint8{4, 1}, []bool{false, false}, nil)
	Order(FaultyFirst, c, 8)
	if c[0].Index != 1 {
		t.Fatalf("FFS without faulty must be age based: %v", c)
	}
}

func TestCDSPrefersFaultyCritical(t *testing.T) {
	// A faulty-but-not-critical entry must NOT be promoted by CDS.
	c := cands([]uint8{1, 5, 6}, []bool{false, true, true}, []bool{false, false, true})
	Order(CriticalityDriven, c, 10)
	if c[0].Index != 2 {
		t.Fatalf("CDS did not pick faulty+critical first: %v", c)
	}
	// The rest by age: ts=1(age 9) then ts=5(age 5).
	if c[1].Index != 0 || c[2].Index != 1 {
		t.Fatalf("CDS tail not age ordered: %v", c)
	}
}

func TestCDSCriticalAloneNotPromoted(t *testing.T) {
	c := cands([]uint8{1, 9}, []bool{false, false}, []bool{false, true})
	Order(CriticalityDriven, c, 10)
	if c[0].Index != 0 {
		t.Fatalf("non-faulty critical entry must not be promoted: %v", c)
	}
}

func TestOrderDeterministicTies(t *testing.T) {
	a := cands([]uint8{3, 3, 3}, nil, nil)
	b := cands([]uint8{3, 3, 3}, nil, nil)
	Order(AgeBased, a, 5)
	Order(AgeBased, b, 5)
	for i := range a {
		if a[i].Index != b[i].Index {
			t.Fatal("tie breaking not deterministic")
		}
	}
}

// Property: Order is a permutation and, for ABS, ages are non-increasing.
func TestOrderPermutationProperty(t *testing.T) {
	f := func(tsRaw []uint8, now uint8) bool {
		if len(tsRaw) > 32 {
			tsRaw = tsRaw[:32]
		}
		c := make([]Candidate, len(tsRaw))
		for i, ts := range tsRaw {
			c[i] = Candidate{Index: i, Timestamp: ts & TimestampMask}
		}
		Order(AgeBased, c, now&TimestampMask)
		seen := make(map[int]bool)
		for i := range c {
			if seen[c[i].Index] {
				return false
			}
			seen[c[i].Index] = true
			if i > 0 && Age(c[i-1].Timestamp, now&TimestampMask) < Age(c[i].Timestamp, now&TimestampMask) {
				return false
			}
		}
		return len(seen) == len(tsRaw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDLThreshold(t *testing.T) {
	cdl := DefaultCDL()
	if cdl.CT != 8 {
		t.Fatalf("paper's best CT is 8, got %d", cdl.CT)
	}
	if cdl.Critical(7) {
		t.Error("7 matches must not be critical at CT=8")
	}
	if !cdl.Critical(8) || !cdl.Critical(20) {
		t.Error("8+ matches must be critical")
	}
}

func TestFUSRBasic(t *testing.T) {
	f := NewFUSR(2, 1, 1)
	if f.NumLanes() != 4 {
		t.Fatalf("lanes = %d", f.NumLanes())
	}
	// Two simple lanes available at cycle 0.
	l0 := f.Available(FUSimple, 0)
	if l0 < 0 {
		t.Fatal("no simple lane")
	}
	f.Issue(l0, 0, 1, true, false)
	l1 := f.Available(FUSimple, 0)
	if l1 < 0 || l1 == l0 {
		t.Fatalf("second simple lane: %d", l1)
	}
	f.Issue(l1, 0, 1, true, false)
	if f.Available(FUSimple, 0) >= 0 {
		t.Fatal("third simple issue in one cycle")
	}
	// Both free again next cycle (pipelined single-cycle).
	if f.Available(FUSimple, 1) < 0 {
		t.Fatal("simple lane not free next cycle")
	}
}

func TestFUSRFaultyFreezesSlot(t *testing.T) {
	// §3.3.3 single-cycle: FUSR off for one cycle behind a faulty inst.
	f := NewFUSR(1, 0, 0)
	f.Issue(0, 5, 1, true, true)
	if f.Available(FUSimple, 6) >= 0 {
		t.Fatal("lane usable the cycle after a faulty instruction")
	}
	if f.Available(FUSimple, 7) < 0 {
		t.Fatal("lane not released after freeze")
	}
}

func TestFUSRNonPipelined(t *testing.T) {
	f := NewFUSR(0, 1, 0)
	f.Issue(0, 0, 12, false, false) // div occupies 12 cycles
	if f.Available(FUComplex, 11) >= 0 {
		t.Fatal("non-pipelined unit free too early")
	}
	if f.Available(FUComplex, 12) < 0 {
		t.Fatal("non-pipelined unit not released")
	}
}

func TestFUSRNonPipelinedFaulty(t *testing.T) {
	// §3.3.3: busy one extra cycle beyond expected completion.
	f := NewFUSR(0, 1, 0)
	f.Issue(0, 0, 12, false, true)
	if f.Available(FUComplex, 12) >= 0 {
		t.Fatal("faulty non-pipelined unit must hold one extra cycle")
	}
	if f.Available(FUComplex, 13) < 0 {
		t.Fatal("unit never released")
	}
}

func TestFUSRPipelinedMultiCycleFaulty(t *testing.T) {
	// §3.3.3: pipelined multi-cycle unit stops accepting new work until the
	// faulty instruction completes.
	f := NewFUSR(0, 1, 0)
	f.Issue(0, 0, 3, true, true) // faulty mul
	for cy := uint64(1); cy <= 3; cy++ {
		if f.Available(FUComplex, cy) >= 0 {
			t.Fatalf("pipelined unit accepted work at cycle %d behind faulty op", cy)
		}
	}
	if f.Available(FUComplex, 4) < 0 {
		t.Fatal("unit never resumed")
	}
}

func TestFUSRPipelinedMultiCycleClean(t *testing.T) {
	// A clean pipelined mul accepts a new op every cycle.
	f := NewFUSR(0, 1, 0)
	f.Issue(0, 0, 3, true, false)
	if f.Available(FUComplex, 1) < 0 {
		t.Fatal("clean pipelined unit must accept next cycle")
	}
}

func TestFUSRFreezeAndReset(t *testing.T) {
	f := NewFUSR(1, 0, 0)
	f.Freeze(0, 4)
	if f.Available(FUSimple, 4) >= 0 {
		t.Fatal("freeze ignored")
	}
	f.Reset()
	if f.Available(FUSimple, 0) < 0 {
		t.Fatal("reset ignored")
	}
}

func TestKindFor(t *testing.T) {
	if KindFor(true, false) != FUMemory || KindFor(false, true) != FUComplex || KindFor(false, false) != FUSimple {
		t.Fatal("KindFor mapping")
	}
}

func TestFUKindString(t *testing.T) {
	if FUSimple.String() != "simple" || FUComplex.String() != "complex" || FUMemory.String() != "memory" {
		t.Fatal("kind names")
	}
}

// orderBefore is the comparison Order used before candidates carried a
// precomputed key: whether a outranks b under policy p. It stays here as the
// reference TestOrderMatchesReference checks the keyed sort against.
func orderBefore(p Policy, a, b Candidate, now uint8) bool {
	if pa, pb := refPrio(p, a), refPrio(p, b); pa != pb {
		return pa > pb
	}
	if aa, ab := Age(a.Timestamp, now), Age(b.Timestamp, now); aa != ab {
		return aa > ab
	}
	return a.Index < b.Index
}

// refPrio is the reference priority class: 1 selects ahead of 0.
func refPrio(p Policy, c Candidate) int {
	switch p {
	case FaultyFirst:
		if c.Faulty {
			return 1
		}
	case CriticalityDriven:
		if c.Faulty && c.Critical {
			return 1
		}
	}
	return 0
}

// TestOrderMatchesReference checks the keyed Order against a stable sort by
// orderBefore on random candidate sets of up to 64 entries (the largest
// issue queue a preset builds) under all three policies. Timestamps are
// consecutive mod-64 stamps of a queue that has wrapped (an old entry can
// be 64 or more allocations behind a young one), with ties; indices are a
// shuffle of distinct values, as the pipeline's are.
func TestOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20000; trial++ {
		n := r.Intn(65)
		now := uint8(r.Intn(256))
		c := make([]Candidate, n)
		perm := r.Perm(n + r.Intn(8))
		alloc := r.Intn(512)
		for i := range c {
			alloc += r.Intn(5) // 0 repeats a stamp: an age tie
			c[i] = Candidate{Index: perm[i], Timestamp: uint8(alloc) & TimestampMask,
				Faulty: r.Intn(3) == 0, Critical: r.Intn(2) == 0}
		}
		for _, pol := range []Policy{AgeBased, FaultyFirst, CriticalityDriven} {
			got := slices.Clone(c)
			want := slices.Clone(c)
			Order(pol, got, now&TimestampMask)
			sort.SliceStable(want, func(i, j int) bool { return orderBefore(pol, want[i], want[j], now&TimestampMask) })
			for i := range got {
				if got[i].Index != want[i].Index {
					t.Fatalf("trial %d %v: position %d holds index %d, reference %d\ncands %+v",
						trial, pol, i, got[i].Index, want[i].Index, c)
				}
			}
		}
	}
}

// TestFUSRAvailableMatchesLinearScan checks the per-kind lane range against
// the scan over every lane Available used to make: same lowest lane, or -1,
// for random lane counts and reservation histories.
func TestFUSRAvailableMatchesLinearScan(t *testing.T) {
	linear := func(f *FUSR, kind FUKind, cycle uint64) int {
		for i := range f.lanes {
			if f.lanes[i].Kind == kind && f.lanes[i].nextFree <= cycle {
				return i
			}
		}
		return -1
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		f := NewFUSR(r.Intn(5), r.Intn(3), r.Intn(4))
		for cycle := uint64(0); cycle < 200; cycle++ {
			for k := FUKind(0); k < NumFUKinds; k++ {
				got, want := f.Available(k, cycle), linear(f, k, cycle)
				if got != want {
					t.Fatalf("trial %d cycle %d %v: Available = %d, linear scan %d", trial, cycle, k, got, want)
				}
				if got >= 0 && r.Intn(2) == 0 {
					f.Issue(got, cycle, 1+r.Intn(4), r.Intn(2) == 0, r.Intn(4) == 0)
				}
			}
			if f.NumLanes() > 0 && r.Intn(8) == 0 {
				f.Freeze(r.Intn(f.NumLanes()), cycle+uint64(r.Intn(3)))
			}
			if r.Intn(16) == 0 {
				f.ShiftAll(cycle)
			}
		}
	}
}
