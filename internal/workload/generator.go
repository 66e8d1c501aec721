package workload

import (
	"fmt"
	"slices"

	"tvsched/internal/isa"
	"tvsched/internal/rng"
)

func fmtErr(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// CodeBase is the virtual address of the first static instruction; data
// regions are placed far above it.
const CodeBase = 0x0040_0000

// Architectural register conventions used by the generator: r0 is the
// hardwired zero, r28..r31 are long-lived (stack/global/loop-invariant)
// registers written rarely, r1..r27 rotate as short-lived destinations.
const (
	firstRotReg = 1
	lastRotReg  = 27
	numLongRegs = 4 // r28..r31
)

// ringLen is the depth of the generator's ring of recent destination
// registers: a dependency distance reaches at most ringLen-1 writers back.
const ringLen = 32

// Data layout: per-instruction hot stripes low, a shared warm region in the
// middle, and an ever-advancing cold frontier far above.
const (
	hotBase  = 0x1000_0000
	warmBase = 0x4000_0000
	coldBase = 0x8000_0000
)

// memStrides are the hot-region strides a static memory instruction draws
// from.
var memStrides = [...]uint8{8, 8, 16, 32, 64, 64}

// staticInst is one instruction of the synthetic static program. Its class,
// dependency distances and memory stride are fixed at program-construction
// time, which is what gives dynamic instances of the same PC the behavioural
// repeatability the paper measures in §S1. Everything else is implied: the
// PC by its index (pcOf), the memory region by the profile (a strided walk
// over [hotBase, hotBase+HotBytes)), and the walk's cursor lives in the
// generator, the only part of a memory instruction that changes as it runs.
type staticInst struct {
	class  isa.Class
	dest   int8
	d1     int8 // dependency distance of src1 (instructions back); 0 = long-lived
	d2     int8 // dependency distance of src2; -1 = no src2
	long1  int8 // long-lived register used when d1 == 0
	long2  int8
	stride uint8 // hot-region stride of a load or store
}

// pcOf is the address of static instruction i.
func pcOf(i int) uint64 { return CodeBase + 4*uint64(i) }

// loop is a sequence of basic blocks, insts[start:end] of its program,
// executed some number of iterations per entry; the generator walks loops
// with Zipf-skewed popularity.
type loop struct {
	start, end int
}

// Program is the static program of one synthetic benchmark: a pure function
// of (profile, seed), read-only once built, so any number of generators may
// walk one program at the same time.
type Program struct {
	prof  Profile
	insts []staticInst // every loop body, blocks concatenated, in PC order
	loops []loop
	// cursors holds each static instruction's initial hot-region cursor,
	// in PC order (0 for non-memory instructions).
	cursors []uint64
	// src and rotReg are the build's RNG and rotating register as they stood
	// when the build finished; every generator starts from copies.
	src    rng.Source
	rotReg int8
}

// Generator emits the committed dynamic instruction stream of one synthetic
// benchmark by walking its Program. It is an infinite, deterministic stream:
// the same (profile, seed) always produces the same trace.
type Generator struct {
	prog    *Program
	src     rng.Source
	cursors []uint64 // per static instruction, in PC order

	// dynamic state
	coldNext uint64
	curLoop  int
	iterLeft int
	pos      int // index into current loop body
	ring     [ringLen]int8
	ringPos  int
	rotReg   int8
	emitted  uint64
}

// NewProgram builds the static program for prof, seeded deterministically
// from the profile name and seed.
func NewProgram(prof Profile, seed uint64) (*Program, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	h := seed
	for _, c := range prof.Name {
		h = rng.Mix(h ^ uint64(c))
	}
	p := &Program{prof: prof, src: *rng.New(h), rotReg: firstRotReg}
	p.build()
	return p, nil
}

// NewGenerator builds the static program for prof and returns a generator
// over it.
func NewGenerator(prof Profile, seed uint64) (*Generator, error) {
	p, err := NewProgram(prof, seed)
	if err != nil {
		return nil, err
	}
	return p.NewGenerator(), nil
}

// NewGenerator returns a fresh generator at the start of p's stream. It
// shares p, which it never writes.
func (p *Program) NewGenerator() *Generator {
	g := &Generator{
		prog: p, src: p.src, cursors: slices.Clone(p.cursors),
		rotReg: p.rotReg, coldNext: coldBase,
	}
	for i := range g.ring {
		g.ring[i] = int8(28 + i%numLongRegs) // pre-seed with long-lived regs
	}
	g.enterLoop(0)
	return g
}

// StaticFootprint returns the number of static instructions in the program;
// they sit at CodeBase, CodeBase+4, ….
func (p *Program) StaticFootprint() int { return len(p.insts) }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prog.prof }

// build lays out the static loops, blocks and instructions.
func (p *Program) build() {
	prof := &p.prof
	blockLen := int(1.0/prof.Mix[isa.Branch] + 0.5)
	if blockLen < 3 {
		blockLen = 3
	}
	nBlocks := prof.StaticInsts / blockLen
	if nBlocks < 2 {
		nBlocks = 2
	}
	nLoops := nBlocks / prof.LoopBlocks
	if nLoops < 1 {
		nLoops = 1
	}
	n := nLoops * prof.LoopBlocks * blockLen
	p.insts = make([]staticInst, 0, n)
	p.cursors = make([]uint64, 0, n)
	p.loops = make([]loop, 0, nLoops)

	// Renormalized non-branch class mix.
	var nb [isa.NumClasses]float64
	var nbSum float64
	for c := isa.IntALU; c < isa.NumClasses; c++ {
		if c != isa.Branch {
			nb[c] = prof.Mix[c]
			nbSum += prof.Mix[c]
		}
	}

	for li := 0; li < nLoops; li++ {
		start := len(p.insts)
		// Each loop has an induction register: a long-lived register updated
		// serially once per iteration (i = i + stride) and consumed by much
		// of the body. This is the high-fanout producer pattern the CDL of
		// §3.5.2 detects (criticality = many dependents in the issue queue).
		induction := int8(28 + li%numLongRegs)
		for b := 0; b < prof.LoopBlocks; b++ {
			for k := 0; k < blockLen-1; k++ {
				if b == 0 && k == 0 {
					// Induction update: serial chain across iterations.
					p.add(staticInst{
						class: isa.IntALU, dest: induction,
						d1: 0, long1: induction, d2: -1,
					}, 0)
					continue
				}
				si := staticInst{dest: -1, d2: -1}
				// Draw class from the renormalized mix.
				u := p.src.Float64() * nbSum
				for c := isa.IntALU; c < isa.NumClasses; c++ {
					if c == isa.Branch {
						continue
					}
					if u < nb[c] {
						si.class = c
						break
					}
					u -= nb[c]
				}
				p.assignOperands(&si, induction)
				var cursor uint64
				if si.class.IsMem() {
					cursor = p.assignMemStream(&si)
				}
				p.add(si, cursor)
			}
			// Block-terminating branch.
			si := staticInst{class: isa.Branch, dest: -1, d2: -1}
			p.assignOperands(&si, induction)
			p.add(si, 0)
		}
		p.loops = append(p.loops, loop{start: start, end: len(p.insts)})
	}
}

// add appends a static instruction and its initial hot-region cursor.
func (p *Program) add(si staticInst, cursor uint64) {
	p.insts = append(p.insts, si)
	p.cursors = append(p.cursors, cursor)
}

// assignOperands fixes destination and dependency distances for a static
// instruction.
func (p *Program) assignOperands(si *staticInst, induction int8) {
	prof := &p.prof
	if si.class.HasDest() {
		si.dest = p.rotReg
		p.rotReg++
		if p.rotReg > lastRotReg {
			p.rotReg = firstRotReg
		}
	}
	// longReg picks a long-lived source, preferring the loop's induction
	// register (pointer/index arithmetic dominates real loop bodies).
	longReg := func() int8 {
		if p.src.Float64() < 0.6 {
			return induction
		}
		return int8(28 + p.src.Intn(numLongRegs))
	}
	// depDist draws a dependency distance within the writer ring, or 0 (a
	// long-lived source) when the draw reaches past it.
	depDist := func() int8 {
		d := 1 + p.src.Geometric(prof.DepP)
		if d > ringLen-1 {
			return 0
		}
		return int8(d)
	}
	// src1
	if p.src.Float64() < prof.LongDepFrac {
		si.d1 = 0
		si.long1 = longReg()
	} else if si.d1 = depDist(); si.d1 == 0 {
		si.long1 = longReg()
	}
	// src2 for two-source classes (alu/mul/div/store); loads use one source
	// (the base register), branches one (the condition).
	switch si.class {
	case isa.IntALU, isa.IntMul, isa.IntDiv, isa.Store:
		if p.src.Float64() < prof.LongDepFrac {
			si.d2 = 0
			si.long2 = longReg()
		} else if si.d2 = depDist(); si.d2 == 0 {
			si.long2 = longReg()
		}
	default:
		si.d2 = -1
	}
}

// assignMemStream binds a static memory instruction to a strided walk of the
// shared hot (L1-resident) region and returns the walk's starting cursor;
// per-access excursions to the warm and cold regions are decided
// dynamically in Next.
func (p *Program) assignMemStream(si *staticInst) uint64 {
	si.stride = memStrides[p.src.Intn(len(memStrides))]
	stride := uint64(si.stride)
	return uint64(p.src.Intn(int(p.prof.HotBytes/stride))) * stride
}

// enterLoop switches the dynamic walk to loop li and draws an iteration count.
func (g *Generator) enterLoop(li int) {
	g.curLoop = li
	g.pos = 0
	it := int(g.src.Exp(g.prog.prof.LoopMeanIter)) + 1
	g.iterLeft = it
}

// Next returns the next committed instruction. The stream is infinite.
func (g *Generator) Next() isa.Inst {
	prof := &g.prog.prof
	lp := g.prog.loops[g.curLoop]
	idx := lp.start + g.pos
	si := g.prog.insts[idx]
	pc := pcOf(idx)
	in := isa.Inst{PC: pc, Class: si.class, Dest: si.dest, Src1: -1, Src2: -1}

	// Resolve sources against the dynamic ring of recent writers.
	if si.d1 == 0 {
		in.Src1 = si.long1
	} else {
		in.Src1 = g.ring[(g.ringPos-int(si.d1)+2*len(g.ring))%len(g.ring)]
	}
	if si.d2 >= 0 {
		if si.d2 == 0 {
			in.Src2 = si.long2
		} else {
			in.Src2 = g.ring[(g.ringPos-int(si.d2)+2*len(g.ring))%len(g.ring)]
		}
	}

	// Memory address: usually a strided walk of the hot region; per access,
	// an excursion to the warm region (L1 miss, L2 hit) with probability
	// L2Rate, or to a fresh cold line (misses everywhere) with probability
	// DRAMRate — these rates set the benchmark's memory-stall structure.
	if si.class.IsMem() {
		u := g.src.Float64()
		switch {
		case u < prof.DRAMRate:
			in.Addr = g.coldNext
			g.coldNext += 64
		case u < prof.DRAMRate+prof.L2Rate:
			lines := prof.WarmBytes / 64
			in.Addr = warmBase + uint64(g.src.Intn(int(lines)))*64
		default:
			c := g.cursors[idx]
			in.Addr = hotBase + c
			if c += uint64(si.stride); c >= prof.HotBytes {
				c = 0
			}
			g.cursors[idx] = c
		}
	}

	// Record destination in the writer ring.
	if si.dest >= 0 {
		g.ringPos = (g.ringPos + 1) % len(g.ring)
		g.ring[g.ringPos] = si.dest
	}

	// Control flow.
	last := idx == lp.end-1
	if si.class == isa.Branch {
		if last {
			// Loop back-edge: taken while iterations remain.
			if g.iterLeft > 1 {
				g.iterLeft--
				in.Taken = true
				in.Target = pcOf(lp.start)
				in.NextPC = in.Target
				g.pos = 0
			} else {
				// Exit: pick the next loop by Zipf popularity.
				in.Taken = false
				next := g.src.Zipf(len(g.prog.loops), prof.ZipfTheta)
				g.enterLoop(next)
				in.NextPC = pcOf(g.prog.loops[next].start)
				in.Target = 0
			}
		} else {
			// Intra-body conditional branch: not taken on the committed
			// path (falls through to the next block).
			in.Taken = false
			in.NextPC = pc + 4
			g.pos++
		}
	} else {
		in.NextPC = pc + 4
		g.pos++
		if last { // non-branch at end cannot happen (blocks end in branches)
			g.pos = 0
		}
	}
	g.emitted++
	return in
}

// WarmRegion returns the base address and size of the benchmark's warm
// (L2-resident) data region, for cache prefill before a measured phase.
func (g *Generator) WarmRegion() (base, size uint64) {
	return warmBase, g.prog.prof.WarmBytes
}

// Emitted returns the number of instructions generated so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// StaticFootprint returns the number of static instructions in the program.
func (g *Generator) StaticFootprint() int { return len(g.cursors) }

// Trace collects the next n instructions into a slice (testing convenience).
func (g *Generator) Trace(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
