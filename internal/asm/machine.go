package asm

import (
	"fmt"

	"tvsched/internal/isa"
)

// Machine executes an assembled program architecturally and emits the
// committed dynamic stream. It implements the pipeline's Source interface;
// the stream is infinite (halt or falling off the end restarts at the top
// with machine state preserved, which is what a measurement loop wants).
type Machine struct {
	prog *Program
	pc   int // instruction index
	regs [isa.NumArchRegs]uint64
	mem  map[uint64]uint64

	restarts uint64
}

// NewMachine builds an interpreter over prog with zeroed registers and
// memory initialized from the program's .org/.word data directives.
func NewMachine(prog *Program) *Machine {
	m := &Machine{prog: prog, mem: make(map[uint64]uint64)}
	for a, v := range prog.data {
		m.mem[a] = v
	}
	return m
}

// Reg returns register r's current value (r0 reads as zero).
func (m *Machine) Reg(r int) uint64 {
	if r <= 0 || r >= isa.NumArchRegs {
		return 0
	}
	return m.regs[r]
}

// SetReg initializes a register (useful to pass kernel arguments).
func (m *Machine) SetReg(r int, v uint64) {
	if r > 0 && r < isa.NumArchRegs {
		m.regs[r] = v
	}
}

// Poke writes a memory word (kernel input data).
func (m *Machine) Poke(addr, v uint64) { m.mem[addr] = v }

// Peek reads a memory word.
func (m *Machine) Peek(addr uint64) uint64 { return m.mem[addr] }

// Restarts returns how many times the program wrapped (halt or fall-through).
func (m *Machine) Restarts() uint64 { return m.restarts }

// pcAddr converts an instruction index to its virtual address.
func pcAddr(idx int) uint64 { return CodeBase + uint64(idx)*4 }

// Step executes one instruction and returns its committed-trace record.
func (m *Machine) Step() isa.Inst {
	d := &m.prog.insts[m.pc]
	in := isa.Inst{PC: pcAddr(m.pc), Dest: -1, Src1: -1, Src2: -1}
	next := m.pc + 1
	wrap := false

	writeReg := func(r int8, v uint64) {
		if r > 0 {
			m.regs[r] = v
		}
	}
	src := func(r int8) uint64 {
		if r <= 0 {
			return 0
		}
		return m.regs[r]
	}

	switch d.op {
	case opLI:
		in.Class = isa.IntALU
		in.Dest = d.rd
		writeReg(d.rd, uint64(d.imm))
	case opADDI:
		in.Class = isa.IntALU
		in.Dest, in.Src1 = d.rd, d.rs
		writeReg(d.rd, src(d.rs)+uint64(d.imm))
	case opADD, opSUB, opAND, opOR, opXOR, opSLT, opMUL, opDIV:
		in.Dest, in.Src1, in.Src2 = d.rd, d.rs, d.rt
		a, b := src(d.rs), src(d.rt)
		var v uint64
		switch d.op {
		case opADD:
			in.Class, v = isa.IntALU, a+b
		case opSUB:
			in.Class, v = isa.IntALU, a-b
		case opAND:
			in.Class, v = isa.IntALU, a&b
		case opOR:
			in.Class, v = isa.IntALU, a|b
		case opXOR:
			in.Class, v = isa.IntALU, a^b
		case opSLT:
			in.Class = isa.IntALU
			if int64(a) < int64(b) {
				v = 1
			}
		case opMUL:
			in.Class, v = isa.IntMul, a*b
		case opDIV:
			in.Class = isa.IntDiv
			if b != 0 {
				v = a / b
			}
		}
		writeReg(d.rd, v)
	case opSLL, opSRL, opSRA:
		in.Class = isa.IntALU
		in.Dest, in.Src1 = d.rd, d.rs
		sh := uint(d.imm) & 63
		switch d.op {
		case opSLL:
			writeReg(d.rd, src(d.rs)<<sh)
		case opSRL:
			writeReg(d.rd, src(d.rs)>>sh)
		case opSRA:
			writeReg(d.rd, uint64(int64(src(d.rs))>>sh))
		}
	case opMV:
		in.Class = isa.IntALU
		in.Dest, in.Src1 = d.rd, d.rs
		writeReg(d.rd, src(d.rs))
	case opNOP:
		in.Class = isa.IntALU
		in.Dest = 31 // harmless scratch write keeps the record well-formed
		writeReg(31, m.regs[31])
	case opLD:
		in.Class = isa.Load
		in.Dest, in.Src1 = d.rd, d.rs
		addr := src(d.rs) + uint64(d.imm)
		if addr == 0 {
			addr = 8 // the timing model needs non-zero addresses
		}
		in.Addr = addr
		writeReg(d.rd, m.mem[addr])
	case opST:
		in.Class = isa.Store
		in.Src1, in.Src2 = d.rs, d.rd // address base, stored value
		addr := src(d.rs) + uint64(d.imm)
		if addr == 0 {
			addr = 8
		}
		in.Addr = addr
		m.mem[addr] = src(d.rd)
	case opBEQ, opBNE, opBLT, opBGE:
		in.Class = isa.Branch
		in.Src1, in.Src2 = d.rs, d.rt
		a, b := src(d.rs), src(d.rt)
		taken := false
		switch d.op {
		case opBEQ:
			taken = a == b
		case opBNE:
			taken = a != b
		case opBLT:
			taken = int64(a) < int64(b)
		case opBGE:
			taken = int64(a) >= int64(b)
		}
		if taken {
			in.Taken = true
			in.Target = pcAddr(d.target)
			next = d.target
		}
	case opJ:
		in.Class = isa.Branch
		in.Taken = true
		in.Target = pcAddr(d.target)
		next = d.target
	case opHALT:
		// Modeled as an always-taken branch back to the top.
		in.Class = isa.Branch
		in.Taken = true
		in.Target = pcAddr(0)
		next = 0
		wrap = true
	}

	if next >= len(m.prog.insts) {
		next = 0
		wrap = true
	}
	if wrap {
		m.restarts++
	}
	in.NextPC = pcAddr(next)
	m.pc = next
	return in
}

// Next implements the pipeline Source contract.
func (m *Machine) Next() isa.Inst { return m.Step() }

// RunPure executes n instructions functionally without recording a trace —
// for testing kernels' architectural semantics.
func (m *Machine) RunPure(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// Disassemble renders the program listing with addresses (diagnostics).
func (p *Program) Disassemble() string {
	names := make(map[opcode]string, len(opNames))
	for n, op := range opNames {
		names[op] = n
	}
	var b []byte
	for i, d := range p.insts {
		b = append(b, fmt.Sprintf("%#08x  %-5s", pcAddr(i), names[d.op])...)
		switch d.op {
		case opLI:
			b = append(b, fmt.Sprintf(" r%d, %d", d.rd, d.imm)...)
		case opADDI:
			b = append(b, fmt.Sprintf(" r%d, r%d, %d", d.rd, d.rs, d.imm)...)
		case opADD, opSUB, opAND, opOR, opXOR, opSLT, opMUL, opDIV:
			b = append(b, fmt.Sprintf(" r%d, r%d, r%d", d.rd, d.rs, d.rt)...)
		case opSLL, opSRL, opSRA:
			b = append(b, fmt.Sprintf(" r%d, r%d, %d", d.rd, d.rs, d.imm)...)
		case opMV:
			b = append(b, fmt.Sprintf(" r%d, r%d", d.rd, d.rs)...)
		case opLD, opST:
			b = append(b, fmt.Sprintf(" r%d, %d(r%d)", d.rd, d.imm, d.rs)...)
		case opBEQ, opBNE, opBLT, opBGE:
			b = append(b, fmt.Sprintf(" r%d, r%d, %#x", d.rs, d.rt, pcAddr(d.target))...)
		case opJ:
			b = append(b, fmt.Sprintf(" %#x", pcAddr(d.target))...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
