// customkernel drives the pipeline model with hand-written assembly instead
// of the synthetic workload profiles, using the library's mini-ISA. Two
// kernels bracket the slack spectrum the paper's results depend on: a serial
// pointer chase (no slack — every violated cycle shows) and an unrolled
// streaming sum (abundant slack — violations vanish into the schedule).
//
//	go run ./examples/customkernel
package main

import (
	"context"
	"fmt"
	"log"

	"tvsched"
)

// chase follows a linked list: every load's address depends on the previous
// load. This is the worst case for any per-instruction delay.
const chase = `
    li  r1, 0x100000      ; list head
walk:
    ld  r1, 0(r1)         ; p = *p
    ld  r1, 0(r1)
    ld  r1, 0(r1)
    ld  r1, 0(r1)
    ld  r1, 0(r1)
    ld  r1, 0(r1)
    ld  r1, 0(r1)
    ld  r1, 0(r1)
    bne r1, r0, walk
    halt
`

// stream sums four independent strided arrays; the machine can always find
// work while one load waits, so confined +1-cycle delays disappear.
const stream = `
    li  r1, 0x200000
    li  r2, 0x300000
    li  r3, 0x400000
    li  r4, 0x500000
    li  r9, 0            ; i
    li  r10, 100000      ; n
loop:
    ld  r5, 0(r1)
    ld  r6, 0(r2)
    ld  r7, 0(r3)
    ld  r8, 0(r4)
    add r11, r11, r5
    add r12, r12, r6
    add r13, r13, r7
    add r14, r14, r8
    addi r1, r1, 8
    addi r2, r2, 8
    addi r3, r3, 8
    addi r4, r4, 8
    addi r9, r9, 1
    blt r9, r10, loop
    halt
`

func run(name, src string, init func(*tvsched.AsmMachine)) {
	kinds := []struct {
		label  string
		scheme tvsched.Scheme
		vdd    float64
	}{
		{"fault-free @1.10V", tvsched.ABS, tvsched.VNominal},
		{"EP         @0.97V", tvsched.EP, tvsched.VHighFault},
		{"ABS        @0.97V", tvsched.ABS, tvsched.VHighFault},
	}
	ctx := context.Background()
	var base float64
	for _, k := range kinds {
		s, err := tvsched.NewAsmSession(tvsched.Config{
			Scheme:       k.scheme,
			VDD:          k.vdd,
			Instructions: 120000,
			Warmup:       30000,
			// Small kernels have few static PCs; raise the susceptibility
			// so some of them land in the fault-prone tail.
			FaultBias: 6,
		}, src, init)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Warmup(ctx); err != nil {
			log.Fatal(err)
		}
		res, err := s.Run(ctx, tvsched.RunOpts{})
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = res.IPC
		}
		ov := 100 * (base/res.IPC - 1)
		if ov < 0 {
			ov = 0
		}
		fmt.Printf("  %-18s IPC %6.3f   FR %5.2f%%   overhead %5.2f%%\n",
			k.label, res.IPC, 100*res.FaultRate, ov)
	}
	fmt.Println()
}

func main() {
	fmt.Println("pointer chase (serial — zero slack):")
	run("chase", chase, func(m *tvsched.AsmMachine) {
		// Build a 448-node circular linked list with a 64-byte stride
		// (28KB: L1-resident, so the chain speed is dependence-bound).
		const head, stride, nodes = 0x100000, 64, 448
		for i := 0; i < nodes; i++ {
			next := uint64(head + (i+1)%nodes*stride)
			m.Poke(uint64(head+i*stride), next)
		}
		m.SetReg(1, head)
	})

	fmt.Println("streaming sum (independent — abundant slack):")
	run("stream", stream, nil)

	fmt.Println("Error Padding stalls the whole machine once per predicted violation,")
	fmt.Println("so its overhead tracks FR x IPC on any kernel. Violation-aware")
	fmt.Println("scheduling confines each violation to one issue slot — nearly free")
	fmt.Println("even on the zero-slack pointer chase.")
}
