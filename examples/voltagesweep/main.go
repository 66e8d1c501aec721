// voltagesweep explores the trade the paper's introduction motivates:
// "microprocessors can operate at a tighter frequency, where predictable
// errors frequently occur and are tolerated with minimal performance loss."
// It sweeps the supply voltage from the fault-free nominal point down
// through the paper's two faulty environments and prints, per scheme, the
// fault rate and the performance overhead — showing where stall-based
// tolerance becomes expensive while violation-aware scheduling stays flat.
//
//	go run ./examples/voltagesweep
//	go run ./examples/voltagesweep gcc
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"tvsched"
)

func main() {
	bench := "bzip2"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	const insts = 150000

	base, err := simulate(tvsched.Config{
		Benchmark: bench, Scheme: tvsched.ABS, VDD: tvsched.VNominal, Instructions: insts,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: fault-free IPC %.3f at %.2fV\n\n", bench, base.IPC, tvsched.VNominal)
	fmt.Printf("%-7s %7s | %14s %14s %14s\n", "VDD", "FR%", "EP ovhd", "ABS ovhd", "Razor ovhd")

	for _, vdd := range []float64{1.08, 1.06, tvsched.VLowFault, 1.01, 0.99, tvsched.VHighFault} {
		var fr float64
		ov := map[tvsched.Scheme]float64{}
		for _, s := range []tvsched.Scheme{tvsched.EP, tvsched.ABS, tvsched.Razor} {
			res, err := simulate(tvsched.Config{
				Benchmark: bench, Scheme: s, VDD: vdd, Instructions: insts,
			})
			if err != nil {
				log.Fatal(err)
			}
			fr = res.FaultRate
			o := base.IPC/res.IPC - 1
			if o < 0 {
				o = 0
			}
			ov[s] = o
		}
		fmt.Printf("%-7.2f %7.2f | %13.2f%% %13.2f%% %13.2f%%\n",
			vdd, 100*fr, 100*ov[tvsched.EP], 100*ov[tvsched.ABS], 100*ov[tvsched.Razor])
	}
	fmt.Println("\nAs voltage drops the fault rate climbs; EP and Razor overheads climb")
	fmt.Println("with it while violation-aware scheduling absorbs nearly all of it —")
	fmt.Println("the headroom that lets a core run at a tighter operating point.")
}

// simulate runs one configuration through the Session lifecycle: build the
// machine, warm it up at its operating point, then measure.
func simulate(cfg tvsched.Config) (tvsched.Result, error) {
	ctx := context.Background()
	s, err := tvsched.NewSession(cfg)
	if err != nil {
		return tvsched.Result{}, err
	}
	if err := s.Warmup(ctx); err != nil {
		return tvsched.Result{}, err
	}
	return s.Run(ctx, tvsched.RunOpts{})
}
