// Quickstart: simulate one benchmark under violation-aware scheduling in the
// paper's high-fault-rate environment and print the headline numbers.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"tvsched"
)

func main() {
	// Run bzip2 at 0.97 V — the paper's high-fault-rate environment — under
	// age-based violation-aware scheduling (ABS).
	res, err := simulate(tvsched.Config{
		Benchmark:    "bzip2",
		Scheme:       tvsched.ABS,
		VDD:          tvsched.VHighFault,
		Instructions: 200000,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("bzip2 @ 0.97V under ABS\n")
	fmt.Printf("  IPC:              %.3f\n", res.IPC)
	fmt.Printf("  fault rate:       %.2f%% of committed instructions\n", 100*res.FaultRate)
	fmt.Printf("  TEP coverage:     %.1f%% of violations predicted early\n", 100*res.Coverage)
	fmt.Printf("  confined events:  %d (penalty restricted to the faulty instruction)\n",
		res.Stats.ConfinedEvents)
	fmt.Printf("  replays:          %d (unpredicted violations)\n", res.Stats.Replays)
	fmt.Printf("  energy/instr:     %.1f pJ\n", res.Energy.EPI())

	// The same machine, fault-free, for reference.
	base, err := simulate(tvsched.Config{
		Benchmark:    "bzip2",
		Scheme:       tvsched.ABS,
		VDD:          tvsched.VNominal,
		Instructions: 200000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfault-free IPC %.3f -> overhead of tolerating a %.1f%% fault rate: %.2f%%\n",
		base.IPC, 100*res.FaultRate, 100*(base.IPC/res.IPC-1))
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
