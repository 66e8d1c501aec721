// policycompare reproduces the paper's central comparison on one benchmark:
// all five timing-error handling schemes side by side in a faulty
// environment, with overheads relative to fault-free execution — the
// per-benchmark content of Table 1 and Figures 4/8.
//
//	go run ./examples/policycompare            # sjeng at 0.97 V
//	go run ./examples/policycompare mcf 1.04
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"

	"tvsched"
)

func main() {
	bench := "sjeng"
	vdd := tvsched.VHighFault
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	if len(os.Args) > 2 {
		v, err := strconv.ParseFloat(os.Args[2], 64)
		if err != nil {
			log.Fatalf("bad voltage %q: %v", os.Args[2], err)
		}
		vdd = v
	}

	// Each scheme's overheads are relative to the same machine running
	// fault-free at the nominal supply.
	cfg := tvsched.Config{Benchmark: bench, Scheme: tvsched.ABS, VDD: tvsched.VNominal, Instructions: 200000}
	base, err := simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	type row struct {
		scheme   tvsched.Scheme
		ipc      float64
		perf, ed float64 // relative IPC and energy-delay degradation
	}
	var rows []row
	var epOv float64
	for _, s := range []tvsched.Scheme{tvsched.Razor, tvsched.EP, tvsched.ABS, tvsched.FFS, tvsched.CDS} {
		cfg.Scheme, cfg.VDD = s, vdd
		res, err := simulate(cfg)
		if err != nil {
			log.Fatalf("%s/%v: %v", bench, s, err)
		}
		r := row{s, res.IPC, max(0, base.IPC/res.IPC-1), max(0, res.Energy.EDP()/base.Energy.EDP()-1)}
		if s == tvsched.EP {
			epOv = r.perf
		}
		rows = append(rows, r)
	}

	fmt.Printf("%s @ %.2fV — overheads vs fault-free execution\n", bench, vdd)
	fmt.Printf("%-6s %8s %12s %12s %14s\n", "scheme", "IPC", "perf ovhd", "ED ovhd", "vs EP (perf)")
	for _, r := range rows {
		rel := "-"
		if epOv > 0 && r.scheme != tvsched.Razor && r.scheme != tvsched.EP {
			rel = fmt.Sprintf("%.2fx", r.perf/epOv)
		}
		fmt.Printf("%-6v %8.3f %11.2f%% %11.2f%% %14s\n",
			r.scheme, r.ipc, 100*r.perf, 100*r.ed, rel)
	}
	fmt.Println("\nThe violation-aware schemes (ABS/FFS/CDS) confine each predicted")
	fmt.Println("violation to the faulty instruction and its dependents; EP stalls the")
	fmt.Println("whole pipeline per violation and Razor replays every one of them.")
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
