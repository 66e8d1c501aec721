// Command tvpaths runs the circuit-level analyses of the paper's
// supplemental study: structural reports for the four synthesized components
// (Table 3), Monte-Carlo statistical timing at the three studied supply
// voltages, and the sensitized-path commonality study (Figure 7).
//
// Usage:
//
//	tvpaths                  # component report + commonality study
//	tvpaths -timing          # add per-component SSTA at 1.10/1.04/0.97 V
//	tvpaths -trials 2000     # more Monte-Carlo samples
//	tvpaths -pprof :8080     # profile a long Monte-Carlo run
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"tvsched/internal/experiments"
	"tvsched/internal/fault"
	"tvsched/internal/netlist"
	"tvsched/internal/ssta"
)

func main() {
	var (
		timing = flag.Bool("timing", false, "run Monte-Carlo SSTA per component")
		trials = flag.Int("trials", 500, "Monte-Carlo trials per corner")
		seed   = flag.Uint64("seed", 1, "analysis seed")
		pprofA = flag.String("pprof", "", "serve /debug/pprof on this address while running (e.g. :8080)")
	)
	flag.Parse()

	if *pprofA != "" {
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tvpaths: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "tvpaths: serving http://%s/debug/pprof\n", *pprofA)
	}

	fmt.Println(experiments.FormatTable3(experiments.Table3()))

	if *timing {
		fmt.Println("Statistical timing (mu+2sigma delay, FO4-normalized units)")
		fmt.Printf("%-10s %10s %10s %10s %10s\n", "module", "1.10V", "1.04V", "0.97V", "Vmin@95%")
		comps := append(netlist.Components(), netlist.Mul32())
		for _, nl := range comps {
			var row [3]float64
			for i, v := range []float64{fault.VNominal, fault.VLowFault, fault.VHighFault} {
				r := ssta.Analyze(nl, ssta.DefaultVariation(), v, *trials, *seed)
				row[i] = r.MuPlus2Sigma()
			}
			// The voltage at which the component first violates a cycle
			// budgeted with 95% margin at nominal supply.
			budget := ssta.CycleBudget(nl, ssta.DefaultVariation(), 0.95, *trials, *seed)
			vmin := ssta.VMin(nl, ssta.DefaultVariation(), budget, *trials/4+1, *seed)
			fmt.Printf("%-10s %10.2f %10.2f %10.2f %10.3f\n", nl.Name, row[0], row[1], row[2], vmin)
		}
		fmt.Println()
	}

	fmt.Println(experiments.FormatFigure7(experiments.Figure7(*seed)))
}
