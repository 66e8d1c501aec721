// pathlocality demonstrates the property the whole paper rests on (§S1):
// dynamic instances of the same static instruction sensitize strikingly
// similar logic paths, which is why a PC-indexed predictor can see timing
// violations coming several cycles early. It runs the gate-level
// sensitized-path study on the synthesized components and then shows the
// consequence at the architecture level: per-PC fault behaviour is nearly
// deterministic, so TEP coverage is high.
//
//	go run ./examples/pathlocality
package main

import (
	"context"
	"fmt"
	"log"

	"tvsched"
	"tvsched/internal/sensitize"
)

func main() {
	// Circuit level: |φ|/|ψ| commonality of sensitized gates across dynamic
	// instances of the same static PC (Figure 7).
	fmt.Println("Sensitized-path commonality (gate level, |φ|/|ψ|):")
	opt := sensitize.DefaultOptions()
	results, avg := sensitize.MeasureAll(opt)
	fmt.Printf("%-10s", "")
	for c := sensitize.CompIQSelect; c < sensitize.NumComponents; c++ {
		fmt.Printf(" %12s", c)
	}
	fmt.Println()
	for _, prof := range sensitize.SPEC2000() {
		fmt.Printf("%-10s", prof.Name)
		for c := sensitize.CompIQSelect; c < sensitize.NumComponents; c++ {
			for _, r := range results {
				if r.Benchmark == prof.Name && r.Component == c {
					fmt.Printf(" %12.3f", r.Commonality)
				}
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "average")
	for c := sensitize.CompIQSelect; c < sensitize.NumComponents; c++ {
		fmt.Printf(" %12.3f", avg[c])
	}
	fmt.Println()

	// Architecture level: that locality is what the TEP converts into
	// early, accurate predictions.
	fmt.Println("\nConsequence at the architecture level (0.97V, ABS):")
	fmt.Printf("%-12s %10s %12s\n", "benchmark", "FR%", "TEP coverage")
	for _, bench := range []string{"bzip2", "sjeng", "mcf"} {
		res, err := simulate(tvsched.Config{
			Benchmark:    bench,
			Scheme:       tvsched.ABS,
			VDD:          tvsched.VHighFault,
			Instructions: 120000,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %9.2f%% %11.1f%%\n", bench, 100*res.FaultRate, 100*res.Coverage)
	}
	fmt.Println("\nHigh commonality at the gate level is what makes per-PC timing")
	fmt.Println("violations repeatable — and hence predictable — at the pipe level.")
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
