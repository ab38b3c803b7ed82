// Command figures regenerates the tables and figures of the paper's
// evaluation section against the simulated clusters.
//
// Measured sweeps run their points across a worker pool (one simulated
// cluster per point, seeded per point); the model-surface figures 5–9
// evaluate the model directly. The output is byte-identical at any
// -workers value.
//
// Usage:
//
//	figures [-fig 2a|2b|3|4|5|6|7|8|9|10|all] [-quick] [-csv] [-seed N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/figures"
)

func main() {
	figID := flag.String("fig", "all", "figure id to regenerate, or 'all'")
	quick := flag.Bool("quick", false, "reduced problem sizes and rank counts")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	seed := flag.Int64("seed", 42, "measurement-noise seed")
	workers := flag.Int("workers", 0, "concurrent sweep points per figure (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	opts := figures.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	gens := figures.All()
	if *figID != "all" {
		g, err := figures.ByID(*figID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		gens = []figures.Generator{g}
	}
	for _, g := range gens {
		fig, err := g.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", g.ID, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# figure %s: %s\n%s", fig.ID, fig.Title, fig.CSV)
		} else {
			fmt.Println(fig)
		}
	}
}
