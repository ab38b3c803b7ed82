// Command figures regenerates the tables and figures of the paper's
// evaluation section against the simulated clusters. It exits 0, 1 if a
// generator failed, 2 on a usage error (internal/cli's ladder).
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
	"io"

	"repro/internal/cli"
	"repro/internal/figures"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figID := fs.String("fig", "all", "figure id to regenerate, or 'all'")
	quick := fs.Bool("quick", false, "reduced problem sizes and rank counts")
	csv := fs.Bool("csv", false, "emit machine-readable CSV instead of tables")
	seed := fs.Int64("seed", 42, "measurement-noise seed")
	workers := fs.Int("workers", 0, "concurrent sweep points per figure (0 = GOMAXPROCS, 1 = sequential)")
	if _, err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *workers < 0 {
		return cli.Usagef("-workers %d must not be negative", *workers)
	}
	gens := figures.All()
	if *figID != "all" {
		g, err := figures.ByID(*figID)
		if err != nil {
			return cli.Usage(err)
		}
		gens = []figures.Generator{g}
	}
	for _, g := range gens {
		fig, err := g.Run(figures.Options{Quick: *quick, Seed: *seed, Workers: *workers})
		if err != nil {
			return fmt.Errorf("figure %s: %w", g.ID, err)
		}
		if *csv {
			fmt.Fprintf(stdout, "# figure %s: %s\n%s", fig.ID, fig.Title, fig.CSV)
		} else {
			fmt.Fprintln(stdout, fig)
		}
	}
	return nil
}
