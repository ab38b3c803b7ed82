// Command powerpack profiles a kernel run on the simulated cluster the
// way PowerPack profiles a real node: per-component power sampled on a
// fixed grid, rendered as a strip chart (Figure 10) or CSV. It exits 0,
// 1 if the run failed, 2 on a usage error (internal/cli's ladder).
//
// Usage:
//
//	powerpack -bench ft -class S -p 4 [-interval 0.01] [-csv]
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/power"
	"repro/internal/units"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerpack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "ft", "kernel: ep, ft, cg, is, mg")
	class := fs.String("class", "T", "problem class: T, S, W, A, B")
	p := fs.Int("p", 4, "number of ranks")
	platform := cli.MachineFlags(fs, "")
	interval := fs.Float64("interval", 0, "sampling interval in seconds (0 = auto ~200 samples)")
	csv := fs.Bool("csv", false, "emit CSV instead of the strip chart")
	rank := fs.Int("rank", 0, "node (rank) to profile; -1 = whole cluster")
	seed := fs.Int64("seed", 1, "noise seed")
	if _, err := cli.Parse(fs, args); err != nil {
		return err
	}
	spec, _, err := platform()
	if err != nil {
		return err
	}
	mk := func() (npb.Kernel, error) { return suite.New(*bench, *class) }
	switch _, err := mk(); {
	case err != nil:
		return cli.Usage(err)
	case *p < 1:
		return cli.Usagef("-p %d must be at least 1", *p)
	case *rank < -1 || *rank >= *p:
		return cli.Usagef("-rank %d outside [-1, %d)", *rank, *p)
	case *interval != 0 && units.Seconds(*interval) < power.MinInterval:
		return cli.Usagef("-interval %g below the %v sampling floor", *interval, power.MinInterval)
	}
	var ranks []int
	if *rank >= 0 {
		ranks = []int{*rank}
	}
	rep, trace, err := suite.Profile(mk, spec, *p, units.Seconds(*interval), *seed, ranks...)
	if err != nil {
		return err
	}
	if *csv {
		return trace.WriteCSV(stdout)
	}
	fmt.Fprintf(stdout, "%s\n", rep)
	fmt.Fprint(stdout, trace.Render(96))
	fmt.Fprintf(stdout, "peak %v, mean %v, trace energy %v\n", trace.PeakTotal(), trace.MeanTotal(), trace.Energy())
	return nil
}
