// Command npbrun executes one NAS-style kernel on a simulated
// power-aware cluster and reports time, energy, counters and the traced
// communication volume. It exits 0, 1 if the run failed, 2 on a usage
// error (internal/cli's ladder).
//
// Usage:
//
//	npbrun -bench ft -class S -p 8 [-cluster systemg] [-freq 2.4e9]
//	       [-noise] [-seed N] [-counters]
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/npb"
	"repro/internal/npb/suite"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("npbrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "ep", "kernel: ep, ft, cg, is, mg")
	class := fs.String("class", "S", "problem class: T, S, W, A, B")
	p := fs.Int("p", 4, "number of ranks")
	platform := cli.MachineFlags(fs, "CPU frequency in Hz (0 = nominal)")
	noise := fs.Bool("noise", true, "enable hardware-like execution/measurement noise")
	seed := fs.Int64("seed", 1, "noise seed")
	counters := fs.Bool("counters", false, "dump per-rank performance counters")
	if _, err := cli.Parse(fs, args); err != nil {
		return err
	}
	spec, freq, err := platform()
	if err != nil {
		return err
	}
	k, err := suite.New(*bench, *class)
	if err != nil {
		return cli.Usage(err)
	}
	if *p < 1 {
		return cli.Usagef("-p %d must be at least 1", *p)
	}
	cfg := cluster.Config{Spec: spec, Freq: freq, Ranks: *p, Alpha: k.Alpha(), Seed: *seed}
	if *noise {
		cfg.Noise = cluster.DefaultNoise()
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	rep, err := npb.Run(cl, k)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, rep)
	fmt.Fprintf(stdout, "energy breakdown: %v\n", rep.Measured)
	fmt.Fprintf(stdout, "phases:\n%smessages M=%d bytes B=%.4g\n", cl.Tracer().Summary(), rep.M, rep.B)
	if *counters {
		fmt.Fprintf(stdout, "counters:\n%s", cl.Counters())
	}
	return nil
}
