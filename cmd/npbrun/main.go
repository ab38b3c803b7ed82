// Command npbrun executes one NAS-style kernel on a simulated
// power-aware cluster and reports time, energy, counters and the traced
// communication volume.
//
// Usage:
//
//	npbrun -bench ft -class S -p 8 [-cluster systemg] [-freq 2.4e9]
//	       [-noise] [-seed N] [-counters]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/npb/cg"
	"repro/internal/npb/ep"
	"repro/internal/npb/ft"
	"repro/internal/npb/is"
	"repro/internal/npb/mg"
	"repro/internal/units"
)

func makeKernel(bench, class string) (npb.Kernel, error) {
	switch strings.ToLower(bench) {
	case "ep":
		cfg, ok := ep.Classes()[class]
		if !ok {
			return nil, fmt.Errorf("ep: unknown class %q", class)
		}
		return ep.New(cfg)
	case "ft":
		cfg, ok := ft.Classes()[class]
		if !ok {
			return nil, fmt.Errorf("ft: unknown class %q", class)
		}
		return ft.New(cfg)
	case "cg":
		cfg, ok := cg.Classes()[class]
		if !ok {
			return nil, fmt.Errorf("cg: unknown class %q", class)
		}
		return cg.New(cfg)
	case "is":
		cfg, ok := is.Classes()[class]
		if !ok {
			return nil, fmt.Errorf("is: unknown class %q", class)
		}
		return is.New(cfg)
	case "mg":
		cfg, ok := mg.Classes()[class]
		if !ok {
			return nil, fmt.Errorf("mg: unknown class %q", class)
		}
		return mg.New(cfg)
	default:
		return nil, fmt.Errorf("unknown benchmark %q (have ep, ft, cg, is, mg)", bench)
	}
}

func main() {
	bench := flag.String("bench", "ep", "kernel: ep, ft, cg, is, mg")
	class := flag.String("class", "S", "problem class: T, S, W, A, B")
	p := flag.Int("p", 4, "number of ranks")
	clusterName := flag.String("cluster", "systemg", "cluster preset: systemg, dori")
	freq := flag.Float64("freq", 0, "CPU frequency in Hz (0 = nominal)")
	noise := flag.Bool("noise", true, "enable hardware-like execution/measurement noise")
	seed := flag.Int64("seed", 1, "noise seed")
	counters := flag.Bool("counters", false, "dump per-rank performance counters")
	flag.Parse()

	spec, ok := machine.Presets()[strings.ToLower(*clusterName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown cluster %q\n", *clusterName)
		os.Exit(2)
	}
	k, err := makeKernel(*bench, *class)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := cluster.Config{
		Spec:  spec,
		Freq:  units.Hertz(*freq),
		Ranks: *p,
		Alpha: k.Alpha(),
		Seed:  *seed,
	}
	if *noise {
		cfg.Noise = cluster.DefaultNoise()
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := npb.Run(cl, k)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(rep)
	fmt.Printf("energy breakdown: %v\n", rep.Measured)
	fmt.Printf("phases:\n%smessages M=%d bytes B=%.4g\n", cl.Tracer().Summary(), rep.M, rep.B)
	if *counters {
		fmt.Printf("counters:\n%s", cl.Counters())
	}
}
