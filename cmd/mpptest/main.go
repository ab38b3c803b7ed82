// Command mpptest derives the machine-dependent parameter vector of a
// simulated cluster the way the paper does on hardware: ping-pong sweeps
// for Ts/Tb (MPPTest), timed probes for tc and tm (Perfmon, LMbench
// lat_mem_rd), power profiling for the idle and delta powers (PowerPack)
// and a DVFS sweep for the power-law exponent γ. It exits 0, 1 if a probe
// failed, 2 on a usage error (internal/cli's ladder).
//
// Usage:
//
//	mpptest [-cluster systemg] [-freq 2.8e9] [-noise] [-gamma]
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/microbench"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mpptest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platform := cli.MachineFlags(fs, "frequency in Hz (0 = nominal)")
	noise := fs.Bool("noise", false, "measure with hardware-like noise")
	gamma := fs.Bool("gamma", true, "sweep DVFS ladder and fit γ")
	seed := fs.Int64("seed", 1, "noise seed")
	if _, err := cli.Parse(fs, args); err != nil {
		return err
	}
	spec, f, err := platform()
	if err != nil {
		return err
	}
	res, err := microbench.DeriveMachineVector(spec, f, *seed, *noise, *gamma)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "measured machine-dependent vector for %s:\n  %v\n", spec.Name, res)

	truth, err := spec.AtFrequency(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spec truth:\n  f=%v: tc=%v tm=%v Ts=%v Tb=%v Psys-idle=%v ΔPc=%v ΔPm=%v γ=%.2f\n",
		truth.Freq, truth.Tc, truth.Tm, truth.Ts, truth.Tb, truth.PsysIdle, truth.DeltaPc, truth.DeltaPm, spec.Gamma)
	return nil
}
