// Command isoee evaluates the iso-energy-efficiency model: point
// predictions, EE surfaces over (p, f) or (p, n), the iso-energy
// function n(p), and power-budget operating points. It exits 0, 1 if the
// model has no answer (an EE target or budget no point meets), 2 on a
// usage error (internal/cli's ladder).
//
// Usage:
//
//	isoee -app ft -n 2097152 -p 16                      # one prediction
//	isoee -app cg -n 75000 -surface pf                  # Figure-9 style
//	isoee -app ft -surface pn                           # Figure-6 style
//	isoee -app ft -iso 0.75                             # n(p) table
//	isoee -app cg -n 75000 -budget 2000                 # power planning
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/app"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("isoee", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "ft", "application vector: ft, ep, cg, is, mg")
	n := fs.Float64("n", 1<<21, "problem size")
	p := fs.Int("p", 16, "parallelism")
	platform := cli.MachineFlags(fs, "CPU frequency in Hz (0 = nominal)")
	surface := fs.String("surface", "", "render a surface: pf or pn")
	iso := fs.Float64("iso", 0, "solve the iso-energy function n(p) for this EE target")
	budget := fs.Float64("budget", 0, "optimise (p, f) under this power budget in watts")
	if _, err := cli.Parse(fs, args); err != nil {
		return err
	}
	spec, f, err := platform()
	if err != nil {
		return err
	}
	vector, err := app.ByName(*appName)
	switch {
	case err != nil:
		return cli.Usage(err)
	// app.Vector.At panics on n ≤ 0 and p < 1, so both are checked here;
	// n/16, the (p, n) surface's first column, is where a tiny n underflows.
	case *n/16 <= 0:
		return cli.Usagef("-n %g must be positive", *n)
	case *p < 1:
		return cli.Usagef("-p %d must be at least 1", *p)
	case *iso > 1:
		return cli.Usagef("-iso %g outside (0, 1]", *iso)
	}
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128}

	switch {
	case *surface != "":
		var s analysis.Surface
		switch *surface {
		case "pf":
			s, err = analysis.SurfacePF(spec, vector, *n, ps, spec.Frequencies)
		case "pn":
			s, err = analysis.SurfacePN(spec, vector, f, ps, []float64{*n / 16, *n / 4, *n, *n * 4, *n * 16})
		default:
			return cli.Usagef("-surface %q: have pf, pn", *surface)
		}
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, s.Render())
	case *iso > 0:
		fn, err := analysis.IsoEnergyFunction(spec, vector, f, ps[1:], *iso, 16, 1e12)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "iso-energy-efficiency function for %s, EE ≥ %.2f:\n", vector.Name, *iso)
		for _, pp := range ps[1:] {
			fmt.Fprintf(stdout, "  p=%4d  n ≥ %.4g\n", pp, fn[pp])
		}
	case *budget > 0:
		op, err := analysis.OptimizeUnderPowerBudget(machine.Homogeneous(spec), vector, *n, ps, units.Watts(*budget))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "best operating point under %.0f W for %s at n=%g:\n", *budget, vector.Name, *n)
		fmt.Fprintf(stdout, "  p=%d f=%v: Tp=%v Ep=%v EE=%.4f avg power=%v\n",
			op.P, op.Freq, op.Tp, op.Ep, op.EE, op.AvgPower)
	default:
		mp, err := spec.AtFrequency(f)
		if err != nil {
			return err
		}
		pr, err := (&core.Model{Machine: mp, App: vector.At(*n, *p)}).Predict()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s on %s at n=%g p=%d f=%v:\n", vector.Name, spec.Name, *n, *p, f)
		fmt.Fprintf(stdout, "  T1=%v Tp=%v speedup=%.2f PE=%.4f\n", pr.T1, pr.Tp, pr.Speedup, pr.PE)
		fmt.Fprintf(stdout, "  E1=%v Ep=%v Eo=%v\n", pr.E1, pr.Ep, pr.Eo)
		fmt.Fprintf(stdout, "  EEF=%.4f EE=%.4f avg power=%v\n", pr.EEF, pr.EE, pr.AvgPower)
	}
	return nil
}
