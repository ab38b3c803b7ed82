// DVFS tuning: the paper's §V.B.7 decision problem — should a code run
// at a higher or lower CPU frequency for energy efficiency, and what is
// the best (p, f) operating point under a whole-system power budget?
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

func main() {
	spec := machine.SystemG()

	// Part 1: EE versus frequency per benchmark (fixed n and p).
	type study struct {
		vec app.Vector
		n   float64
	}
	studies := []study{
		{app.FT(20), 1 << 21},
		{app.EP(), 1e8},
		{app.CG(11, 15), 75000},
	}
	p := 16
	fmt.Printf("EE at p=%d across the DVFS ladder:\n%8s", p, "f")
	for _, s := range studies {
		fmt.Printf(" %10s", s.vec.Name)
	}
	fmt.Println()
	for _, f := range spec.Frequencies {
		mp, err := spec.AtFrequency(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8v", f)
		for _, s := range studies {
			pr, err := (&core.Model{Machine: mp, App: s.vec.At(s.n, p)}).Predict()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %10.4f", pr.EE)
		}
		fmt.Println()
	}
	fmt.Println("→ CG rewards scaling f UP (memory-anchored E1, compute-heavy overhead);")
	fmt.Println("  FT and EP are frequency-insensitive, as the paper observes.")

	// Part 2: power-constrained operating points (the title's concern).
	fmt.Println("\nbest (p, f) under a power budget, CG at n=75000:")
	for _, budget := range []units.Watts{300, 800, 2000, 5000} {
		op, err := analysis.OptimizeUnderPowerBudget(
			machine.Homogeneous(spec), app.CG(11, 15), 75000, []int{1, 2, 4, 8, 16, 32, 64}, budget)
		if err != nil {
			fmt.Printf("  %6v: infeasible\n", budget)
			continue
		}
		fmt.Printf("  %6v: p=%-3d f=%v  Tp=%v  EE=%.4f  avg power=%v\n",
			budget, op.P, op.Freq, op.Tp, op.EE, op.AvgPower)
	}
}
