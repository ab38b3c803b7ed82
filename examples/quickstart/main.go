// Quickstart: evaluate the iso-energy-efficiency model for the FT
// benchmark on the SystemG preset and print EE across processor counts —
// the five-minute tour of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
)

func main() {
	// 1. A machine-dependent parameter vector: SystemG at its nominal
	//    2.8 GHz (tc, tm, Ts, Tb, ΔPc, ΔPm, Psys-idle).
	spec := machine.SystemG()
	mp, err := spec.Base()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %s @ %v  (tc=%v, tm=%v, Ts=%v, Tb=%v, Psys-idle=%v)\n\n",
		spec.Name, mp.Freq, mp.Tc, mp.Tm, mp.Ts, mp.Tb, mp.PsysIdle)

	// 2. An application-dependent vector: the FT closed form
	//    (α, Won, Woff, ΔWon, ΔWoff, M, B as functions of n and p).
	ftVec := app.FT(20)
	n := float64(1 << 21) // 2M grid points

	// 3. Evaluate the model chain (Eq. 13, 15, 19, 21) per p.
	fmt.Printf("%6s %12s %12s %10s %10s %10s\n", "p", "Tp", "Ep", "speedup", "EEF", "EE")
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		pr, err := (&core.Model{Machine: mp, App: ftVec.At(n, p)}).Predict()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %12v %12v %10.2f %10.4f %10.4f\n",
			p, pr.Tp, pr.Ep, pr.Speedup, pr.EEF, pr.EE)
	}
	fmt.Println("\nEE = 1/(1+EEF): 1.0 is ideal iso-energy-efficiency;" +
		" growing p buys speedup at an energy-efficiency price.")
}
