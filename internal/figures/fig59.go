package figures

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/app"
	"repro/internal/machine"
	"repro/internal/units"
)

// Model-surface figures (5–9): these evaluate the closed-form
// application-dependent vectors (internal/app) against the SystemG
// machine vector across (p, f) or (p, n) grids — the 3-D plots of the
// paper rendered as tables. Every cell is one direct core.Model.Predict
// (analysis.SurfacePF / SurfacePN); nothing is cached, because each point
// is read once.

func sweepP(o Options) []int {
	if o.Quick {
		return []int{1, 4, 16}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128}
}

func sweepF() []units.Hertz {
	return []units.Hertz{2.0 * units.GHz, 2.2 * units.GHz, 2.4 * units.GHz, 2.6 * units.GHz, 2.8 * units.GHz}
}

// Fig5 reproduces Figure 5: EE_FT(p, f) at fixed n. Paper finding: p
// dominates; f has little effect on the communication-bound FT.
func Fig5(o Options) (Figure, error) {
	n := float64(1 << 21)
	s, err := analysis.SurfacePF(machine.SystemG(), app.FT(20), n, sweepP(o), sweepF())
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "5",
		Title: fmt.Sprintf("EE_FT over (p, f) at n=%g", n),
		Body:  s.Render(),
		CSV:   s.CSV(),
		Notes: []string{"paper: frequency has little impact on FT; increasing p dramatically decreases EE"},
	}, nil
}

// Fig6 reproduces Figure 6: EE_FT(p, n) at f = 2.8 GHz. Paper finding:
// increasing problem size n enhances energy efficiency.
func Fig6(o Options) (Figure, error) {
	ns := []float64{1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24}
	if o.Quick {
		ns = []float64{1 << 14, 1 << 18, 1 << 22}
	}
	s, err := analysis.SurfacePN(machine.SystemG(), app.FT(20), 2.8*units.GHz, sweepP(o), ns)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "6",
		Title: "EE_FT over (p, n) at f=2.8GHz",
		Body:  s.Render(),
		CSV:   s.CSV(),
		Notes: []string{"paper: p still dominates; larger n recovers efficiency"},
	}, nil
}

// Fig7 reproduces Figure 7: EE_EP(p, f) ≈ 1 everywhere — the nearly
// ideal iso-energy-efficiency reference.
func Fig7(o Options) (Figure, error) {
	n := 1e8
	s, err := analysis.SurfacePF(machine.SystemG(), app.EP(), n, sweepP(o), sweepF())
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "7",
		Title: fmt.Sprintf("EE_EP over (p, f) at n=%g", n),
		Body:  s.Render(),
		CSV:   s.CSV(),
		Notes: []string{"paper: EE ≈ 1 for all (p, f); minimal communication overhead"},
	}, nil
}

// Fig8 reproduces Figure 8 (referenced by the CG discussion): EE(p, n)
// at f = 2.8 GHz for CG, with the EP counterpart included because the EP
// section's text ("scaling n cannot improve EE at all") describes the
// same axes.
func Fig8(o Options) (Figure, error) {
	nsCG := []float64{9380, 18750, 37500, 75000, 150000}
	if o.Quick {
		nsCG = []float64{9380, 75000}
	}
	cgS, err := analysis.SurfacePN(machine.SystemG(), app.CG(11, 15), 2.8*units.GHz, sweepP(o), nsCG)
	if err != nil {
		return Figure{}, err
	}
	nsEP := []float64{1e6, 1e7, 1e8, 1e9}
	if o.Quick {
		nsEP = []float64{1e6, 1e8}
	}
	epS, err := analysis.SurfacePN(machine.SystemG(), app.EP(), 2.8*units.GHz, sweepP(o), nsEP)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "8",
		Title: "EE over (p, n) at f=2.8GHz — CG (and EP reference)",
		Body:  cgS.Render() + "\n" + epS.Render(),
		CSV:   cgS.CSV() + epS.CSV(),
		Notes: []string{
			"paper: CG's EE decreases with p and increases with n",
			"paper: EP's EE cannot be improved by scaling n (Eo grows as fast as E1)",
		},
	}, nil
}

// Fig9 reproduces Figure 9: EE_CG(p, f) at n = 75000. Paper finding:
// unlike FT/EP, higher CPU frequency improves CG's energy efficiency.
func Fig9(o Options) (Figure, error) {
	s, err := analysis.SurfacePF(machine.SystemG(), app.CG(11, 15), 75000, sweepP(o), sweepF())
	if err != nil {
		return Figure{}, err
	}
	// Quantify the frequency effect at the largest p for the notes.
	rows := len(s.EE)
	lowF, highF := s.EE[rows-1][0], s.EE[rows-1][len(s.EE[rows-1])-1]
	return Figure{
		ID:    "9",
		Title: "EE_CG over (p, f) at n=75000",
		Body:  s.Render(),
		CSV:   s.CSV(),
		Notes: []string{
			fmt.Sprintf("EE at largest p rises from %.4f (2.0GHz) to %.4f (2.8GHz): scale frequency up for CG", lowF, highF),
			"paper: in this strong-scaling case users can scale frequency up via DVFS for better energy efficiency",
		},
	}, nil
}
