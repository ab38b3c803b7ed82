package figures

import (
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/npb/ft"
	"repro/internal/units"
)

// The paper's §V sensitivity claims, each knocking one model ingredient
// out at a time (DESIGN.md §5). Every number is pinned to a relative
// 1e-9 and its direction asserted separately, so a change that keeps a
// claim's sign but moves its size fails as loudly as one that flips it.

// pinned fails the test unless got matches want to a relative 1e-9.
func pinned(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("%s = %.17g, pinned at %.17g", what, got, want)
	}
}

// predict is core.Model.Predict that fails the test on error.
func predict(t *testing.T, mp machine.Params, w core.Workload) core.Prediction {
	t.Helper()
	pr, err := core.Model{Machine: mp, App: w}.Predict()
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// Overlap (α): dropping it (α = 1) inflates FT's predicted energy — the
// reason the paper introduces α.
func TestAblationOverlapInflatesEp(t *testing.T) {
	mp := machine.SystemG().MustBase()
	w := app.FT(20).At(1<<21, 16)
	withAlpha := predict(t, mp, w)
	w.Alpha = 1
	noAlpha := predict(t, mp, w)
	inflation := float64(noAlpha.Ep)/float64(withAlpha.Ep) - 1
	if !(inflation > 0) {
		t.Errorf("dropping α changes FT's Ep by %+.4f%%, want an inflation", inflation*100)
	}
	pinned(t, "Ep inflation", inflation, 0.12538592598756426)
}

// Power-frequency exponent: at 2.0 GHz (below SystemG's 2.8 GHz base) a
// larger γ shrinks ΔPc, so CG's EE rises with γ.
func TestAblationGammaRaisesEE(t *testing.T) {
	want := []float64{0.97892992158623837, 0.97963810072942792, 0.98014551465552491}
	var ee []float64
	for _, gamma := range []float64{1, 2, 3} {
		spec := machine.SystemG()
		spec.Gamma = gamma
		mp, err := spec.AtFrequency(2.0 * units.GHz)
		if err != nil {
			t.Fatal(err)
		}
		ee = append(ee, predict(t, mp, app.CG(11, 15).At(75000, 16)).EE)
	}
	for i := 1; i < len(ee); i++ {
		if !(ee[i] > ee[i-1]) {
			t.Errorf("CG EE at γ = 1, 2, 3 is %.4f, want strictly rising", ee)
			break
		}
	}
	for i := range ee {
		pinned(t, "CG EE", ee[i], want[i])
	}
}

// Idle share: idle power dominates Eo (the §V.B.5 rewrite of Eq. 16), so
// scaling every idle component up lowers FT's EE.
func TestAblationIdleShareLowersEE(t *testing.T) {
	want := []float64{0.7638689057433955, 0.76135835695119092, 0.75961428594562819}
	var ee []float64
	for _, scale := range []float64{0.5, 1, 2} {
		mp := machine.SystemG().MustBase()
		mp.PcIdle = units.Watts(float64(mp.PcIdle) * scale)
		mp.PmIdle = units.Watts(float64(mp.PmIdle) * scale)
		mp.PioIdle = units.Watts(float64(mp.PioIdle) * scale)
		mp.Pother = units.Watts(float64(mp.Pother) * scale)
		mp.PsysIdle = mp.PcIdle + mp.PmIdle + mp.PioIdle + mp.Pother
		ee = append(ee, predict(t, mp, app.FT(20).At(1<<21, 16)).EE)
	}
	for i := 1; i < len(ee); i++ {
		if !(ee[i] < ee[i-1]) {
			t.Errorf("FT EE at idle power ×0.5, ×1, ×2 is %.4f, want strictly falling", ee)
			break
		}
	}
	for i := range ee {
		pinned(t, "FT EE", ee[i], want[i])
	}
}

// §V.B.4–7: ΔEE when scaling p (4 → 64), n (÷8 → ×8 at p = 16) and f
// (2.0 → 2.8 GHz at p = 16). More ranks lower EE and a larger problem
// raises it for FT, EP and CG alike, and embarrassingly parallel EP is
// the least sensitive to each of the three.
func TestDiscussionFactors(t *testing.T) {
	mpHigh := machine.SystemG().MustBase()
	mpLow, err := machine.SystemG().AtFrequency(2.0 * units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		v    app.Vector
		n    float64
		want [3]float64 // ΔEE(p), ΔEE(n), ΔEE(f)
	}{
		{"FT", app.FT(20), 1 << 21, [3]float64{-0.0044039350865684446, 0.0055924347492022353, -0.0015746441984835213}},
		{"EP", app.EP(), 1e8, [3]float64{-0.0010672188801872373, 0.0014318557220895922, -2.1959381268921163e-05}},
		{"CG", app.CG(11, 15), 75000, [3]float64{-0.040948725020303445, 0.0089471567491394843, 0.00067342728751762504}},
	}
	ee := func(mp machine.Params, v app.Vector, n float64, p int) float64 {
		return predict(t, mp, v.At(n, p)).EE
	}
	got := make([][3]float64, len(rows))
	for i, r := range rows {
		got[i] = [3]float64{
			ee(mpHigh, r.v, r.n, 64) - ee(mpHigh, r.v, r.n, 4),
			ee(mpHigh, r.v, r.n*8, 16) - ee(mpHigh, r.v, r.n/8, 16),
			ee(mpHigh, r.v, r.n, 16) - ee(mpLow, r.v, r.n, 16),
		}
		if !(got[i][0] < 0) || !(got[i][1] > 0) {
			t.Errorf("%s: ΔEE(p) = %+.4f, ΔEE(n) = %+.4f; want ΔEE(p) < 0 < ΔEE(n)", r.name, got[i][0], got[i][1])
		}
		for c, what := range []string{"ΔEE(p)", "ΔEE(n)", "ΔEE(f)"} {
			pinned(t, r.name+" "+what, got[i][c], r.want[c])
		}
	}
	for c, what := range []string{"ΔEE(p)", "ΔEE(n)", "ΔEE(f)"} {
		ep := math.Abs(got[1][c])
		if !(ep < math.Abs(got[0][c]) && ep < math.Abs(got[2][c])) {
			t.Errorf("%s: |EP| = %.4g is not the smallest of FT %.4g, EP, CG %.4g", what, ep, got[0][c], got[2][c])
		}
	}
}

// Communication share: the same FT run (32³, two iterations, p = 8) on
// SystemG and on SystemG with a free network (Ts = Tb = 0, the way Eq. 17
// prices it). The run on the real fabric costs more, by FT's share of
// energy spent communicating.
func TestAblationCommShare(t *testing.T) {
	energy := func(spec machine.Spec) units.Joules {
		k, err := ft.New(ft.Config{NX: 32, NY: 32, NZ: 32, Iters: 2})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{Spec: spec, Ranks: 8, Alpha: k.Alpha(), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := npb.Run(cl, k)
		if err != nil {
			t.Fatal(err)
		}
		return rep.True.Total
	}
	free := machine.SystemG()
	free.Ts, free.Tb = 0, 0
	hockney, zero := energy(machine.SystemG()), energy(free)
	share := float64(hockney-zero) / float64(hockney)
	if !(share > 0) {
		t.Errorf("FT p=8: %v on SystemG vs %v with a free network, want a positive communication share", hockney, zero)
	}
	pinned(t, "FT energy on SystemG", float64(hockney), 3.7036271482057139)
	pinned(t, "FT energy, free network", float64(zero), 3.6828373430857133)
	pinned(t, "communication share", share, 0.0056133634105346147)
}
