package analysis

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

var (
	sysG = machine.SystemG()
	fs   = []units.Hertz{2.0 * units.GHz, 2.4 * units.GHz, 2.8 * units.GHz}
	ps   = []int{1, 4, 16, 64}
)

func TestSurfacePFShape(t *testing.T) {
	s, err := SurfacePF(sysG, app.FT(20), 1<<21, ps, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.EE) != len(ps) || len(s.EE[0]) != len(fs) {
		t.Fatalf("surface dims %dx%d", len(s.EE), len(s.EE[0]))
	}
	// EE must fall with p (Figure 5's dominant trend) at every f.
	for j := range fs {
		for i := 1; i < len(ps); i++ {
			if s.EE[i][j] > s.EE[i-1][j]+1e-9 {
				t.Fatalf("FT EE rose with p at f=%v: %v", fs[j], s.EE)
			}
		}
	}
	// Every EE in (0, 1].
	for _, row := range s.EE {
		for _, ee := range row {
			if ee <= 0 || ee > 1 {
				t.Fatalf("EE out of range: %g", ee)
			}
		}
	}
	out := s.Render()
	if !strings.Contains(out, "EE(FT)") {
		t.Fatalf("render:\n%s", out)
	}
	csv := s.CSV()
	if !strings.Contains(csv, "app,p,f") || len(strings.Split(csv, "\n")) < len(ps)*len(fs) {
		t.Fatalf("csv too short:\n%s", csv)
	}
}

// Every cell of a surface is exactly the direct model evaluation at its
// (n, p, f) — on-ladder and off-ladder frequencies alike — and an invalid
// frequency is reported before any cell is filled.
func TestSurfacesMatchDirectPredict(t *testing.T) {
	direct := func(v app.Vector, n float64, p int, f units.Hertz) core.Prediction {
		t.Helper()
		mp, err := sysG.AtFrequency(f)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.Model{Machine: mp, App: v.At(n, p)}.Predict()
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	v, n := app.CG(11, 15), 75000.0
	mixed := []units.Hertz{2.0 * units.GHz, 2.3 * units.GHz, 2.8 * units.GHz, 3.1 * units.GHz} // 2.3 and 3.1 are off SystemG's ladder
	pf, err := SurfacePF(sysG, v, n, ps, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		for j, f := range mixed {
			pt, want := pf.Points[i][j], direct(v, n, p, f)
			if pt.Prediction != want || pf.EE[i][j] != want.EE || pt.P != p || pt.Freq != f || pt.N != n || pf.Cols[j] != float64(f) {
				t.Fatalf("PF cell p=%d f=%v: %+v, want %+v", p, f, pt, want)
			}
		}
	}
	ns := []float64{9380, 75000, 150000}
	for _, f := range []units.Hertz{2.8 * units.GHz, 2.5 * units.GHz} {
		pn, err := SurfacePN(sysG, v, f, ps, ns)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ps {
			for j, n := range ns {
				pt, want := pn.Points[i][j], direct(v, n, p, f)
				if pt.Prediction != want || pn.EE[i][j] != want.EE || pt.P != p || pt.Freq != f || pt.N != n {
					t.Fatalf("PN cell p=%d n=%g f=%v: %+v, want %+v", p, n, f, pt, want)
				}
			}
		}
	}
	if s, err := SurfacePF(sysG, v, n, ps, []units.Hertz{2.8 * units.GHz, 0}); err == nil || len(s.Points) != 0 {
		t.Fatalf("PF with an invalid frequency: %d rows filled, err %v", len(s.Points), err)
	}
	if s, err := SurfacePN(sysG, v, -1, ps, ns); err == nil || len(s.Points) != 0 {
		t.Fatalf("PN at an invalid frequency: %d rows filled, err %v", len(s.Points), err)
	}
}

func TestSurfacePNShape(t *testing.T) {
	ns := []float64{1 << 18, 1 << 20, 1 << 22}
	s, err := SurfacePN(sysG, app.FT(20), 2.8*units.GHz, ps, ns)
	if err != nil {
		t.Fatal(err)
	}
	// EE must rise with n at fixed p > 1 (Figure 6).
	for i, p := range ps {
		if p == 1 {
			continue
		}
		for j := 1; j < len(ns); j++ {
			if s.EE[i][j] < s.EE[i][j-1]-1e-9 {
				t.Fatalf("FT EE fell with n at p=%d: %v", p, s.EE[i])
			}
		}
	}
}

func TestIsoEnergyNBracketsTarget(t *testing.T) {
	p := 16
	target := 0.75 // FT's EE asymptote on SystemG is ≈0.77; 0.75 is reachable
	n, err := IsoEnergyN(sysG, app.FT(20), 2.8*units.GHz, p, target, 1<<10, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	// EE at the found n must be ≥ target, and slightly below n must miss.
	mp := sysG.MustBase()
	ee := func(nn float64) float64 {
		pr, err := coreModel(mp, app.FT(20), nn, p)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	if ee(n) < target {
		t.Fatalf("EE(n*=%g) = %g < target %g", n, ee(n), target)
	}
	if ee(n*0.9) >= target {
		t.Fatalf("n* not minimal: EE(0.9·n*) = %g ≥ target", ee(n*0.9))
	}
}

func TestIsoEnergyFunctionGrowsWithP(t *testing.T) {
	fn, err := IsoEnergyFunction(sysG, app.FT(20), 2.8*units.GHz, []int{4, 16, 64}, 0.75, 1<<10, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	if !(fn[4] < fn[16] && fn[16] < fn[64]) {
		t.Fatalf("iso-energy n(p) should grow with p: %v", fn)
	}
}

func TestIsoEnergyNUnreachableForEP(t *testing.T) {
	// EP's EE barely moves with n — a very high target can be reached
	// (EE≈1) but scaling cannot fix a target above its plateau… use a
	// target above 1−ε of the plateau at large p with a tiny n range
	// that stays below it.
	_, err := IsoEnergyN(sysG, app.FT(20), 2.8*units.GHz, 64, 0.999, 100, 200)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestIsoEnergyNValidation(t *testing.T) {
	if _, err := IsoEnergyN(sysG, app.FT(20), 2.8*units.GHz, 4, 1.5, 1, 10); err == nil {
		t.Error("target > 1 must be rejected")
	}
	if _, err := IsoEnergyN(sysG, app.FT(20), 2.8*units.GHz, 4, 0.8, 10, 5); err == nil {
		t.Error("inverted bracket must be rejected")
	}
	// Both iso functions reject a non-positive or inverted bracket the
	// same way (PerformanceIsoN used to bisect it, or panic at n=0).
	for _, b := range [][2]float64{{10, 5}, {7, 7}, {0, 5}, {-4, 5}} {
		want := fmt.Sprintf("analysis: bad bracket [%g, %g]", b[0], b[1])
		if _, err := IsoEnergyN(sysG, app.FT(20), 2.8*units.GHz, 4, 0.8, b[0], b[1]); err == nil || err.Error() != want {
			t.Errorf("IsoEnergyN bracket %v: got %v, want %q", b, err, want)
		}
		if _, err := PerformanceIsoN(sysG, app.FT(20), 2.8*units.GHz, 4, 0.8, b[0], b[1]); err == nil || err.Error() != want {
			t.Errorf("PerformanceIsoN bracket %v: got %v, want %q", b, err, want)
		}
	}
}

// The folded bisection returns what the two separate ones did: values
// (==) and error strings cut from the parent commit's binary, before
// IsoEnergyN and PerformanceIsoN became callers of isoN.
func TestIsoNMatchesParent(t *testing.T) {
	cases := []struct {
		name           string
		v              app.Vector
		f              units.Hertz
		p              int
		target, lo, hi float64
		ee, pe         float64
		eeErr, peErr   string
	}{
		{"ft16", app.FT(20), 2.8 * units.GHz, 16, 0.75, 1 << 10, 1 << 30, 58033.890351413604, 111737.50703352148, "", ""},
		{"ft4", app.FT(20), 2.8 * units.GHz, 4, 0.75, 1 << 10, 1 << 32, 3913.91451181248, 7454.95696273197, "", ""},
		{"ft16-wide", app.FT(20), 2.8 * units.GHz, 16, 0.75, 1 << 10, 1 << 32, 58033.890365462394, 111737.50700647224, "", ""},
		{"ft64", app.FT(20), 2.8 * units.GHz, 64, 0.75, 1 << 10, 1 << 32, 758300.7026726403, 1.4324306091024107e+06, "", ""},
		{"cg16-nmin-meets", app.CG(11, 15), 2.0 * units.GHz, 16, 0.5, 1 << 10, 1 << 32, 1024, 1024, "", ""},
		{"ep4", app.EP(), 2.8 * units.GHz, 4, 0.5, 1 << 10, 1 << 30, 2284.281194115391, 3736.1379851092706, "", ""},
		{"unreachable", app.FT(20), 2.8 * units.GHz, 64, 0.999, 100, 200, 0, 0,
			"analysis: target efficiency unreachable by scaling n: EE(nMax=200) = 0.0134 < 0.9990",
			"analysis: target efficiency unreachable by scaling n: PE(nMax=200) = 0.0104 < 0.9990"},
		{"target>1", app.FT(20), 2.8 * units.GHz, 4, 1.5, 1, 10, 0, 0,
			"analysis: target EE 1.5 outside (0,1]", "analysis: target PE 1.5 outside (0,1]"},
		{"target0", app.FT(20), 2.8 * units.GHz, 4, 0, 1, 10, 0, 0,
			"analysis: target EE 0 outside (0,1]", "analysis: target PE 0 outside (0,1]"},
		{"bad-frequency", app.FT(20), 0, 4, 0.8, 1 << 10, 1 << 30, 0, 0,
			"machine: SystemG: frequency 0Hz must be positive", "machine: SystemG: frequency 0Hz must be positive"},
	}
	check := func(name, fn string, got float64, err error, want float64, wantErr string) {
		t.Helper()
		if wantErr != "" {
			if err == nil || err.Error() != wantErr {
				t.Errorf("%s %s: error %v, want %q", name, fn, err, wantErr)
			}
			return
		}
		if err != nil || got != want {
			t.Errorf("%s %s = %v, %v; want %v", name, fn, got, err, want)
		}
	}
	for _, c := range cases {
		n, err := IsoEnergyN(sysG, c.v, c.f, c.p, c.target, c.lo, c.hi)
		check(c.name, "IsoEnergyN", n, err, c.ee, c.eeErr)
		n, err = PerformanceIsoN(sysG, c.v, c.f, c.p, c.target, c.lo, c.hi)
		check(c.name, "PerformanceIsoN", n, err, c.pe, c.peErr)
	}
	if _, err := IsoEnergyN(sysG, app.FT(20), 2.8*units.GHz, 64, 0.999, 100, 200); !errors.Is(err, ErrUnreachable) {
		t.Errorf("unreachable target lost its sentinel: %v", err)
	}
}

func TestOptimizeUnderPowerBudget(t *testing.T) {
	v := app.CG(11, 15)
	n := 75000.0
	// Generous budget: should pick a large p (fastest) within budget.
	op, err := OptimizeUnderPowerBudget(machine.Homogeneous(sysG), v, n, []int{1, 4, 16, 64}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if op.AvgPower > 3000 {
		t.Fatalf("chosen point exceeds budget: %v", op.AvgPower)
	}
	// Tight budget: forces fewer processors and/or lower frequency.
	tight, err := OptimizeUnderPowerBudget(machine.Homogeneous(sysG), v, n, []int{1, 4, 16, 64}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if tight.P > op.P {
		t.Fatalf("tighter budget should not allow more processors: %d vs %d", tight.P, op.P)
	}
	if tight.Tp < op.Tp {
		t.Fatal("tighter budget cannot be faster")
	}
	// Impossible budget errors out.
	if _, err := OptimizeUnderPowerBudget(machine.Homogeneous(sysG), v, n, []int{1, 4}, 1); err == nil {
		t.Fatal("infeasible budget must error")
	}
	if _, err := OptimizeUnderPowerBudget(machine.Homogeneous(sysG), v, n, []int{1}, -5); err == nil {
		t.Fatal("negative budget must be rejected")
	}
}

func TestPerformanceIsoVsEnergyIso(t *testing.T) {
	// For FT both exist; the two functions need not coincide — that gap
	// is the paper's point. Just check both solve and are positive.
	nPE, err := PerformanceIsoN(sysG, app.FT(20), 2.8*units.GHz, 16, 0.75, 1<<10, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	nEE, err := IsoEnergyN(sysG, app.FT(20), 2.8*units.GHz, 16, 0.75, 1<<10, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	if nPE <= 0 || nEE <= 0 {
		t.Fatalf("degenerate iso points: PE %g, EE %g", nPE, nEE)
	}
	rel := math.Abs(nPE-nEE) / nEE
	if rel < 1e-6 {
		t.Log("note: PE and EE iso points coincide for this vector")
	}
}

// coreModel is a tiny helper returning EE for (machine, vector, n, p).
func coreModel(mp machine.Params, v app.Vector, n float64, p int) (float64, error) {
	pr, err := core.Model{Machine: mp, App: v.At(n, p)}.Predict()
	if err != nil {
		return 0, err
	}
	return pr.EE, nil
}

func TestForEachOperatingPointGrid(t *testing.T) {
	visits := 0
	// p=0 and an absurd p are skipped; only p=4 survives.
	err := ForEachOperatingPoint(machine.Homogeneous(sysG), app.FT(20), 1<<20, []int{0, 4, 1 << 30}, func(Point) { visits++ })
	if err != nil {
		t.Fatal(err)
	}
	if visits != len(sysG.Frequencies) {
		t.Fatalf("want one visit per ladder frequency (%d), got %d", len(sysG.Frequencies), visits)
	}
	// A list with no valid parallelism is an error, not a silent no-op.
	if err := ForEachOperatingPoint(machine.Homogeneous(sysG), app.FT(20), 1<<20, []int{0}, func(Point) {}); err == nil {
		t.Fatal("all-invalid parallelism list must error")
	}
	// nil sweeps the power-of-two default.
	visits = 0
	if err := ForEachOperatingPoint(machine.Homogeneous(sysG), app.EP(), 1e8, nil, func(Point) { visits++ }); err != nil {
		t.Fatal(err)
	}
	if want := len(powersOfTwo(machine.Homogeneous(sysG).Pools[0].MaxRanks())) * len(sysG.Frequencies); visits != want {
		t.Fatalf("default sweep visited %d points, want %d", visits, want)
	}
}

// A multi-pool platform enumerates each pool's own grid: every point
// names its pool, ladders differ per pool, and the optimiser can settle
// on whichever pool wins the objective.
func TestForEachOperatingPointPerPoolGrids(t *testing.T) {
	pl := machine.Platform{Pools: []machine.NodePool{
		{Spec: machine.SystemG(), Nodes: 8},
		{Spec: machine.Dori(), Nodes: 8},
	}}
	byPool := map[string]int{}
	freqs := map[string]map[units.Hertz]bool{}
	err := ForEachOperatingPoint(pl, app.EP(), 1e8, []int{4}, func(pt Point) {
		byPool[pt.Pool]++
		if freqs[pt.Pool] == nil {
			freqs[pt.Pool] = map[units.Hertz]bool{}
		}
		freqs[pt.Pool][pt.Freq] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if byPool["SystemG"] != len(machine.SystemG().Frequencies) ||
		byPool["Dori"] != len(machine.Dori().Frequencies) {
		t.Fatalf("per-pool visit counts: %v", byPool)
	}
	if !freqs["Dori"][1*units.GHz] || freqs["SystemG"][1*units.GHz] {
		t.Fatalf("pools must enumerate their own ladders: %v", freqs)
	}
	// The optimiser prices both pools; EP at equal p is faster on the
	// 2.8 GHz SystemG pool.
	op, err := OptimizeUnderPowerBudget(pl, app.EP(), 1e8, []int{4}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if op.Pool != "SystemG" {
		t.Fatalf("the optimiser should pick the fast pool, got %q", op.Pool)
	}
}

func TestPowersOfTwo(t *testing.T) {
	maxRanks := machine.Homogeneous(sysG).Pools[0].MaxRanks()
	ps := powersOfTwo(maxRanks)
	if ps[0] != 1 {
		t.Fatalf("sweep must start at 1: %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] != 2*ps[i-1] {
			t.Fatalf("not a power-of-two sweep: %v", ps)
		}
	}
	if ps[len(ps)-1] > maxRanks {
		t.Fatalf("sweep exceeds cluster size: %v", ps)
	}
}

// The budget optimiser's one objective is minimum time: checked
// exhaustively against the grid it scans, no feasible point is faster,
// and among the equally fast ones the documented tie-breaks (lower Ep,
// higher EE, lower f, smaller p) select the winner.
func TestOptimizeObjectives(t *testing.T) {
	v := app.CG(11, 15)
	n := 75000.0
	pl := machine.Homogeneous(sysG)
	for _, budget := range []units.Watts{300, 800, 2000, 5000} {
		got, err := OptimizeUnderPowerBudget(pl, v, n, ps, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got.AvgPower > budget {
			t.Fatalf("budget %v: returned infeasible point %+v", budget, got)
		}
		var feasible []Point
		if err := ForEachOperatingPoint(pl, v, n, ps, func(pt Point) {
			if pt.AvgPower <= budget {
				feasible = append(feasible, pt)
			}
		}); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, pt := range feasible {
			if pt == got {
				found = true
				continue
			}
			switch {
			case pt.Tp < got.Tp:
				t.Fatalf("budget %v: %+v is faster than the pick %+v", budget, pt, got)
			case pt.Tp > got.Tp:
			case pt.Ep < got.Ep:
				t.Fatalf("budget %v: equal Tp, %+v needs less energy than %+v", budget, pt, got)
			case pt.Ep > got.Ep:
			case pt.EE > got.EE:
				t.Fatalf("budget %v: equal Tp and Ep, %+v has higher EE than %+v", budget, pt, got)
			case pt.EE < got.EE:
			case pt.Freq < got.Freq || (pt.Freq == got.Freq && pt.P < got.P):
				t.Fatalf("budget %v: full tie, %+v has the lower (f, p) than %+v", budget, pt, got)
			}
		}
		if !found {
			t.Fatalf("budget %v: pick %+v is not a grid point", budget, got)
		}
	}
}

func TestObjectiveBetterDeterministicTieBreak(t *testing.T) {
	a := Point{P: 4, Freq: 2.0 * units.GHz}
	b := Point{P: 4, Freq: 2.8 * units.GHz}
	// Identical predictions: the lower frequency must win regardless of
	// argument order, then the smaller p.
	if !faster(a, b) || faster(b, a) {
		t.Fatal("tie must break to the lower frequency")
	}
	c := Point{P: 8, Freq: 2.0 * units.GHz}
	if !faster(a, c) || faster(c, a) {
		t.Fatal("tie at equal frequency must break to the smaller p")
	}
}

func TestOptimizeSkipsOversizedParallelism(t *testing.T) {
	// A tiny spec: p beyond MaxRanks must not be recommended.
	small := sysG
	small.CoresPerNode = 1
	small.Nodes = 8
	op, err := OptimizeUnderPowerBudget(machine.Homogeneous(small), app.EP(), 1e8, []int{4, 512}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if op.P != 4 {
		t.Fatalf("p=512 exceeds the 8-rank cluster; want p=4, got p=%d", op.P)
	}
}
