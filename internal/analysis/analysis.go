// Package analysis provides the decision-making layer built on the
// iso-energy-efficiency model: the EE surfaces of the paper's Figures
// 5–9, the iso-energy-efficiency function (how fast must the problem grow
// to hold EE constant as p scales — the energy analogue of Grama's
// isoefficiency function), the power-constrained operating-point
// optimiser motivating the paper's title, and the performance
// isoefficiency baseline the paper compares against.
//
// Everything here is one-off evaluation and calls core.Model.Predict
// directly; whole-ladder rows (internal/opcache's Eval) belong to clients
// that re-read a job's ladder — see DESIGN.md §7 "Pricing a point".
package analysis

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

// Point is one evaluated model operating point.
type Point struct {
	// Pool names the platform node pool the point was priced against;
	// empty for single-Spec evaluations (the surface sweeps).
	Pool string
	P    int
	Freq units.Hertz
	N    float64
	core.Prediction
}

// Surface is a grid of evaluated points: rows indexed by p, columns by
// the second axis (frequency or problem size).
type Surface struct {
	App     string
	FixedN  float64     // set for (p, f) surfaces
	FixedF  units.Hertz // set for (p, n) surfaces
	Ps      []int
	Cols    []float64 // frequency in Hz or problem size
	ColKind string    // "f" or "n"
	EE      [][]float64
	Points  [][]Point
}

// column is one second-axis position of a surface: the machine vector
// (at the column's frequency) and problem size every cell of that
// column is priced at.
type column struct {
	mp machine.Params
	n  float64
}

// SurfacePF evaluates EE over (p, f) at fixed n — Figures 5, 7, 9.
func SurfacePF(spec machine.Spec, v app.Vector, n float64, ps []int, fs []units.Hertz) (Surface, error) {
	s := Surface{App: v.Name, FixedN: n, Ps: ps, ColKind: "f"}
	cols := make([]column, len(fs))
	for j, f := range fs {
		mp, err := spec.AtFrequency(f)
		if err != nil {
			return Surface{}, err
		}
		cols[j] = column{mp, n}
		s.Cols = append(s.Cols, float64(f))
	}
	return s.fill(v, cols)
}

// SurfacePN evaluates EE over (p, n) at fixed f — Figures 6 and 8.
func SurfacePN(spec machine.Spec, v app.Vector, f units.Hertz, ps []int, ns []float64) (Surface, error) {
	mp, err := spec.AtFrequency(f)
	if err != nil {
		return Surface{}, err
	}
	cols := make([]column, len(ns))
	for j, n := range ns {
		cols[j] = column{mp, n}
	}
	return Surface{App: v.Name, FixedF: f, Ps: ps, Cols: ns, ColKind: "n"}.fill(v, cols)
}

// fill prices every (p, column) cell of the surface with a direct
// core.Model.Predict — a figure reads each point once, so there is
// nothing for a cache to save (DESIGN.md "Pricing a point").
func (s Surface) fill(v app.Vector, cols []column) (Surface, error) {
	for _, p := range s.Ps {
		eeRow := make([]float64, len(cols))
		ptRow := make([]Point, len(cols))
		for j, c := range cols {
			pr, err := (&core.Model{Machine: c.mp, App: v.At(c.n, p)}).Predict()
			if err != nil {
				at := fmt.Sprintf("f=%v", c.mp.Freq)
				if s.ColKind == "n" {
					at = fmt.Sprintf("n=%g", c.n)
				}
				return Surface{}, fmt.Errorf("analysis: %s at p=%d %s: %w", v.Name, p, at, err)
			}
			eeRow[j] = pr.EE
			ptRow[j] = Point{P: p, Freq: c.mp.Freq, N: c.n, Prediction: pr}
		}
		s.EE = append(s.EE, eeRow)
		s.Points = append(s.Points, ptRow)
	}
	return s, nil
}

// Render draws the surface as a fixed-width table (the textual Figure
// 5–9 analogue).
func (s Surface) Render() string {
	var b strings.Builder
	axis := "f [GHz]"
	if s.ColKind == "n" {
		axis = "n"
	}
	if s.ColKind == "f" {
		fmt.Fprintf(&b, "EE(%s) at n=%g — rows p, cols %s\n", s.App, s.FixedN, axis)
	} else {
		fmt.Fprintf(&b, "EE(%s) at f=%v — rows p, cols %s\n", s.App, s.FixedF, axis)
	}
	fmt.Fprintf(&b, "%8s", "p\\"+s.ColKind)
	for _, c := range s.Cols {
		if s.ColKind == "f" {
			fmt.Fprintf(&b, " %8.2f", c/1e9)
		} else {
			fmt.Fprintf(&b, " %8.3g", c)
		}
	}
	b.WriteByte('\n')
	for i, p := range s.Ps {
		fmt.Fprintf(&b, "%8d", p)
		for _, ee := range s.EE[i] {
			fmt.Fprintf(&b, " %8.4f", ee)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV emits the surface as long-form CSV rows (p, col, EE, T p, Ep, …).
func (s Surface) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app,p,%s,ee,eef,tp_s,ep_j,speedup,pe,avg_power_w\n", s.ColKind)
	for i := range s.Ps {
		for j := range s.Cols {
			pt := s.Points[i][j]
			fmt.Fprintf(&b, "%s,%d,%g,%.6f,%.6f,%.6g,%.6g,%.4f,%.4f,%.2f\n",
				s.App, pt.P, s.Cols[j], pt.EE, pt.EEF, float64(pt.Tp), float64(pt.Ep),
				pt.Speedup, pt.PE, float64(pt.AvgPower))
		}
	}
	return b.String()
}

// ErrUnreachable reports an iso-efficiency target no problem size can
// reach (e.g. raising n does not change EP's EE).
var ErrUnreachable = errors.New("analysis: target efficiency unreachable by scaling n")

// IsoEnergyN returns the minimal problem size n at which the application
// reaches EE ≥ target on p processors at frequency f — one point of the
// iso-energy-efficiency function n(p). The search assumes EE is
// non-decreasing in n (true for FT/CG-like vectors; ErrUnreachable
// otherwise) and brackets within [nMin, nMax].
func IsoEnergyN(spec machine.Spec, v app.Vector, f units.Hertz, p int, target, nMin, nMax float64) (float64, error) {
	return isoN("EE", func(pr core.Prediction) float64 { return pr.EE }, spec, v, f, p, target, nMin, nMax)
}

// PerformanceIsoN is the Grama-baseline counterpart of IsoEnergyN: the
// minimal n at which performance efficiency T1/(p·Tp) reaches the target.
func PerformanceIsoN(spec machine.Spec, v app.Vector, f units.Hertz, p int, target, nMin, nMax float64) (float64, error) {
	return isoN("PE", func(pr core.Prediction) float64 { return pr.PE }, spec, v, f, p, target, nMin, nMax)
}

// isoN is the bisection under both iso functions: the minimal n in
// [nMin, nMax] at which metric(prediction) reaches target, assuming the
// metric is non-decreasing in n. name labels the metric in errors.
func isoN(name string, metric func(core.Prediction) float64, spec machine.Spec, v app.Vector, f units.Hertz, p int, target, nMin, nMax float64) (float64, error) {
	if target <= 0 || target > 1 {
		return 0, fmt.Errorf("analysis: target %s %g outside (0,1]", name, target)
	}
	if nMin <= 0 || nMax <= nMin {
		return 0, fmt.Errorf("analysis: bad bracket [%g, %g]", nMin, nMax)
	}
	mp, err := spec.AtFrequency(f)
	if err != nil {
		return 0, err
	}
	at := func(n float64) (float64, error) {
		pr, err := (&core.Model{Machine: mp, App: v.At(n, p)}).Predict()
		if err != nil {
			return 0, err
		}
		return metric(pr), nil
	}
	lo, hi := nMin, nMax
	atLo, err := at(lo)
	if err != nil {
		return 0, err
	}
	if atLo >= target {
		return lo, nil
	}
	atHi, err := at(hi)
	if err != nil {
		return 0, err
	}
	if atHi < target {
		return 0, fmt.Errorf("%w: %s(nMax=%g) = %.4f < %.4f", ErrUnreachable, name, hi, atHi, target)
	}
	for i := 0; i < 200 && hi/lo > 1+1e-9; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: n spans decades
		atMid, err := at(mid)
		if err != nil {
			return 0, err
		}
		if atMid >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// IsoEnergyFunction tabulates n(p) for the target EE — the energy
// analogue of Grama's isoefficiency function.
func IsoEnergyFunction(spec machine.Spec, v app.Vector, f units.Hertz, ps []int, target, nMin, nMax float64) (map[int]float64, error) {
	out := make(map[int]float64, len(ps))
	for _, p := range ps {
		n, err := IsoEnergyN(spec, v, f, p, target, nMin, nMax)
		if err != nil {
			return nil, fmt.Errorf("p=%d: %w", p, err)
		}
		out[p] = n
	}
	return out, nil
}

// powersOfTwo lists 1, 2, 4, … up to max — the default sweep of a
// machine or of one pool's deployed core count.
func powersOfTwo(max int) []int {
	var ps []int
	for p := 1; p <= max; p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

// ForEachOperatingPoint evaluates the model over the per-pool grids of a
// platform: for every node pool, the given parallelism list × that
// pool's full DVFS ladder, invoking visit on every point (Point.Pool
// names the pool). A job runs entirely within one pool, which is why the
// grid is per pool rather than joint. The sched package's admission
// controller searches a grid of the same per-pool shape but reads it
// from opcache rows; this enumeration serves the offline optimiser below.
// Entries of ps outside [1, pool.MaxRanks()] are skipped per pool; a nil
// ps means powers of two up to each pool's deployed core count. Use
// machine.Homogeneous(spec) for the classic single-Spec sweep.
func ForEachOperatingPoint(pl machine.Platform, v app.Vector, n float64, ps []int, visit func(Point)) error {
	if err := pl.Validate(); err != nil {
		return err
	}
	seen := false
	for _, np := range pl.Pools {
		ladder, err := np.Spec.LadderParams()
		if err != nil {
			return err
		}
		pps := ps
		if pps == nil {
			pps = powersOfTwo(np.MaxRanks())
		}
		for _, p := range pps {
			if p < 1 || p > np.MaxRanks() {
				continue
			}
			seen = true
			w := v.At(n, p)
			for _, mp := range ladder {
				pr, err := (&core.Model{Machine: mp, App: w}).Predict()
				if err != nil {
					return fmt.Errorf("analysis: %s at pool %s p=%d f=%v: %w", v.Name, np.PoolName(), p, mp.Freq, err)
				}
				visit(Point{Pool: np.PoolName(), P: p, Freq: mp.Freq, N: n, Prediction: pr})
			}
		}
	}
	if !seen {
		return fmt.Errorf("analysis: no valid parallelism in %v (no pool of %s holds them)", ps, pl)
	}
	return nil
}

// OptimizeUnderPowerBudget searches the platform's per-pool (p, f)
// grids — every parallelism in ps against each pool's whole DVFS ladder
// — and returns the fastest operating point whose average system power
// stays within budget: "power-constrained parallel computation" made
// concrete. Parallelisms beyond a pool's size are skipped for that pool
// rather than recommended, and ties break deterministically (see
// faster; equal points from different pools keep the earlier pool). A
// nil ps sweeps powers of two up to each pool's size.
func OptimizeUnderPowerBudget(pl machine.Platform, v app.Vector, n float64, ps []int, budget units.Watts) (Point, error) {
	if budget <= 0 {
		return Point{}, fmt.Errorf("analysis: power budget %v must be positive", budget)
	}
	var best Point
	found := false
	err := ForEachOperatingPoint(pl, v, n, ps, func(pt Point) {
		if pt.AvgPower > budget {
			return
		}
		if !found || faster(pt, best) {
			best, found = pt, true
		}
	})
	if err != nil {
		return Point{}, err
	}
	if !found {
		return Point{}, fmt.Errorf("analysis: no (p, f) meets the %v budget for %s at n=%g", budget, v.Name, n)
	}
	return best, nil
}

// faster reports whether a beats b as a power-budget recommendation:
// shorter predicted runtime, then lower energy Ep, then higher EE, and
// finally lower frequency and smaller p, so a grid scan selects one
// deterministic winner regardless of enumeration order.
func faster(a, b Point) bool {
	switch {
	case a.Tp != b.Tp:
		return a.Tp < b.Tp
	case a.Ep != b.Ep:
		return a.Ep < b.Ep
	case a.EE != b.EE:
		return a.EE > b.EE
	case a.Freq != b.Freq:
		return a.Freq < b.Freq
	default:
		return a.P < b.P
	}
}
