// Package opcache evaluates the iso-energy-efficiency model over the
// joint operating-point grid of a machine: every (application vector,
// problem size, parallelism, DVFS frequency) tuple maps to one predicted
// Point and one conservative sustained power draw.
//
// Eval prices one (vector, n, p) against the machine's whole DVFS ladder
// in one pass — how every consumer reads it (admission scans ladders,
// the governor walks them) — into a Row the caller owns, and counts the
// evaluation. The scheduler keeps each row on the job's queue entry and
// drops it when the job leaves; the federation router prices into one
// reused buffer. One-off evaluations — the analysis sweeps and the
// model-surface figures — call core.Model.Predict directly (DESIGN.md
// "Pricing a point").
//
// The owner-keyed memo (Row, Point, Forget) has no runtime caller:
// it stays only for the outside timings in bench/layers.go and goes with
// them. Vectors hold closures, which Go cannot compare, so its caller
// supplies an identity token (`owner`), and Forget drops an owner's rows.
//
// A Cache belongs to one goroutine: every site scheduler builds its own.
package opcache

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

// Row is the evaluation of one (vector, n, p) against every frequency of
// the machine's DVFS ladder. Slices are indexed by ladder position; only
// Eval writes them.
type Row struct {
	// W is the concrete workload v.At(n, p).
	W core.Workload
	// Pred[i] is the model prediction at ladder frequency i.
	Pred []core.Prediction
	// Draw[i] is the conservative sustained whole-job power draw at
	// ladder frequency i — the admission/governor envelope (see draw).
	Draw []units.Watts
}

// PartialTp prices a fraction of the row's predicted runtime at ladder
// index fi. The fault layer's checkpoint/restart accounting is built on
// it: the work lost at a kill is frac = (progress − last checkpoint) of
// the job's full runtime, and a restarted job re-executes exactly that
// fraction — both priced through the same cached prediction the
// admission decision used, so lost work, retry sizing and the schedule
// stay mutually consistent.
func (r *Row) PartialTp(fi int, frac float64) units.Seconds {
	return units.Seconds(frac * float64(r.Pred[fi].Tp))
}

// FastestTp returns the row's best runtime over the ladder — what the
// width-slack rules (sched admission, fed routing) compare widths by.
func (r *Row) FastestTp() units.Seconds {
	min := r.Pred[0].Tp
	for _, pr := range r.Pred[1:] {
		if pr.Tp < min {
			min = pr.Tp
		}
	}
	return min
}

type rowKey struct {
	n float64
	p int
}

// Cache evaluates Rows for one machine specification.
type Cache struct {
	ladder []units.Hertz
	params []machine.Params // per ladder index

	rows    map[any]map[rowKey]*Row
	errs    map[any]map[rowKey]error
	hits    uint64
	misses  uint64
	forgets uint64
}

// Stats are a cache's cumulative counters: Misses counts evaluations
// (every Eval, the memo's miss path included); Hits and Forgets count
// memo reads and owner invalidations. HitRate is derived; the zero
// Stats reports 0.
type Stats struct {
	Hits, Misses, Forgets uint64
}

// Add accumulates o into s (the per-pool → platform aggregation).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Forgets += o.Forgets
}

// HitRate returns hits/(hits+misses) in [0,1], or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// New validates the spec and prepares a cache over its DVFS ladder.
func New(spec machine.Spec) (*Cache, error) {
	params, err := spec.LadderParams()
	if err != nil {
		return nil, err
	}
	return &Cache{
		ladder: append([]units.Hertz(nil), spec.Frequencies...),
		params: params,
		rows:   make(map[any]map[rowKey]*Row),
		errs:   make(map[any]map[rowKey]error),
	}, nil
}

// Ladder returns the DVFS frequencies rows are indexed by (ascending, as
// declared by the spec). Callers must not mutate it.
func (c *Cache) Ladder() []units.Hertz { return c.ladder }

// ParamsAt returns the machine vector at ladder index i.
func (c *Cache) ParamsAt(i int) machine.Params { return c.params[i] }

// LadderIndex maps a frequency to its ladder position, or -1.
func (c *Cache) LadderIndex(f units.Hertz) int {
	for i, g := range c.ladder {
		if g == f {
			return i
		}
	}
	return -1
}

// Row returns the cached evaluation of v at (n, p) for the given owner
// identity, computing and memoizing it on first use. The error (a model
// evaluation failure at any ladder point) is memoized too, so a
// degenerate workload is priced exactly once.
func (c *Cache) Row(owner any, v app.Vector, n float64, p int) (*Row, error) {
	k := rowKey{n: n, p: p}
	if r, ok := c.rows[owner][k]; ok {
		c.hits++
		return r, nil
	}
	if err, ok := c.errs[owner][k]; ok {
		c.hits++
		return nil, err
	}
	r := &Row{}
	if err := c.Eval(r, v, n, p); err != nil {
		if c.errs[owner] == nil {
			c.errs[owner] = make(map[rowKey]error)
		}
		c.errs[owner][k] = err
		return nil, err
	}
	if c.rows[owner] == nil {
		c.rows[owner] = make(map[rowKey]*Row)
	}
	c.rows[owner][k] = r
	return r, nil
}

// Point returns one cached operating point: the prediction at ladder
// index fIdx of the (owner, n, p) row.
func (c *Cache) Point(owner any, v app.Vector, n float64, p, fIdx int) (core.Prediction, units.Watts, error) {
	r, err := c.Row(owner, v, n, p)
	if err != nil {
		return core.Prediction{}, 0, err
	}
	if fIdx < 0 || fIdx >= len(r.Pred) {
		return core.Prediction{}, 0, fmt.Errorf("opcache: ladder index %d outside [0,%d)", fIdx, len(r.Pred))
	}
	return r.Pred[fIdx], r.Draw[fIdx], nil
}

// Forget drops every row owned by the given identity.
func (c *Cache) Forget(owner any) {
	c.forgets++
	delete(c.rows, owner)
	delete(c.errs, owner)
}

// Stats reports the cache's cumulative counters, for tests, performance
// reports and the host observability layer.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Forgets: c.forgets}
}

// Eval prices v at (n, p) against the whole ladder into r, reusing r's
// slices when they are long enough — the allocation-free door for a
// caller that owns its rows. Each call counts one miss, failed or not.
// The memo's miss path is this function, so memo rows are bit-identical
// and counted once; Eval itself neither reads nor fills the memo. On
// error r holds a partial evaluation.
func (c *Cache) Eval(r *Row, v app.Vector, n float64, p int) error {
	c.misses++
	w := v.At(n, p)
	r.W = w
	r.Pred = resize(r.Pred, len(c.ladder))
	r.Draw = resize(r.Draw, len(c.ladder))
	for i := range c.ladder {
		pr, err := (core.Model{Machine: c.params[i], App: w}).Predict()
		if err != nil {
			return fmt.Errorf("opcache: %s at n=%g p=%d f=%v: %w", v.Name, n, p, c.ladder[i], err)
		}
		r.Pred[i] = pr
		r.Draw[i] = units.Watts(float64(p) * float64(c.drawPerRank(w, i)))
	}
	return nil
}

// resize returns s with length n, reallocating only when its capacity
// falls short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// drawPerRank returns the conservative sustained power of one rank
// executing workload w (already evaluated at the job's (n, p)) at ladder
// index fi: the rank's idle power at that frequency plus the largest
// active-delta draw any compute/memory utilisation mix the job can
// exhibit produces.
//
// The active term is the paper's Eq. 8–9 read as an instantaneous rate:
// during a compute slice of per-rank busy times (dc, dm), wall time is
// α·(dc+dm), so the sustained active draw is
//
//	(dc·ΔPc + dm·ΔPm) / (α·(dc+dm)).
//
// dc depends on which frequency the in-flight slice was issued at, and a
// governor retune mid-slice prices the old mix at the new ΔPc — so the
// envelope evaluates dc at the ladder extremes as well as at fi and takes
// the maximum. Admission and the governor both use this bound, which is
// what lets the scheduler guarantee zero cap violations: the measured
// draw of any sampling window is a convex mix of states this envelope
// dominates. Communication and idle phases only dilute utilisation, so
// they never exceed it.
func (c *Cache) drawPerRank(w core.Workload, fi int) units.Watts {
	mp := c.params[fi]
	p := float64(w.P)
	dm := (w.WOff + w.DWOff) / p * float64(mp.Tm)
	active := 0.0
	for _, g := range [3]int{0, fi, len(c.params) - 1} {
		dc := (w.WOn + w.DWOn) / p * float64(c.params[g].Tc)
		if dc+dm <= 0 {
			continue
		}
		a := (dc*float64(mp.DeltaPc) + dm*float64(mp.DeltaPm)) / (w.Alpha * (dc + dm))
		if a > active {
			active = a
		}
	}
	return mp.PsysIdle + units.Watts(active)
}
