package opcache

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/units"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(machine.SystemG())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Cached rows must be bit-identical to direct model evaluation — the
// cache is a pure memo, never an approximation.
func TestRowMatchesDirectPredict(t *testing.T) {
	c := testCache(t)
	spec := machine.SystemG()
	v := app.FT(20)
	n := float64(1 << 18)
	for _, p := range []int{1, 4, 16} {
		row, err := c.Row("job", v, n, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range c.Ladder() {
			mp, err := spec.AtFrequency(f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := (&core.Model{Machine: mp, App: v.At(n, p)}).Predict()
			if err != nil {
				t.Fatal(err)
			}
			if row.Pred[i] != want {
				t.Fatalf("p=%d f=%v: cached %+v != direct %+v", p, f, row.Pred[i], want)
			}
		}
	}
}

// The second read of a row is a hit returning the same pointer.
func TestRowMemoized(t *testing.T) {
	c := testCache(t)
	v := app.EP()
	a, err := c.Row(1, v, 1e7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Row(1, v, 1e7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second read evaluated a fresh row")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits %d misses, want 1/1", st.Hits, st.Misses)
	}
	// A different owner with identical numbers is a separate row: owner
	// is the vector's identity, not an optimisation hint.
	d, err := c.Row(2, v, 1e7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("rows must not leak across owners")
	}
}

// Draw must reproduce the admission envelope: idle floor plus the
// worst-case active mix, scaled by width, and weakly increasing in
// frequency for a compute-bearing workload.
func TestDrawEnvelope(t *testing.T) {
	c := testCache(t)
	row, err := c.Row("j", app.CG(11, 15), 75000, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Ladder() {
		idleFloor := float64(c.ParamsAt(i).PsysIdle) * 8
		if float64(row.Draw[i]) <= idleFloor {
			t.Fatalf("draw %v at ladder %d not above the idle floor %g", row.Draw[i], i, idleFloor)
		}
		if i > 0 && row.Draw[i] < row.Draw[i-1] {
			t.Fatalf("draw decreases up the ladder: %v then %v", row.Draw[i-1], row.Draw[i])
		}
	}
}

// Forget drops an owner's rows and only that owner's; an owner with no
// rows is a no-op.
func TestForget(t *testing.T) {
	c := testCache(t)
	for _, owner := range []int{1, 2} {
		if _, err := c.Row(owner, app.EP(), 1e7, 2); err != nil {
			t.Fatal(err)
		}
	}
	c.Forget(1)
	c.Forget("nobody")
	for _, owner := range []int{2, 1} { // owner 2's row is held, owner 1's is not
		if _, err := c.Row(owner, app.EP(), 1e7, 2); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st != (Stats{Hits: 1, Misses: 3, Forgets: 2}) {
		t.Fatalf("stats = %+v, want owner 2's row read back (1 hit), owner 1's re-evaluated (3 misses), 2 forgets", st)
	}
}

// testPoolCaches builds one per-Spec cache per pool of a two-pool
// platform, the way a caller pricing a heterogeneous platform holds them.
func testPoolCaches(t *testing.T) []*Cache {
	t.Helper()
	pl := machine.Platform{Pools: []machine.NodePool{
		{Spec: machine.SystemG()},
		{Spec: machine.Dori()},
	}}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	caches := make([]*Cache, len(pl.Pools))
	for i, np := range pl.Pools {
		c, err := New(np.Spec)
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
	}
	return caches
}

func sumStats(caches []*Cache) Stats {
	var s Stats
	for _, c := range caches {
		s.Add(c.Stats())
	}
	return s
}

// Forgetting a job in every pool's cache drops its rows platform-wide
// while other jobs' rows survive in every pool.
func TestPlatformCacheFanOutForget(t *testing.T) {
	caches := testPoolCaches(t)
	v := app.EP()
	// Price both jobs on both pools: four rows held.
	for _, owner := range []int{1, 2} {
		for _, c := range caches {
			if _, err := c.Row(owner, v, 1e7, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range caches {
		c.Forget(1)
	}
	// Job 2's rows survive in every pool: re-reading them is a pure hit.
	st0 := sumStats(caches)
	for _, c := range caches {
		if _, err := c.Row(2, v, 1e7, 2); err != nil {
			t.Fatal(err)
		}
	}
	st1 := sumStats(caches)
	if st1.Hits != st0.Hits+2 || st1.Misses != st0.Misses {
		t.Fatalf("job 2 rows should survive in both pools: hits %d→%d misses %d→%d",
			st0.Hits, st1.Hits, st0.Misses, st1.Misses)
	}
	// Job 1's rows are gone from every pool: re-reading re-evaluates.
	for _, c := range caches {
		if _, err := c.Row(1, v, 1e7, 2); err != nil {
			t.Fatal(err)
		}
	}
	st2 := sumStats(caches)
	if st2.Hits != st1.Hits || st2.Misses != st1.Misses+2 {
		t.Fatalf("job 1 rows should have been dropped in both pools: hits %d→%d misses %d→%d",
			st1.Hits, st2.Hits, st1.Misses, st2.Misses)
	}
	if st2.Forgets != 2 {
		t.Fatalf("forgets = %d, want one per pool", st2.Forgets)
	}
}

// Forgetting an unknown owner in every pool's cache is a no-op: the
// held row is still read back as a hit.
func TestPlatformCacheForgetUnknownOwner(t *testing.T) {
	caches := testPoolCaches(t)
	if _, err := caches[0].Row("job", app.EP(), 1e7, 2); err != nil {
		t.Fatal(err)
	}
	for _, c := range caches {
		c.Forget("nobody")
	}
	if _, err := caches[0].Row("job", app.EP(), 1e7, 2); err != nil {
		t.Fatal(err)
	}
	if st := sumStats(caches); st != (Stats{Hits: 1, Misses: 1, Forgets: 2}) {
		t.Fatalf("stats = %+v, want the held row read back (1 hit, 1 miss) after 2 no-op forgets", st)
	}
}

// LadderIndex round-trips the spec's frequencies and rejects strangers.
func TestLadderIndex(t *testing.T) {
	c := testCache(t)
	for i, f := range c.Ladder() {
		if got := c.LadderIndex(f); got != i {
			t.Fatalf("LadderIndex(%v) = %d, want %d", f, got, i)
		}
	}
	if got := c.LadderIndex(1); got != -1 {
		t.Fatalf("LadderIndex(1Hz) = %d, want -1", got)
	}
}

// New validates the spec it evaluates against.
func TestNewRejectsInvalidSpec(t *testing.T) {
	bad := machine.SystemG()
	bad.Frequencies = nil
	if _, err := New(bad); err == nil {
		t.Fatal("a spec without a DVFS ladder must be rejected")
	}
}

// Per-pool counters sum into the platform aggregate the host
// observability layer reports (Add).
func TestPoolStats(t *testing.T) {
	g := testCache(t)
	d, err := New(machine.Dori())
	if err != nil {
		t.Fatal(err)
	}
	v := app.EP()
	// Two lookups on g (miss then hit), one on d (miss), one forget each.
	for _, c := range []*Cache{g, g, d} {
		if _, err := c.Row(1, v, 1e7, 2); err != nil {
			t.Fatal(err)
		}
	}
	g.Forget(1)
	d.Forget(1)
	st0, st1 := g.Stats(), d.Stats()
	if st0 != (Stats{Hits: 1, Misses: 1, Forgets: 1}) || st1 != (Stats{Misses: 1, Forgets: 1}) {
		t.Fatalf("pool stats = %+v and %+v, want 1h/1m/1f and 0h/1m/1f", st0, st1)
	}
	var sum Stats
	sum.Add(st0)
	sum.Add(st1)
	if sum != (Stats{Hits: 1, Misses: 2, Forgets: 2}) {
		t.Fatalf("sum of pools = %+v, want 1h/2m/2f", sum)
	}
}

// Eval into one reused Row must equal a fresh memo row field by field,
// across two specs with different ladder lengths (long → short → long),
// and fail with Row's exact error text. Every Eval counts exactly one
// miss and leaves the memo's row in place; a memo miss, which evaluates
// through Eval, is counted once, not twice.
func TestEvalMatchesRow(t *testing.T) {
	g, err := New(machine.SystemG())
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(machine.Dori())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Ladder()) <= len(d.Ladder()) {
		t.Fatalf("fixture needs SystemG's ladder (%d) longer than Dori's (%d)", len(g.Ladder()), len(d.Ladder()))
	}
	cg := app.CG(11, 15)
	bad := cg
	bad.M = func(n float64, p int) float64 { return -1 }

	var r Row
	for step, c := range []*Cache{g, d, g} {
		for _, p := range []int{1, 4, 16} {
			before := c.Stats()
			want, err := c.Row(step, cg, 75000, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got != (Stats{Hits: before.Hits, Misses: before.Misses + 1, Forgets: before.Forgets}) {
				t.Fatalf("step %d p=%d: a memo miss moved the counters %+v → %+v, want one miss", step, p, before, got)
			}
			before = c.Stats()
			if err := c.Eval(&r, cg.At(75000, p)); err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got != (Stats{Hits: before.Hits, Misses: before.Misses + 1, Forgets: before.Forgets}) {
				t.Fatalf("step %d p=%d: Eval moved %+v → %+v, want one miss", step, p, before, got)
			}
			if again, _ := c.Row(step, cg, 75000, p); again != want {
				t.Fatalf("step %d p=%d: Eval disturbed the memo's row", step, p)
			}
			if r.W != want.W || len(r.Pred) != len(want.Pred) || len(r.Draw) != len(want.Draw) {
				t.Fatalf("step %d p=%d: workload or ladder length differs: %d/%d vs %d/%d",
					step, p, len(r.Pred), len(r.Draw), len(want.Pred), len(want.Draw))
			}
			for i := range want.Pred {
				if r.Pred[i] != want.Pred[i] || r.Draw[i] != want.Draw[i] {
					t.Fatalf("step %d p=%d f#%d: Eval %+v/%v, Row %+v/%v", step, p, i, r.Pred[i], r.Draw[i], want.Pred[i], want.Draw[i])
				}
			}
		}
		before := c.Stats().Misses
		_, rowErr := c.Row(-1-step, bad, 75000, 4) // a fresh owner: a miss
		evalErr := c.Eval(&r, bad.At(75000, 4))
		if rowErr == nil || evalErr == nil || rowErr.Error() != evalErr.Error() {
			t.Fatalf("step %d: Row error %v, Eval error %v", step, rowErr, evalErr)
		}
		if got := c.Stats().Misses; got != before+2 {
			t.Fatalf("step %d: a failed memo miss and a failed Eval counted %d misses, want 2", step, got-before)
		}
	}
}

// A model failure is memoized as an error and served from cache too.
func TestErrorMemoized(t *testing.T) {
	c := testCache(t)
	// A vector whose workload evaluates to a degenerate (zero-work)
	// prediction error: WOn = 0 everywhere.
	bad := app.Vector{
		Name:  "degenerate",
		Alpha: 1,
		WOn:   func(n float64, p int) float64 { return 0 },
		WOff:  func(n float64, p int) float64 { return 0 },
		DWOn:  func(n float64, p int) float64 { return 0 },
		DWOff: func(n float64, p int) float64 { return 0 },
		M:     func(n float64, p int) float64 { return 0 },
		B:     func(n float64, p int) float64 { return 0 },
	}
	if _, err := c.Row("bad", bad, 1, 2); err == nil {
		t.Skip("model accepts zero-work vectors; nothing to memoize")
	}
	missesBefore := c.Stats().Misses
	if _, err := c.Row("bad", bad, 1, 2); err == nil {
		t.Fatal("second read must return the memoized error")
	}
	missesAfter := c.Stats().Misses
	if missesAfter != missesBefore {
		t.Fatalf("error row re-evaluated: misses %d → %d", missesBefore, missesAfter)
	}
}

// Benchmark the memoized read path — the lookup admission performs on
// every scheduling edge.
func BenchmarkRowHit(b *testing.B) {
	c, err := New(machine.SystemG())
	if err != nil {
		b.Fatal(err)
	}
	v := app.CG(11, 15)
	if _, err := c.Row(0, v, 75000, 16); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Row(0, v, 75000, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// PartialTp must be an exact fraction of the cached prediction — the
// fault layer's lost-work and restart pricing depends on the identity
// PartialTp(fi, a) + PartialTp(fi, b) == (a+b)·Tp.
func TestPartialTp(t *testing.T) {
	c := testCache(t)
	row, err := c.Row("job", app.FT(20), float64(1<<18), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Ladder() {
		if got := row.PartialTp(i, 1); got != row.Pred[i].Tp {
			t.Fatalf("fi=%d: PartialTp(1) = %v, want Tp %v", i, got, row.Pred[i].Tp)
		}
		if got := row.PartialTp(i, 0); got != 0 {
			t.Fatalf("fi=%d: PartialTp(0) = %v, want 0", i, got)
		}
		half := row.PartialTp(i, 0.5)
		if float64(half) != 0.5*float64(row.Pred[i].Tp) {
			t.Fatalf("fi=%d: PartialTp(0.5) = %v, want half of %v", i, half, row.Pred[i].Tp)
		}
	}
}

// refDrawPerRank is drawPerRank as it read before Eval hoisted the
// per-rank work out of the ladder loop: the per-rank compute term is
// re-derived for each of the three ladder indices of every point. It is
// the oracle TestEvalMatchesPerPointPredict holds Row.Draw to.
func refDrawPerRank(params []machine.Params, w core.Workload, fi int) units.Watts {
	mp := params[fi]
	p := float64(w.P)
	dm := (w.WOff + w.DWOff) / p * float64(mp.Tm)
	active := 0.0
	for _, g := range [3]int{0, fi, len(params) - 1} {
		dc := (w.WOn + w.DWOn) / p * float64(params[g].Tc)
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

// Eval's one validated ladder pass must equal, bit for bit, a validated
// core.Model.Predict at every ladder point, and its draw the per-point
// reference formula — over both presets, the five NPB vectors, every
// width 1…128 and 50 log-uniform problem sizes per vector (the synthetic
// trace's ranges).
func TestEvalMatchesPerPointPredict(t *testing.T) {
	shapes := []struct {
		v        app.Vector
		nLo, nHi float64
	}{
		{app.EP(), 1e7, 1e8},
		{app.FT(4), 1 << 16, 1 << 19},
		{app.CG(11, 3), 2e4, 1e5},
		{app.IS(1024, 4), 1 << 16, 1 << 20},
		{app.MG(2), 1 << 15, 1 << 18},
	}
	rng := rand.New(rand.NewSource(54))
	var r Row
	rows := 0
	for _, spec := range []machine.Spec{machine.SystemG(), machine.Dori()} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		params, err := spec.LadderParams()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			for k := 0; k < 50; k++ {
				n := math.Ceil(sh.nLo * math.Exp(rng.Float64()*math.Log(sh.nHi/sh.nLo)))
				for p := 1; p <= 128; p++ {
					w := sh.v.At(n, p)
					if err := c.Eval(&r, w); err != nil {
						t.Fatalf("%s %s n=%g p=%d: %v", spec.Name, sh.v.Name, n, p, err)
					}
					for i := range params {
						want, err := (&core.Model{Machine: params[i], App: w}).Predict()
						if err != nil {
							t.Fatalf("%s %s n=%g p=%d f#%d: Eval priced what Predict rejects: %v", spec.Name, sh.v.Name, n, p, i, err)
						}
						if r.Pred[i] != want {
							t.Fatalf("%s %s n=%g p=%d f#%d:\n Eval    %+v\n Predict %+v", spec.Name, sh.v.Name, n, p, i, r.Pred[i], want)
						}
						if d := units.Watts(float64(p) * float64(refDrawPerRank(params, w, i))); r.Draw[i] != d {
							t.Fatalf("%s %s n=%g p=%d f#%d: draw %v, reference %v", spec.Name, sh.v.Name, n, p, i, r.Draw[i], d)
						}
					}
					rows++
				}
			}
		}
	}
	if rows != 2*5*50*128 {
		t.Fatalf("compared %d rows", rows)
	}
}

// A workload Predict rejects — α outside (0, 1], a negative message
// count, a sequential energy that is not positive — fails Eval too, with
// Predict's reason; and a reused row priced after a failure, or with no
// parallel time after a row that had some, is whole.
func TestEvalRejectsWhatPredictRejects(t *testing.T) {
	c := testCache(t)
	good := app.CG(11, 15).At(75000, 8)
	bad := map[string]core.Workload{}
	for _, alpha := range []float64{0, -0.5, 1.5} {
		w := good
		w.Alpha = alpha
		bad[fmt.Sprintf("alpha=%g", alpha)] = w
	}
	negM := good
	negM.M = -1
	bad["negative M"] = negM
	bad["E1 = 0"] = core.Workload{Alpha: 1, P: 8} // no work: valid, degenerate
	mp := c.ParamsAt(0)
	var r Row
	for name, w := range bad {
		_, predictErr := (&core.Model{Machine: mp, App: w}).Predict()
		evalErr := c.Eval(&r, w)
		if predictErr == nil || evalErr == nil || !strings.HasSuffix(evalErr.Error(), predictErr.Error()) {
			t.Fatalf("%s: Predict error %v, Eval error %v", name, predictErr, evalErr)
		}
		if err := c.Eval(&r, good); err != nil {
			t.Fatal(err)
		}
		for i := range c.Ladder() {
			want, err := (&core.Model{Machine: c.ParamsAt(i), App: good}).Predict()
			if err != nil || r.Pred[i] != want {
				t.Fatalf("after %s: f#%d Eval %+v, Predict %+v (%v)", name, i, r.Pred[i], want, err)
			}
		}
	}
	// No parallel time prices no speedup, even into a row that held one.
	idle := core.Workload{Alpha: 1, WOn: 1e9, DWOn: -1e9, P: 8}
	if err := c.Eval(&r, idle); err != nil {
		t.Fatal(err)
	}
	for i := range c.Ladder() {
		want, err := (&core.Model{Machine: c.ParamsAt(i), App: idle}).Predict()
		if err != nil || r.Pred[i] != want {
			t.Fatalf("zero Tp: f#%d Eval %+v, Predict %+v (%v)", i, r.Pred[i], want, err)
		}
	}
}
