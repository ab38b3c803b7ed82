package opcache

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
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
			want, err := (core.Model{Machine: mp, App: v.At(n, p)}).Predict()
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

// Forget drops an owner's rows (and only that owner's).
func TestForget(t *testing.T) {
	c := testCache(t)
	if _, err := c.Row(1, app.EP(), 1e7, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Row(2, app.EP(), 1e7, 2); err != nil {
		t.Fatal(err)
	}
	if n := c.Size(); n != 2 {
		t.Fatalf("size = %d, want 2", n)
	}
	c.Forget(1)
	if n := c.Size(); n != 1 {
		t.Fatalf("size after forget = %d, want 1", n)
	}
	if _, err := c.Row(1, app.EP(), 1e7, 2); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 3 {
		t.Fatalf("forgotten row must re-evaluate: %d misses, want 3", st.Misses)
	}
	if st.Forgets != 1 {
		t.Fatalf("forgets = %d, want 1", st.Forgets)
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

// Eval into one reused Row must equal a fresh memo row field by field,
// across two specs with different ladder lengths (long → short → long),
// fail with Row's exact error text, and never touch the memo.
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
			want, err := c.Row(step, cg, 75000, p)
			if err != nil {
				t.Fatal(err)
			}
			before, size := c.Stats(), c.Size()
			if err := c.Eval(&r, cg, 75000, p); err != nil {
				t.Fatal(err)
			}
			if c.Stats() != before || c.Size() != size {
				t.Fatalf("step %d p=%d: Eval moved the memo: %+v/%d → %+v/%d", step, p, before, size, c.Stats(), c.Size())
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
		_, rowErr := c.Row("bad", bad, 75000, 4)
		evalErr := c.Eval(&r, bad, 75000, 4)
		if rowErr == nil || evalErr == nil || rowErr.Error() != evalErr.Error() {
			t.Fatalf("step %d: Row error %v, Eval error %v", step, rowErr, evalErr)
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
