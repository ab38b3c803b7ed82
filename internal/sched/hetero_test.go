package sched

import (
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/machine"
	"repro/internal/units"
)

// mixedPlatform is the acceptance-criteria fleet: 32 SystemG nodes and
// 32 Dori nodes under one cap.
func mixedPlatform() machine.Platform {
	pl, err := machine.ParsePlatform("systemg:32,dori:32")
	if err != nil {
		panic(err)
	}
	return pl
}

// Acceptance: a mixed systemg+dori trace runs end to end under every
// policy family with zero cap violations, every job accounted, a
// balanced energy ledger, and rank sets that never span pools.
func TestHeterogeneousTraceEndToEnd(t *testing.T) {
	pl := mixedPlatform()
	trace := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 5, MaxWidth: 16})
	for _, pol := range []Policy{FIFO(), EEMax(), FairShare(), Backfill(EEMax()), Backfill(FIFO())} {
		s, err := New(Config{Platform: pl, Cap: 3000, Policy: pol, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Completed+res.Rejected != len(trace) {
			t.Errorf("%s: %d jobs unaccounted", pol.Name(), len(trace)-res.Completed-res.Rejected)
		}
		if res.CapViolations != 0 {
			t.Errorf("%s: %d cap violations (peak %v, cap %v)", pol.Name(), res.CapViolations, res.PeakPower, res.Cap)
		}
		if float64(res.PeakPower) > float64(res.Cap)*(1+1e-9) {
			t.Errorf("%s: peak %v exceeds cap %v", pol.Name(), res.PeakPower, res.Cap)
		}
		if res.Platform != "SystemG:32+Dori:32" {
			t.Errorf("%s: platform label %q", pol.Name(), res.Platform)
		}
		var jobsE units.Joules
		for _, j := range res.Jobs {
			jobsE += j.Energy
			if j.State != Done {
				continue
			}
			// A dispatched job names its pool and fits inside it.
			switch j.Pool {
			case "SystemG", "Dori":
				if j.P > 32 {
					t.Errorf("%s: job %d width %d exceeds its 32-node pool", pol.Name(), j.ID, j.P)
				}
			default:
				t.Errorf("%s: job %d has pool %q", pol.Name(), j.ID, j.Pool)
			}
		}
		if got, want := float64(jobsE+res.ParkedEnergy), float64(res.TotalEnergy); math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: ledger mismatch: jobs+parked %g vs total %g", pol.Name(), got, want)
		}
	}
}

// The pool choice is policy-visible and deterministic: fifo drains onto
// the lowest-ranked pool that fits (spilling to the next pool when the
// first is full), while ee-max keeps every job on the EE-best pool it
// can justify. Both replay bit for bit under one seed.
func TestHeterogeneousPoolChoice(t *testing.T) {
	pl := mixedPlatform()
	// Sixteen simultaneous rigid 8-wide EP jobs: fifo must overflow the
	// 32-rank SystemG pool into Dori.
	var trace []Job
	for i := 0; i < 16; i++ {
		trace = append(trace, Job{ID: i, Vector: app.EP(), N: 2e7, MinWidth: 8, MaxWidth: 8})
	}
	run := func(pol Policy) Result {
		s, err := New(Config{Platform: pl, Cap: 6000, Policy: pol, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fifo := run(FIFO())
	used := map[string]int{}
	for _, j := range fifo.Jobs {
		if j.State == Done {
			used[j.Pool]++
		}
	}
	if used["SystemG"] == 0 || used["Dori"] == 0 {
		t.Fatalf("fifo should spill across pools, got %v", used)
	}
	// The first four admissions fill SystemG (lowest ranks first).
	for i := 0; i < 4; i++ {
		if fifo.Jobs[i].Pool != "SystemG" {
			t.Fatalf("fifo job %d on %q, want the lowest-ranked pool first", i, fifo.Jobs[i].Pool)
		}
	}

	// ee-max prices both pools and keeps jobs on the EE/width-slack
	// winner (SystemG here — Dori's points are far slower), letting the
	// overflow wait instead of degrading.
	ee := run(EEMax())
	for _, j := range ee.Jobs {
		if j.State == Done && j.Pool != "SystemG" {
			t.Fatalf("ee-max placed job %d on %q; the slack rule should bind it to the fast pool", j.ID, j.Pool)
		}
	}

	// Determinism across identical runs, reservations included.
	a, b := run(Backfill(EEMax())), run(Backfill(EEMax()))
	compareResults(t, "hetero determinism", a, b)
	for i := range a.Jobs {
		if a.Jobs[i].Pool != b.Jobs[i].Pool {
			t.Fatalf("pool assignment not deterministic for job %d: %q vs %q", i, a.Jobs[i].Pool, b.Jobs[i].Pool)
		}
	}
}

// A rigid job wider than the fast pool must land on the bigger slow
// pool rather than be rejected: the width-slack reference only ranges
// over pools that can hold the job at all, so the slow pool cannot be
// graded against a fast-pool runtime it was never eligible for.
func TestHeterogeneousWideJobFallsToLargerPool(t *testing.T) {
	pl, err := machine.ParsePlatform("systemg:8,dori:16")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Platform: pl, Cap: 2500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{{ID: 0, Vector: app.EP(), N: 1e7, MinWidth: 12, MaxWidth: 12}})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.State != Done || j.Pool != "Dori" {
		t.Fatalf("12-wide job on an 8+16 platform: state %v pool %q (want done on Dori)", j.State, j.Pool)
	}
}

// Config.Interval: zero still selects the 25 ms default; negative values
// and positive ones under power.MinInterval are a configuration error
// rather than a silent sentinel or a late power.Attach failure.
func TestNegativeIntervalRejected(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-7} {
		if _, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 2, Cap: 500, Interval: units.Seconds(bad)}); err == nil {
			t.Fatalf("interval %v must be rejected", bad)
		}
	}
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 2, Cap: 500})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Interval != 25*units.Millisecond {
		t.Fatalf("zero interval should default to 25 ms, got %v", s.cfg.Interval)
	}
}

// EdgeRetune leaves the schedule untouched when off (the flag defaults
// off and the golden test pins that path); when on, the governor reacts
// at completion edges instead of waiting out a coarse sampling grid, so
// with a sampling period longer than the whole trace the edge-driven
// run must strictly beat the grid-only run — and still never violate
// the cap.
func TestEdgeRetuneCutsControlLatency(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8})
	run := func(edge bool) Result {
		s, err := New(Config{
			Platform:   machine.Homogeneous(machine.SystemG()),
			Ranks:      16,
			Cap:        900,
			Policy:     EEMax(),
			Interval:   10, // coarser than the whole trace: the grid governor never fires mid-run
			EdgeRetune: edge,
			Seed:       11,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, edge := run(false), run(true)
	if base.Completed != len(trace) || edge.Completed != len(trace) {
		t.Fatalf("both runs must complete the trace: %d vs %d", base.Completed, edge.Completed)
	}
	if edge.CapViolations != 0 {
		t.Fatalf("edge retune violated the cap %d times", edge.CapViolations)
	}
	if base.FreqChanges >= edge.FreqChanges {
		t.Fatalf("edge retune should add governor actions: %d vs %d", edge.FreqChanges, base.FreqChanges)
	}
	if edge.Makespan >= base.Makespan {
		t.Fatalf("edge retune should cut the makespan on a coarse grid: %v vs %v", edge.Makespan, base.Makespan)
	}
}

// With edge retune on the regular grid, everything still holds: zero
// violations, balanced books, deterministic replay.
func TestEdgeRetuneOnDefaultGrid(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 3, MaxWidth: 8})
	run := func() Result {
		s, err := New(Config{
			Platform:   machine.Homogeneous(testSpec()),
			Ranks:      16,
			Cap:        900,
			Policy:     Backfill(EEMax()),
			EdgeRetune: true,
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CapViolations != 0 {
		t.Fatalf("%d cap violations with edge retune", a.CapViolations)
	}
	var jobsE units.Joules
	for _, j := range a.Jobs {
		jobsE += j.Energy
	}
	if got, want := float64(jobsE+a.ParkedEnergy), float64(a.TotalEnergy); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("ledger mismatch under edge retune: %g vs %g", got, want)
	}
	compareResults(t, "edge-retune determinism", a, b)
}
