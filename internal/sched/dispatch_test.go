package sched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/opcache"
	"repro/internal/units"
)

// Admission hands dispatch the row it priced, and prices it once: start
// evaluates nothing of its own and no scheduling edge prices a width its
// entry already holds, so the run evaluates exactly the rows the parent
// commit did (the literal) and never touches the memo.
func TestDispatchUsesAdmittedRow(t *testing.T) {
	const parentMisses = 337
	s, err := New(Config{Platform: machine.Homogeneous(machine.SystemG()), Ranks: 64, Cap: 2500, Policy: Backfill(EEMax()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 64, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 64 {
		t.Fatalf("completed %d of 64 jobs", res.Completed)
	}
	if st := s.cacheStats(); st != (opcache.Stats{Misses: parentMisses}) {
		t.Errorf("op-cache counters %+v, want the parent's %d evaluations, no hit and no forget", st, parentMisses)
	}
}

// A job killed by a rank failure is re-priced at its re-admission, and
// the restarted attempt runs from exactly that row: at every probe the
// profile of each running job is the row its entry's grid holds for its
// (pool, width).
func TestRestartDispatchesFromReadmittedRow(t *testing.T) {
	s, err := New(Config{
		Platform: machine.Homogeneous(machine.SystemG()), Ranks: 16, Cap: 900, Policy: Backfill(EEMax()), Seed: 1,
		Faults: mustFaultPlan(t, "fail=0@0.3,repair=0@0.8,retries=3,ckpt=0.1,restart=0.02"),
	})
	if err != nil {
		t.Fatal(err)
	}
	restarted := 0
	for i := 1; i <= 80; i++ {
		s.cl.Kernel().Schedule(units.Seconds(0.05*float64(i)), func() {
			for _, rj := range s.running {
				if row, _ := s.priced(rj.e, rj.pool, len(rj.ranks)); rj.prof != row {
					t.Errorf("job %d runs from a row its entry's grid does not hold", rj.e.job.ID)
				}
				if rj.e.res.Restarts > 0 {
					restarted++
				}
			}
		})
	}
	res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 16, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 || restarted == 0 {
		t.Fatalf("no restarted job was observed running (restarts %d, probes %d)", res.Restarts, restarted)
	}
}

// Finishing a job returns its ranks through a merge into the pool's
// spare buffer, and the two buffers swap. start takes a job's ranks by
// shifting the free list down, so both buffers keep the pool's full
// capacity and the merge never reallocates — whatever mix of widths was
// dispatched, and after a failure fenced a rank off and a repair put it
// back.
func TestReleaseRanksDoesNotAllocate(t *testing.T) {
	for _, platform := range []string{"systemg:16", "systemg:8,dori:8"} {
		pl, err := machine.ParsePlatform(platform)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Platform: pl, Cap: 1e5})
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		// cycle dispatches one job per width onto the pool, then finishes
		// them in dispatch order and returns what the finishes allocated
		// (each measured on its own: AllocsPerRun truncates an average).
		cycle := func(pool int, widths ...int) float64 {
			var rjs []*runningJob
			for _, w := range widths {
				j := epJob(id, w)
				id++
				e := &entry{job: j, res: JobResult{Job: j}}
				cand, ok := s.liveContext(false).At(e, pool, w, s.pools[pool].ladder[0])
				if !ok {
					t.Fatalf("%s: no candidate at width %d on pool %d", platform, w, pool)
				}
				s.start(e, cand, false, 0)
				rj := s.running[len(s.running)-1]
				for _, r := range rj.ranks {
					s.cl.CompleteOp(r) // the kernel never runs: retire the first phase by hand
				}
				rjs = append(rjs, rj)
			}
			total := 0.0
			for _, rj := range rjs {
				warm := false // AllocsPerRun's warm-up call finishes nothing
				total += testing.AllocsPerRun(1, func() {
					if warm {
						s.vacate(rj, false)
					}
					warm = true
				})
			}
			return total
		}
		for pool := range s.pools {
			for _, widths := range [][]int{{4, 1, 2}, {1}, {3, 5}, {8}, {2, 2, 1, 3}} {
				if got := cycle(pool, widths...); got != 0 {
					t.Fatalf("%s pool %d: finishing widths %v allocated %v objects, want 0", platform, pool, widths, got)
				}
			}
			r := s.pools[pool].free[1]
			s.failRank(r, "scripted")
			if got := cycle(pool, 2, 4); got != 0 {
				t.Fatalf("%s pool %d: finishing with rank %d down allocated %v objects, want 0", platform, pool, r, got)
			}
			s.repairRank(r)
			if got := cycle(pool, 8); got != 0 {
				t.Fatalf("%s pool %d: finishing after the repair allocated %v objects, want 0", platform, pool, got)
			}
			if got := len(s.pools[pool].free); got != s.pools[pool].size {
				t.Fatalf("%s pool %d: %d of %d ranks free after every job finished", platform, pool, got, s.pools[pool].size)
			}
		}
	}
}
