package sched

import (
	"testing"

	"repro/internal/app"
	"repro/internal/machine"
	"repro/internal/units"
)

// BackfillN composes names, normalises k, and re-wraps by adjusting the
// reservation count; Backfill keeps an existing wrapper untouched.
func TestBackfillNWrapping(t *testing.T) {
	bf2 := BackfillN(EEMax(), 2)
	if bf2.Name() != "backfill2+ee-max" {
		t.Fatalf("name %q", bf2.Name())
	}
	if BackfillN(EEMax(), 1).Name() != "backfill+ee-max" {
		t.Fatal("k=1 keeps the classic name")
	}
	if BackfillN(EEMax(), 0) != BackfillN(EEMax(), 1) {
		t.Fatal("k<1 must normalise to 1")
	}
	// Backfill preserves a wrapper's reservation count; BackfillN
	// adjusts it.
	if Backfill(bf2) != bf2 {
		t.Fatal("Backfill must keep an existing wrapper unchanged")
	}
	if BackfillN(bf2, 3) != BackfillN(EEMax(), 3) {
		t.Fatal("BackfillN must re-wrap the inner policy with the new count")
	}
	if bf2.DVFS() != EEMax().DVFS() {
		t.Fatal("DVFS must delegate to the inner policy")
	}
}

// White-box: with Reservations K, an admission pass leaves one
// reservation per blocked job (up to K), in arrival order, at strictly
// ascending shadow starts — each walk replaying the earlier
// reservations' occupancy.
func TestMultiReservationWhiteBox(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 8, Cap: 2000, Policy: BackfillN(EEMax(), k)})
		if err != nil {
			t.Fatal(err)
		}
		// All eight ranks busy with one running job.
		lj := epJob(100, 8)
		le := &entry{job: lj, res: JobResult{Job: lj, State: Running}}
		prof, _ := s.priced(le, 0, 8)
		if prof == nil {
			t.Fatal("the running job does not price")
		}
		rj := &runningJob{e: le, ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, fIdx: 0, admIdx: 0, prof: prof}
		s.running = []*runningJob{rj}
		s.pools[0].free = nil
		// Three rigid full-width jobs queue up: none can start or
		// backfill, so each of the first K gets a reservation.
		for id := 0; id < 3; id++ {
			j := Job{ID: id, Vector: app.EP(), N: 1e7, MinWidth: 8, MaxWidth: 8}
			e := &entry{job: j, res: JobResult{Job: j, State: Queued}}
			s.entries[id] = e
			s.enqueue(e)
		}
		s.tryAdmit()
		want := k
		if want > 3 {
			want = 3
		}
		if len(s.rsvs) != want {
			t.Fatalf("k=%d: %d reservations, want %d", k, len(s.rsvs), want)
		}
		prevAt := units.Seconds(-1)
		for i, rsv := range s.rsvs {
			if rsv.e.job.ID != i {
				t.Fatalf("k=%d: reservation %d is for job %d, want arrival order", k, i, rsv.e.job.ID)
			}
			if rsv.at <= prevAt {
				t.Fatalf("k=%d: reservation %d start %v does not ascend past %v", k, i, rsv.at, prevAt)
			}
			if rsv.p != 8 || rsv.extraRanks[0] != 0 {
				t.Fatalf("k=%d: reservation %d holds p=%d extras=%v", k, i, rsv.p, rsv.extraRanks)
			}
			prevAt = rsv.at
		}
	}
}

// conservativeTrace is the workload where the conservative variant
// provably matters. 8 ranks: L1 (2-wide, ~r) and L2 (4-wide, ~2r) hold
// six; A (6-wide) blocks until L2 drains and gets the head reservation
// either way. B (4-wide, short) could start the moment L1 ends — but D,
// a high-priority straggler ending before A's reserved start, would
// squat two of the ranks B's shadow start needs. With one reservation D
// backfills and B slips; with two, B's reservation blocks D.
func conservativeTrace(r units.Seconds) []Job {
	return []Job{
		{ID: 0, Vector: app.EP(), N: 2 * 4e6, MinWidth: 2, MaxWidth: 2, Arrival: 0},
		{ID: 1, Vector: app.EP(), N: 8 * 4e6, MinWidth: 4, MaxWidth: 4, Arrival: 0},
		{ID: 2, Vector: app.EP(), N: 6 * 4e6, MinWidth: 6, MaxWidth: 6, Arrival: units.Seconds(0.10 * float64(r))},
		{ID: 3, Vector: app.EP(), N: 2 * 4e6, MinWidth: 4, MaxWidth: 4, Arrival: units.Seconds(0.15 * float64(r))},
		{ID: 4, Vector: app.EP(), N: 2 * 4e6, MinWidth: 2, MaxWidth: 2, Priority: 4, Arrival: units.Seconds(0.20 * float64(r))},
	}
}

// Satellite acceptance: Reservations K protects the K-th blocked job
// the way EASY protects the head. Under k=1 the straggler D backfills
// into B's shadow start and delays it; under k=2 B keeps its start and
// D waits its turn — at no cost to the head reservation, the cap, or
// completion.
func TestMultiReservationProtectsSecondBlockedJob(t *testing.T) {
	r := narrowRuntime(t, 4e6)
	trace := conservativeTrace(r)
	run := func(k int) Result {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 8, Cap: 2000, Policy: BackfillN(EEMax(), k), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(trace) {
			t.Fatalf("k=%d: completed %d of %d", k, res.Completed, len(trace))
		}
		if res.CapViolations != 0 {
			t.Fatalf("k=%d: %d cap violations", k, res.CapViolations)
		}
		return res
	}
	one, two := run(1), run(2)
	bOne, bTwo := one.Jobs[3], two.Jobs[3]
	if !(bTwo.Wait < bOne.Wait) {
		t.Fatalf("second reservation should cut B's wait: k=1 %v vs k=2 %v", bOne.Wait, bTwo.Wait)
	}
	// The protection reorders D behind B instead of letting it squat.
	if !(two.Jobs[4].Wait > one.Jobs[4].Wait) {
		t.Fatalf("D should wait for B under k=2: k=1 %v vs k=2 %v", one.Jobs[4].Wait, two.Jobs[4].Wait)
	}
	// The head's protection is untouched.
	if one.Jobs[2].Wait != two.Jobs[2].Wait {
		t.Fatalf("head wait changed: k=1 %v vs k=2 %v", one.Jobs[2].Wait, two.Jobs[2].Wait)
	}
	// Only two jobs ever block, so a third reservation changes nothing.
	compareResults(t, "k=2 vs k=3", stripPolicy(two), stripPolicy(run(3)))
	// Deterministic replay, multi-reservations included.
	compareResults(t, "k=2 determinism", two, run(2))
}

// stripPolicy blanks the policy label so schedules from differently
// named wrappers can be compared field for field.
func stripPolicy(r Result) Result {
	r.Policy = ""
	return r
}
