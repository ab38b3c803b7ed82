package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// shuffledFleet is n running jobs with unique IDs in shuffled order and
// heavily tied priorities (including the unset and negative ones
// priority() folds to 1).
func shuffledFleet(n int, seed int64) []*runningJob {
	rng := rand.New(rand.NewSource(seed))
	fleet := make([]*runningJob, n)
	for i, id := range rng.Perm(n) {
		fleet[i] = &runningJob{e: &entry{res: &JobResult{Job: Job{ID: id, Priority: rng.Intn(5) - 1}}}}
	}
	return fleet
}

// sortSliceOrder is the governor's traversal order as the sort.Slice it
// replaced computed it.
func sortSliceOrder(running []*runningJob) []*runningJob {
	out := append([]*runningJob(nil), running...)
	sort.Slice(out, func(a, b int) bool {
		ja, jb := out[a].e.res.Job, out[b].e.res.Job
		if ja.priority() != jb.priority() {
			return ja.priority() > jb.priority()
		}
		return ja.ID < jb.ID
	})
	return out
}

func TestGovernorOrderMatchesSortSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := &Scheduler{running: shuffledFleet(97, seed)}
		g := &governor{s: s}
		before := slices.Clone(s.running)
		want := sortSliceOrder(s.running)
		if got := g.sorted(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: order differs from sort.Slice", seed)
		}
		// The buffer is reused: a second call, and one on a smaller fleet,
		// give the same answer, and the running list itself never moves.
		if got := g.sorted(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: second call changed the order", seed)
		}
		s.running = s.running[:40]
		if got, want := g.sorted(), sortSliceOrder(s.running); !slices.Equal(got, want) {
			t.Fatalf("seed %d: order differs after the fleet shrank", seed)
		}
		if !slices.Equal(s.running, before[:40]) {
			t.Fatalf("seed %d: sorted() reordered Scheduler.running", seed)
		}
	}
}

func TestGovernorSortedDoesNotAllocate(t *testing.T) {
	g := &governor{s: &Scheduler{running: shuffledFleet(64, 1)}}
	g.sorted() // size the buffer
	if got := testing.AllocsPerRun(100, func() { g.sorted() }); got != 0 {
		t.Fatalf("sorted() allocates %v per call on a warm buffer, want 0", got)
	}
}
