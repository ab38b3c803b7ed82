package sim

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestTimerCancelSkipsEvent(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Schedule(1, func() { order = append(order, "a") })
	tm := k.ScheduleTimer(2, func() { order = append(order, "b") })
	k.Schedule(3, func() { order = append(order, "c") })
	tm.Cancel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "ac" {
		t.Fatalf("order = %q, want ac (cancelled event fired)", got)
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %v, want 3", k.Now())
	}
}

func TestTimerCancelFromCallback(t *testing.T) {
	k := NewKernel(1)
	var tm Timer
	fired := false
	k.Schedule(1, func() { tm.Cancel() })
	tm = k.ScheduleTimer(5, func() { fired = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event fired despite in-sim cancellation")
	}
}

func TestTimerCancelledEventsDontCountOrAdvanceClock(t *testing.T) {
	k := NewKernel(1)
	var last float64
	k.Schedule(1, func() { last = 1 })
	tm := k.ScheduleTimer(2, func() { t.Error("cancelled event fired") })
	tm2 := k.ScheduleTimer(3, func() { t.Error("cancelled event fired") })
	k.Schedule(4, func() { last = 4 })
	tm.Cancel()
	tm2.Cancel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 live events fired: cancelled pops must not count.
	if n := k.Stats().Events; n != 2 {
		t.Fatalf("Stats().Events = %d, want 2 (cancelled events counted)", n)
	}
	if last != 4 || k.Now() != 4 {
		t.Fatalf("last = %v, Now = %v; want 4, 4", last, k.Now())
	}
}

func TestTimerZeroAndPostFireCancelAreNoops(t *testing.T) {
	var zero Timer
	zero.Cancel() // must not panic

	k := NewKernel(1)
	n := 0
	tm := k.ScheduleTimer(1, func() { n++ })
	k.Schedule(2, func() {
		tm.Cancel() // already fired: no-op
	})
	k.Schedule(3, func() { n++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if k.tombs != nil {
		t.Fatal("tombstones not reclaimed after queue drained")
	}
}

func TestTimerCancelOneOfSameTime(t *testing.T) {
	k := NewKernel(1)
	var order []int
	timers := make([]Timer, 5)
	for i := 0; i < 5; i++ {
		i := i
		timers[i] = k.ScheduleTimer(1, func() { order = append(order, i) })
	}
	timers[2].Cancel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Tombstones against a replay of the same schedule: timers and
// cancellers armed up front on a small time grid (so ties, cancels
// before and after the fire, and double cancels are common); a timer
// fires exactly when no canceller for it popped first.
func TestTimerCancelMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		k := NewKernel(1)
		type armed struct {
			t      units.Seconds
			target int // -1: a timer; else the timer this cancels
		}
		var evs []armed
		var timers []Timer
		var fired []int
		for i := 0; i < 40; i++ {
			at := units.Seconds(r.Intn(8))
			if len(timers) == 0 || r.Intn(2) == 0 {
				id := len(timers)
				evs = append(evs, armed{t: at, target: -1})
				timers = append(timers, k.ScheduleTimer(at, func() { fired = append(fired, id) }))
				continue
			}
			target := r.Intn(len(timers))
			evs = append(evs, armed{t: at, target: target})
			k.Schedule(at, func() { timers[target].Cancel() })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		// Replay: pop order is (t, arming order).
		order := make([]int, len(evs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return evs[order[a]].t < evs[order[b]].t })
		var want []int
		cancelled := map[int]bool{}
		timerID := make([]int, len(evs))
		for i, id := 0, 0; i < len(evs); i++ {
			if evs[i].target < 0 {
				timerID[i], id = id, id+1
			}
		}
		for _, i := range order {
			if evs[i].target >= 0 {
				cancelled[evs[i].target] = true
			} else if !cancelled[timerID[i]] {
				want = append(want, timerID[i])
			}
		}
		if !slices.Equal(fired, want) {
			t.Fatalf("trial %d: fired %v, want %v", trial, fired, want)
		}
		if k.tombs != nil {
			t.Fatalf("trial %d: %d tombstones left after the drain", trial, len(k.tombs))
		}
	}
}
