package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/units"
)

// seriesScript is one randomly drawn schedule: plain events armed before
// and after a sorted series, on a small time grid so ties are common.
// Every echo-th series callback schedules a follow-up at the current
// instant, and one a little later.
type seriesScript struct {
	before, after []units.Seconds
	series        []units.Seconds
	echo          int
}

func drawSeriesScript(r *rand.Rand) seriesScript {
	at := func() units.Seconds { return units.Seconds(r.Intn(6)) / 2 }
	var sc seriesScript
	for i := r.Intn(6); i > 0; i-- {
		sc.before = append(sc.before, at())
	}
	for i := r.Intn(30); i > 0; i-- {
		sc.series = append(sc.series, at())
	}
	slices.Sort(sc.series)
	for i := r.Intn(6); i > 0; i-- {
		sc.after = append(sc.after, at())
	}
	sc.echo = 1 + r.Intn(4)
	return sc
}

// run plays the script on a fresh kernel, the series either through
// ScheduleSeries or as one Schedule call per element, and returns the
// firing log and the kernel's gauges.
func (sc seriesScript) run(t *testing.T, asSeries bool) ([]string, Stats) {
	k := NewKernel(1)
	var log []string
	plain := func(name string, ts []units.Seconds) {
		for i, at := range ts {
			label := fmt.Sprintf("%s%d@%v", name, i, at)
			k.Schedule(at, func() { log = append(log, label) })
		}
	}
	fire := func(i int) {
		log = append(log, fmt.Sprintf("s%d@%v", i, k.Now()))
		if i%sc.echo == 0 {
			now := k.Now()
			k.Schedule(now, func() { log = append(log, fmt.Sprintf("echo%d@%v", i, now)) })
			k.After(0.5, func() { log = append(log, fmt.Sprintf("late%d@%v", i, k.Now())) })
		}
	}
	plain("b", sc.before)
	if asSeries {
		k.ScheduleSeries(len(sc.series), func(i int) units.Seconds { return sc.series[i] }, fire)
	} else {
		for i, at := range sc.series {
			k.Schedule(at, func() { fire(i) })
		}
	}
	plain("a", sc.after)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return log, k.Stats()
}

// ScheduleSeries fires its callbacks at the (t, seq) keys n Schedule
// calls would take, so a schedule's every event fires in the same order
// — ties with events armed before and after the series, and events a
// callback arms at its own instant, included — and is counted the same.
func TestScheduleSeriesMatchesScheduleCalls(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		sc := drawSeriesScript(r)
		want, wantSt := sc.run(t, false)
		got, gotSt := sc.run(t, true)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d %+v:\nseries    %v\nschedules %v", trial, sc, got, want)
		}
		if gotSt.Events != wantSt.Events {
			t.Fatalf("trial %d: Events %d, want %d", trial, gotSt.Events, wantSt.Events)
		}
		if gotSt.MaxHeap > wantSt.MaxHeap {
			t.Fatalf("trial %d: MaxHeap %d above the %d of one call per element", trial, gotSt.MaxHeap, wantSt.MaxHeap)
		}
	}
}

// A series holds one pending event, however long it is.
func TestScheduleSeriesHoldsOnlyTheNext(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.ScheduleSeries(1000, func(i int) units.Seconds { return units.Seconds(i / 3) }, func(int) { n++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); n != 1000 || st.Events != 1000 || st.MaxHeap != 1 {
		t.Fatalf("fired %d, Stats %+v; want 1000 events through a one-deep heap", n, st)
	}
}

// A series whose times decrease is a caller's bug, reported like a
// Schedule in the past.
func TestScheduleSeriesUnsortedPanics(t *testing.T) {
	k := NewKernel(1)
	ts := []units.Seconds{1, 2, 1.5}
	k.ScheduleSeries(len(ts), func(i int) units.Seconds { return ts[i] }, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing series time did not panic")
		}
	}()
	_ = k.Run()
}
