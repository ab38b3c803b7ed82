package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are what Python's statistics.quantiles(v, n=4)
	// prints for the same data.
	for _, tc := range []struct {
		name        string
		v           []float64
		med, q1, q3 float64
	}{
		{name: "empty", v: nil},
		{name: "one", v: []float64{7}, med: 7, q1: 7, q3: 7},
		{name: "two", v: []float64{4, 2}, med: 3, q1: 1.5, q3: 4.5},
		{name: "odd", v: []float64{5, 1, 4, 2, 3}, med: 3, q1: 1.5, q3: 4.5},
		{name: "even", v: []float64{40, 10, 30, 20}, med: 25, q1: 12.5, q3: 37.5},
		{name: "ten", v: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q3: 8.25},
		{name: "seven with ties", v: []float64{2, 2, 2, 3, 9, 9, 1}, med: 2, q1: 2, q3: 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := median(tc.v); got != tc.med {
				t.Errorf("median = %g, want %g", got, tc.med)
			}
			q1, q3 := quartiles(tc.v)
			if q1 != tc.q1 || q3 != tc.q3 {
				t.Errorf("quartiles = %g, %g, want %g, %g", q1, q3, tc.q1, tc.q3)
			}
		})
	}
	v := []float64{3, 1, 2}
	summarize(v)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("summarize reordered its input: %v", v)
	}
}

func TestSelfTimeFromNestedPhaseTotals(t *testing.T) {
	for _, tc := range []struct {
		name     string
		total    float64
		children []float64
		want     float64
	}{
		{"no children", 4, nil, 4},
		{"drain minus admission and governor", 4.0, []float64{1.0, 1.25}, 1.75},
		{"admission minus backfill", 1.0, []float64{0.11}, 0.89},
		{"children clipped to the parent", 1.0, []float64{0.7, 0.6}, 0},
		{"empty phase", 0, []float64{0}, 0},
	} {
		if got := selfTime(tc.total, tc.children...); math.Abs(got-tc.want) > 1e-12 || got < 0 {
			t.Errorf("%s: selfTime(%g, %v) = %g, want %g", tc.name, tc.total, tc.children, got, tc.want)
		}
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "iteration", Parent: -1, Start: 0, End: 100},
		{Name: "setup", Parent: 0, Start: 0, End: 10},
		{Name: "timed", Parent: 0, Start: 10, End: 95},
		{Name: "New", Parent: 2, Start: 10, End: 15},
		{Name: "Run", Parent: 2, Start: 15, End: 120}, // runs past its parent: clipped to it
		{Name: "twin a", Parent: 4, Start: 15, End: 100},
		{Name: "twin b", Parent: 4, Start: 15, End: 100}, // overlapping children
	}
	setSelfTimes(spans)
	want := []int64{5, 10, 0, 5, 0, 85, 85}
	for i, sp := range spans {
		if sp.Self != want[i] {
			t.Errorf("%s: self = %d, want %d", sp.Name, sp.Self, want[i])
		}
	}
}

func TestFedFrontendWithUnequalSites(t *testing.T) {
	// fed.Run took 3.0 s; the sites drained for 2.5 s and 1.5 s in
	// parallel, so the slower one bounds the overlap.
	frontend, imbalance := frontendSeconds(3.0, []float64{2.5, 1.5})
	if math.Abs(frontend-0.5) > 1e-12 {
		t.Errorf("frontend = %g, want 0.5", frontend)
	}
	if math.Abs(imbalance-1.25) > 1e-12 {
		t.Errorf("imbalance = %g, want 1.25 (2.5 over a mean of 2.0)", imbalance)
	}
	if frontend, _ := frontendSeconds(1.0, []float64{1.2, 0.1}); frontend != 0 {
		t.Errorf("a site drain longer than fed.Run must clip to zero, got %g", frontend)
	}
	if _, imbalance := frontendSeconds(1.0, nil); imbalance != 0 {
		t.Errorf("no sites: imbalance = %g, want 0", imbalance)
	}
}
