package main

import "sort"

// summary is one metric's samples over the iterations of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// N is the sample count. No higher percentile is reported: with
	// fewer than ten samples none lies beyond any.
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(samples []float64) summary {
	q1, q3 := quartiles(samples)
	return summary{Median: median(samples), Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the middle two; zero
// for no samples.
func median(v []float64) float64 {
	s := sorted(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so a
// spread computed here matches one computed by a driver in Python. One
// sample is its own quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
