package power

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/units"
)

func testSpec() machine.Spec {
	return machine.Spec{
		Name:             "test",
		CPI:              2,
		BaseFreq:         2 * units.GHz,
		Frequencies:      []units.Hertz{2 * units.GHz},
		Gamma:            2,
		Tm:               100 * units.Nanosecond,
		Ts:               10 * units.Microsecond,
		Tb:               1 * units.Nanosecond,
		DeltaPcBase:      20,
		DeltaPm:          10,
		DeltaPio:         5,
		PcIdle:           40,
		PmIdle:           20,
		PioIdle:          10,
		Pother:           30,
		IdleFreqFraction: 0,
		CoresPerNode:     1,
		Nodes:            8,
	}
}

// trace subscribes a Profile to prof: every sample it takes, in order.
func trace(prof *Profiler) *Profile {
	pr := &Profile{Interval: prof.interval}
	prof.OnSample(func(s Sample) { pr.Samples = append(pr.Samples, s) })
	return pr
}

func TestProfileIntegratesToTrueEnergy(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, 10*units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	for r := 0; r < 2; r++ {
		r := r
		cl.Kernel().Spawn("rank", func(p *sim.Proc) {
			cl.Compute(p, r, 5e7, 1e5) // 50ms CPU + 10ms memory
		})
	}
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	if len(pr.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	got := float64(pr.Energy())
	// The trace covers [0, last sample]; compare against idle power over
	// that horizon plus the active component energies.
	last := pr.Samples[len(pr.Samples)-1].T
	truth := cl.TrueEnergy()
	var idle units.Watts
	for r := 0; r < cl.Ranks(); r++ {
		idle += cl.Params(r).PsysIdle
	}
	want := float64(truth.CPU+truth.Memory) + float64(idle)*float64(last)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("profile energy %g J != busy+idle energy %g J", got, want)
	}
}

func TestSamplePowersAreDecomposed(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, 10*units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	cl.Kernel().Spawn("r0", func(p *sim.Proc) {
		cl.Compute(p, 0, 1e8, 0) // pure CPU, 100ms
	})
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	// During a full-utilisation CPU window: CPU = idle 40 + Δ 20 = 60 W,
	// memory stays at idle 20 W, other flat 30 W, io idle 10 W.
	s := pr.Samples[len(pr.Samples)/2]
	if math.Abs(float64(s.CPU)-60) > 1e-9 {
		t.Fatalf("CPU power = %v, want 60 W", s.CPU)
	}
	if math.Abs(float64(s.Memory)-20) > 1e-9 {
		t.Fatalf("memory power = %v, want idle 20 W", s.Memory)
	}
	if math.Abs(float64(s.Other)-30) > 1e-9 {
		t.Fatalf("other power = %v, want 30 W", s.Other)
	}
	if math.Abs(float64(s.Total)-(60+20+10+30)) > 1e-9 {
		t.Fatalf("total = %v", s.Total)
	}
}

func TestIdleTailShowsIdlePower(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, 10*units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	cl.Kernel().Spawn("r0", func(p *sim.Proc) {
		cl.Compute(p, 0, 1e7, 0) // 10ms busy
		p.Sleep(90 * units.Millisecond)
	})
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	lastSample := pr.Samples[len(pr.Samples)-1]
	wantIdle := 40.0 + 20 + 10 + 30
	if math.Abs(float64(lastSample.Total)-wantIdle) > 1e-9 {
		t.Fatalf("idle-tail power = %v, want %g W", lastSample.Total, wantIdle)
	}
}

func TestPeakAndMean(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, 5*units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	cl.Kernel().Spawn("r0", func(p *sim.Proc) {
		cl.Compute(p, 0, 5e7, 0)
	})
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	if pr.PeakTotal() < pr.MeanTotal() {
		t.Fatalf("peak %v < mean %v", pr.PeakTotal(), pr.MeanTotal())
	}
	if pr.PeakTotal() <= 0 {
		t.Fatal("peak must be positive")
	}
}

func TestCSVAndRender(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, 5*units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	cl.Kernel().Spawn("r0", func(p *sim.Proc) { cl.Compute(p, 0, 2e7, 1e4) })
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := pr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(pr.Samples)+1 {
		t.Fatalf("CSV has %d lines for %d samples", len(lines), len(pr.Samples))
	}
	if !strings.HasPrefix(lines[0], "t_s,cpu_w") {
		t.Fatalf("bad header %q", lines[0])
	}
	chart := pr.Render(40)
	for _, name := range []string{"cpu", "mem", "total"} {
		if !strings.Contains(chart, name) {
			t.Fatalf("chart missing series %q:\n%s", name, chart)
		}
	}
	if (Profile{}).Render(40) == "" {
		t.Fatal("empty profile should still render a placeholder")
	}
}

func TestNoisyMeter(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, 5*units.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	cl.Kernel().Spawn("r0", func(p *sim.Proc) { cl.Compute(p, 0, 1e8, 0) })
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	// Samples in identical full-load windows should differ (meter noise)…
	mid := pr.Samples[len(pr.Samples)/2]
	next := pr.Samples[len(pr.Samples)/2+1]
	if mid.CPU == next.CPU {
		t.Fatal("noisy meter should jitter readings")
	}
	// …but stay within a few percent of the exact 60 W.
	if math.Abs(float64(mid.CPU)-60)/60 > 0.2 {
		t.Fatalf("noisy CPU sample %v too far from 60 W", mid.CPU)
	}
}

func TestAttachValidation(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(cl, 0, false); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if _, err := Attach(cl, -1, false); err == nil {
		t.Fatal("negative interval must be rejected")
	}
	// Positive but below the floor: makespan/interval samples would not
	// fit in memory, so this is an error rather than an endless grid.
	for _, tiny := range []units.Seconds{1e-300, MinInterval / 2, units.Seconds(math.NaN())} {
		if _, err := Attach(cl, tiny, false); err == nil || !strings.Contains(err.Error(), "floor") {
			t.Fatalf("interval %v: got %v, want the floor error", tiny, err)
		}
	}
	if _, err := Attach(cl, MinInterval, false); err != nil {
		t.Fatalf("the floor itself must be accepted: %v", err)
	}
}

// A rank list comes from the command line (powerpack -rank): a rank the
// cluster does not have, or one named twice (it would be counted twice
// in every sample), is an error, never a panic.
func TestAttachRejectsBadRankLists(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ranks []int
		want  string // substring of the error; empty = accepted
	}{
		{"all ranks", nil, ""},
		{"subset", []int{3, 0}, ""},
		{"out of range", []int{9}, "rank 9 out of range [0,4)"},
		{"one past the end", []int{0, 4}, "rank 4 out of range [0,4)"},
		{"negative", []int{1, -1}, "rank -1 out of range [0,4)"},
		{"duplicate", []int{2, 1, 2}, "rank 2 listed twice"},
	} {
		_, err := Attach(cl, units.Millisecond, false, tc.ranks...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSubsetRanks(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, 10*units.Millisecond, false, 0) // only rank 0
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	cl.Kernel().Spawn("r0", func(p *sim.Proc) { p.Sleep(50 * units.Millisecond) })
	cl.Kernel().Spawn("r1", func(p *sim.Proc) { cl.Compute(p, 1, 5e7, 0) })
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	// Rank 0 idles, so its trace must show pure idle power even though
	// rank 1 is busy.
	for _, s := range pr.Samples {
		if math.Abs(float64(s.CPU)-40) > 1e-9 {
			t.Fatalf("rank-0 CPU sample %v, want idle 40 W", s.CPU)
		}
	}
}

// OnSample delivers every recorded sample in order, and KeepSampling
// keeps the grid alive through process-free gaps.
func TestOnSampleAndKeepSampling(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	var seen []Sample
	prof.OnSample(func(s Sample) { seen = append(seen, s) })
	stop := 20 * units.Millisecond
	prof.KeepSampling(func() bool { return cl.Kernel().Now() < stop })
	cl.Kernel().Spawn("work", func(p *sim.Proc) {
		cl.Compute(p, 0, 1e7, 0) // 10 ms of compute, then a 10 ms gap
	})
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	samples := pr.Samples
	if len(seen) != len(samples) {
		t.Fatalf("subscriber saw %d of %d samples", len(seen), len(samples))
	}
	last := samples[len(samples)-1].T
	if last < stop {
		t.Fatalf("sampling stopped at %v; KeepSampling should carry it to ≥ %v", last, stop)
	}
	// The trailing, process-free windows must still show idle power.
	tail := samples[len(samples)-1]
	if tail.Total <= 0 {
		t.Fatalf("idle-gap sample lost the idle floor: %+v", tail)
	}
}

// OnSample supports multiple subscribers, delivered in registration
// order — a telemetry observer must not evict the scheduler's governor
// hook (nor vice versa).
func TestOnSampleMultipleSubscribers(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Attach(cl, units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := trace(prof)
	var order []string
	first, second := 0, 0
	prof.OnSample(func(Sample) {
		first++
		order = append(order, "first")
	})
	prof.OnSample(func(Sample) {
		second++
		order = append(order, "second")
	})
	cl.Kernel().Spawn("work", func(p *sim.Proc) {
		cl.Compute(p, 0, 1e7, 0)
	})
	if err := cl.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	n := len(pr.Samples)
	if n == 0 {
		t.Fatal("no samples recorded")
	}
	if first != n || second != n {
		t.Fatalf("subscribers saw %d/%d of %d samples — one evicted the other", first, second, n)
	}
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("subscribers ran out of registration order at sample %d: %v", i/2, order[i:i+2])
		}
	}
}

// Summing Sample.EnergyIn slices the integrated trace along arbitrary
// boundaries: whole-span equals Energy, windows straddling an endpoint
// contribute pro rata, disjoint slices sum back to the total, and
// out-of-range spans integrate to zero.
func TestEnergyBetween(t *testing.T) {
	pr := Profile{
		Interval: 1,
		Samples: []Sample{
			{T: 1, Total: 100}, // window (0,1] at 100 W
			{T: 2, Total: 200}, // window (1,2] at 200 W
			{T: 3, Total: 50},  // window (2,3] at 50 W
		},
	}
	between := func(t0, t1 units.Seconds) units.Joules {
		var e units.Joules
		prev := units.Seconds(0)
		for _, s := range pr.Samples {
			e += s.EnergyIn(prev, t0, t1)
			prev = s.T
		}
		return e
	}
	if got, want := float64(between(0, 3)), float64(pr.Energy()); got != want {
		t.Fatalf("whole span: %g vs Energy() %g", got, want)
	}
	if got := float64(between(0, 1)); got != 100 {
		t.Fatalf("first window: %g", got)
	}
	// [0.5, 2.5] = 0.5×100 + 1×200 + 0.5×50 = 275.
	if got := float64(between(0.5, 2.5)); math.Abs(got-275) > 1e-12 {
		t.Fatalf("straddling span: %g, want 275", got)
	}
	// Disjoint slices partition the total.
	sum := float64(between(0, 1.7) + between(1.7, 3))
	if math.Abs(sum-350) > 1e-12 {
		t.Fatalf("partition: %g, want 350", sum)
	}
	if between(5, 9) != 0 || between(-3, 0) != 0 {
		t.Fatal("out-of-range spans must integrate to zero")
	}
	if between(2, 2) != 0 {
		t.Fatal("empty span must integrate to zero")
	}
}

// systemGCluster provisions n noise-free SystemG ranks (past the
// preset's 325 nodes for the scaling tier).
func systemGCluster(tb testing.TB, n int) *cluster.Cluster {
	tb.Helper()
	pl := machine.Platform{Pools: []machine.NodePool{{Spec: machine.SystemG(), Nodes: n}}}
	cl, err := cluster.New(cluster.Config{Platform: pl, Ranks: n, Alpha: 0.9, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// A sample steps each rank's meter in place and keeps no trace: a
// 64-rank record allocates nothing — quiet ranks, ranks with an
// operation in flight, and windows that span a retune alike.
func TestRecordDoesNotAllocate(t *testing.T) {
	cl := systemGCluster(t, 64)
	p, err := Attach(cl, 25*units.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	p.OnSample(func(Sample) { n++ })
	for r := 0; r < 64; r += 3 {
		cl.StartCompute(r, 1e9, 1e6, 0.9) // in flight for the whole test
	}
	const runs = 100
	ladder := machine.SystemG().Frequencies
	i := 0
	record := func() {
		if i%2 == 1 {
			for r := 0; r < 64; r += 4 {
				if err := cl.SetRankFrequency(r, ladder[(i/2)%2]); err != nil {
					t.Fatal(err)
				}
			}
		}
		i++
		p.prevT -= p.interval // a window without running the kernel
		p.record()
	}
	if got := testing.AllocsPerRun(runs, record); got != 0 {
		t.Fatalf("record allocates %v per 64-rank sample, want 0", got)
	}
	if n != runs+1 {
		t.Fatalf("%d samples delivered, want %d", n, runs+1)
	}
}

// A KeepSampling run's allocations do not grow with its sample count:
// the profiler keeps folds, not a trace. The work is an event-driven
// operation, not a process, whose goroutine would add a varying runtime
// allocation or two; each count is a mean over ten runs, so a stray one
// left does not tip it, while a profiler that appended every sample would
// add slice growths to every run of the doubled count.
func TestSamplingMemoryIsFlat(t *testing.T) {
	run := func(samples int) float64 {
		return testing.AllocsPerRun(10, func() {
			cl := systemGCluster(t, 16)
			p, err := Attach(cl, 25*units.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			p.OnSample(func(Sample) { n++ })
			p.KeepSampling(func() bool { return n < samples })
			cl.Kernel().After(cl.StartCompute(3, 1e9, 1e6, 1), func() { cl.CompleteOp(3) })
			if err := cl.Kernel().Run(); err != nil {
				t.Fatal(err)
			}
			if n != samples {
				t.Fatalf("%d samples, want %d", n, samples)
			}
		})
	}
	if one, two := run(2000), run(4000); two > one {
		t.Fatalf("doubling the samples raised the run's allocations from %v to %v", one, two)
	}
}

// BenchmarkSample is one profiler sample over the whole cluster, driven
// through the kernel as in a run; ns/rank is the per-rank meter cost.
func BenchmarkSample(b *testing.B) {
	for _, ranks := range []int{64, 1024} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			cl := systemGCluster(b, ranks)
			p, err := Attach(cl, 25*units.Millisecond, false)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			p.OnSample(func(Sample) { n++ })
			p.KeepSampling(func() bool { return n < b.N })
			b.ReportAllocs()
			b.ResetTimer()
			if err := cl.Kernel().Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ranks), "ns/rank")
		})
	}
}
