package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/units"
)

// A small synthetic stream pins the rollup format exactly: header,
// one row per non-empty bucket, totals/quantile/top-K footers.
func TestRollupGolden(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewRollupSink(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{T: 0.1, Kind: EvArrive, Job: 0},
		{T: 0.2, Kind: EvAttempt, Job: 0, Reason: "watts"},
		{T: 0.3, Kind: EvAdmit, Job: 0, Wait: 0.2},
		{T: 2.5, Kind: EvFinish, Job: 0, Energy: 10},
		{T: 2.6, Kind: EvSample, Power: 1200},
	}
	for _, ev := range evs {
		if err := s.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := "t0_s,arrive,attempt,admit,reject,finish,reserve,throttle,boost,retune,plan_edge,sample,violation,fail,repair,kill,checkpoint,restart,route,wait_max_s,energy_j,power_max_w\n" +
		"0.000000,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.2,0,0\n" +
		"2.000000,0,0,0,0,1,0,0,0,0,0,1,0,0,0,0,0,0,0,0,10,1200\n" +
		"# totals: events=5 arrive=1 attempt=1 admit=1 finish=1 sample=1\n" +
		"# wait_s: n=1 p50=0.2 p90=0.2 p99=0.2 max=0.2 (reservoir 512)\n" +
		"# block-reasons: \"watts\"=1\n"
	if got := buf.String(); got != want {
		t.Fatalf("rollup output:\n%s\nwant:\n%s", got, want)
	}
}

func TestRollupRejectsNonpositiveBucket(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewRollupSink(io.Discard, units.Seconds(bad)); err == nil {
			t.Fatalf("bucket %v must be rejected", bad)
		}
	}
}

// Backwards-time events (the pre-run EvRoute stream replayed into a
// later bucket) fold forward instead of corrupting bucket order.
func TestRollupClampsBackwardsTime(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewRollupSink(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	writeOk := func(ev Event) {
		t.Helper()
		if err := s.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	writeOk(Event{T: 5.5, Kind: EvArrive})
	writeOk(Event{T: 0.5, Kind: EvRoute}) // arrives out of order
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 1+1+3 {
		t.Fatalf("want exactly one data row (both events in the t=5 bucket):\n%s", out)
	}
	if !strings.Contains(out, "# totals: events=2 arrive=1 route=1\n") {
		t.Fatalf("totals wrong:\n%s", out)
	}
}

// countingWriter discards its input, tracking only volume — the
// bounded-memory harness writes through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// The acceptance gate: a 100k-job synthetic stream (≈600k events)
// flows through the rollup with O(1) retained state — no O(jobs) event
// retention. Measured two ways: the live heap delta after the stream
// stays far below the stream's volume, and steady-state writes
// allocate nothing.
func TestRollupBoundedMemory(t *testing.T) {
	const jobs = 100_000
	cw := &countingWriter{}
	s, err := NewRollupSink(cw, 10)
	if err != nil {
		t.Fatal(err)
	}

	feed := func(j int) {
		t0 := units.Seconds(float64(j) * 0.01)
		s.Write(Event{T: t0, Kind: EvArrive, Job: j})
		s.Write(Event{T: t0, Kind: EvAttempt, Job: j, Reason: fmt.Sprintf("reason-%d", j%40)})
		s.Write(Event{T: t0 + 0.5, Kind: EvAdmit, Job: j, Wait: units.Seconds(float64(j%97) * 0.01)})
		s.Write(Event{T: t0 + 1, Kind: EvSample, Power: units.Watts(2000 + float64(j%100))})
		s.Write(Event{T: t0 + 2, Kind: EvFinish, Job: j, Energy: 50})
	}
	// Warm up past the reservoir fill and top-K churn, then baseline.
	for j := 0; j < 1000; j++ {
		feed(j)
	}
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for j := 1000; j < jobs; j++ {
		feed(j)
	}
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// ~495k events flowed through; retained state must stay fixed-size.
	// 1 MiB of slack absorbs GC bookkeeping noise; retaining the events
	// (≈100 bytes each) would need ~50 MiB.
	const slack = 1 << 20
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > slack {
		t.Fatalf("heap grew %d bytes across %d events — rollup is retaining per-event state", grew, (jobs-1000)*5)
	}
	if cw.n == 0 {
		t.Fatal("no rows streamed")
	}
	// Steady state within a bucket: zero allocations per event.
	ev := Event{T: units.Seconds(float64(jobs) * 0.01), Kind: EvAdmit, Wait: 0.3}
	allocs := testing.AllocsPerRun(1000, func() { s.Write(ev) })
	if allocs != 0 {
		t.Fatalf("steady-state rollup write allocates %g per event, want 0", allocs)
	}
}

// The reservoir is a pure function of the observation sequence, and
// the top-K table evicts deterministically.
func TestRollupFooterDeterminism(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		s, err := NewRollupSink(&buf, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5000; j++ {
			s.Write(Event{T: units.Seconds(float64(j) * 0.001), Kind: EvAdmit, Wait: units.Seconds(float64((j * 37) % 101))})
			s.Write(Event{T: units.Seconds(float64(j) * 0.001), Kind: EvAttempt, Reason: fmt.Sprintf("r%d", j%50)})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("rollup output is not deterministic for identical streams")
	}
	if !strings.Contains(a, "# block-reasons:") || !strings.Contains(a, "p99=") {
		t.Fatalf("footers missing:\n%s", a[len(a)-400:])
	}
}
