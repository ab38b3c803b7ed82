package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/units"
)

// fakeClock implements sim.Clock.
type fakeClock struct{ t units.Seconds }

func (c *fakeClock) Now() units.Seconds { return c.t }

// TestNilRecorderIsFreeAndSafe pins the disabled-path contract: every
// method of a nil recorder (and nil metric handles) is a safe no-op and
// allocates nothing.
func TestNilRecorderIsFreeAndSafe(t *testing.T) {
	var r *Recorder
	var m *Metrics
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	cl := &fakeClock{}
	allocs := testing.AllocsPerRun(1000, func() {
		r.SetClock(cl)
		r.Emit(Event{Kind: EvAdmit, Job: 1})
		_ = r.Metrics()
		_ = r.Err()
		_ = r.Close()
		m.Sample(1)
		var c *Counter
		c.Inc()
		var g *Gauge
		g.Set(3)
		var h *Histogram
		h.Observe(2)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder path allocates: %v allocs/op", allocs)
	}
}

func TestRecorderStampsAndFansOut(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	r := New(a, b)
	cl := &fakeClock{t: 42}
	r.SetClock(cl)
	ranks := []int{3, 4}
	r.Emit(Event{Kind: EvAdmit, Job: 7, Ranks: ranks})
	ranks[0] = 99 // scheduler reuses its slice; sinks must have copied
	for _, m := range []*MemorySink{a, b} {
		evs := m.Events()
		if len(evs) != 1 {
			t.Fatalf("got %d events, want 1", len(evs))
		}
		if evs[0].T != 42 {
			t.Fatalf("T = %v, want clock-stamped 42", evs[0].T)
		}
		if evs[0].Ranks[0] != 3 {
			t.Fatalf("MemorySink aliased Ranks: got %v", evs[0].Ranks)
		}
	}
}

type failSink struct{ n int }

func (f *failSink) Write(Event) error { f.n++; return errors.New("disk full") }
func (f *failSink) Close() error      { return nil }

func TestSinkErrorIsStickyButNonFatal(t *testing.T) {
	mem := NewMemorySink()
	r := New(&failSink{}, mem)
	r.Emit(Event{Kind: EvArrive, Job: 0})
	r.Emit(Event{Kind: EvFinish, Job: 0})
	if r.Err() == nil {
		t.Fatal("sink error not surfaced")
	}
	if len(mem.Events()) != 2 {
		t.Fatalf("healthy sink starved after peer error: got %d events", len(mem.Events()))
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close dropped the sticky error")
	}
}

func TestKindStrings(t *testing.T) {
	if EvAdmit.String() != "admit" || EvPlanEdge.String() != "plan-edge" {
		t.Fatalf("kind names wrong: %q %q", EvAdmit, EvPlanEdge)
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind: %q", Kind(200))
	}
}

func TestMetricsCSV(t *testing.T) {
	m := NewMetrics()
	adm := m.Counter("admitted")
	ret := m.RateCounter("retunes")
	q := m.Gauge("queue_depth")
	h := m.Histogram("wait_s", 1, 10)
	var buf bytes.Buffer
	m.StreamCSV(&buf)

	adm.Inc()
	ret.Add(4)
	q.Set(3)
	h.Observe(0.5)
	h.Observe(20)
	m.Sample(2)
	ret.Add(6)
	q.Set(1)
	m.Sample(4)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header+2 rows:\n%s", len(lines), buf.String())
	}
	wantHeader := "t_s,admitted,retunes,retunes_per_s,queue_depth,wait_s_le_1,wait_s_le_10,wait_s_count,wait_s_sum"
	if lines[0] != wantHeader {
		t.Fatalf("header:\n got %s\nwant %s", lines[0], wantHeader)
	}
	if lines[1] != "2.000000,1,4,2,3,1,1,2,20.5" {
		t.Fatalf("row 1: %s", lines[1])
	}
	// Second row: retunes went 4→10 over dt=2s → rate 3/s.
	if lines[2] != "4.000000,1,10,3,1,1,1,2,20.5" {
		t.Fatalf("row 2: %s", lines[2])
	}
	if err := m.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

// sinkFunc adapts a function to a Sink.
type sinkFunc func(Event) error

func (f sinkFunc) Write(ev Event) error { return f(ev) }
func (f sinkFunc) Close() error         { return nil }

// Counters given event kinds and the wait histogram count the
// recorder's stream. An event is counted before any sink sees it, so a
// sink that reads the registry mid-stream (the status publisher) finds
// it counted.
func TestMetricsCountTheStream(t *testing.T) {
	r := New()
	m := r.Metrics()
	admitted := m.Counter("admitted", EvAdmit)
	m.RateCounter("moves", EvThrottle, EvBoost)
	m.Counter("bypasses").Add(2)
	m.WaitHistogram("wait_s", 1)
	var buf bytes.Buffer
	m.StreamCSV(&buf)
	var seen []float64
	r.AddSink(sinkFunc(func(Event) error {
		seen = append(seen, m.value(admitted))
		return nil
	}))
	for _, ev := range []Event{
		{Kind: EvAdmit, Wait: 0.5},
		{Kind: EvThrottle},
		{Kind: EvBoost},
		{Kind: EvAdmit, Wait: 3},
		{Kind: EvFinish},
	} {
		r.Emit(ev)
	}
	m.Sample(2)
	if want := []float64{1, 1, 1, 2, 2}; !slices.Equal(seen, want) {
		t.Fatalf("admitted as sinks saw it: %v, want %v", seen, want)
	}
	want := "t_s,admitted,moves,moves_per_s,bypasses,wait_s_le_1,wait_s_count,wait_s_sum\n" +
		"2.000000,2,2,1,2,1,2,3.5\n"
	if buf.String() != want {
		t.Fatalf("metrics CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestMetricsRegistrationPanics(t *testing.T) {
	m := NewMetrics()
	m.Counter("x")
	mustPanic(t, "duplicate", func() { m.Gauge("x") })
	m.Sample(0)
	mustPanic(t, "post-header", func() { m.Counter("late") })
	mustPanic(t, "unsorted bounds", func() { NewMetrics().Histogram("h", 5, 1) })
	mustPanic(t, "no bounds", func() { NewMetrics().Histogram("h") })
	mustPanic(t, "second wait histogram", func() {
		m := NewMetrics()
		m.WaitHistogram("a", 1)
		m.WaitHistogram("b", 1)
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s registration did not panic", what)
		}
	}()
	f()
}

func TestNDJSONSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	events := []Event{
		{T: 0, Kind: EvArrive, Job: 0, App: "FT", P: 16, Queue: 1},
		{T: 1.5, Kind: EvRankRetune, Job: NoJob, Rank: 0, FreqFrom: 2e9, Freq: 1.5e9},
		{T: 2, Kind: EvSample, Job: NoJob, Power: 900, Cap: 1000},
	}
	for _, ev := range events {
		if err := s.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	// Job 0 is a valid ID and must survive omitempty.
	if v, ok := first["job"]; !ok || v.(float64) != 0 {
		t.Fatalf("job 0 lost by omitempty: %v", first)
	}
	if first["ev"] != "arrive" {
		t.Fatalf("ev = %v", first["ev"])
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if _, ok := second["job"]; ok {
		t.Fatalf("NoJob serialised: %v", second)
	}
	if v, ok := second["rank"]; !ok || v.(float64) != 0 {
		t.Fatalf("rank 0 lost by omitempty: %v", second)
	}
}

// lifecycle is a small realistic stream for the exporter tests: job 0
// runs (with a throttle), job 1 gets rejected.
func lifecycle() []Event {
	return []Event{
		{T: 0, Kind: EvArrive, Job: 0, App: "FT", P: 4, Queue: 1},
		{T: 0, Kind: EvAdmit, Job: 0, App: "FT", Pool: "cpu", P: 4, FreqFrom: 1.6e9, Freq: 2.4e9,
			Watts: 400, EE: 0.9, Ranks: []int{0, 1, 2, 3}, Headroom: 100, Free: 4, Queue: 0},
		{T: 1, Kind: EvArrive, Job: 1, App: "EP", P: 64, Queue: 1},
		{T: 1, Kind: EvReject, Job: 1, App: "EP", Reason: "needs 64 ranks, platform has 8"},
		{T: 2, Kind: EvPlanEdge, Job: NoJob, Cap: 300, Reason: "pre-drop"},
		{T: 2, Kind: EvThrottle, Job: 0, App: "FT", Ranks: []int{0, 1, 2, 3}, FreqFrom: 2.4e9, Freq: 2.0e9,
			WattsFrom: 400, Watts: 300, Reason: "cap step to 300W"},
		{T: 2.5, Kind: EvSample, Job: NoJob, Power: 290, Cap: 300},
		{T: 3, Kind: EvViolation, Job: NoJob, Power: 310, Cap: 300},
		{T: 4, Kind: EvReserve, Job: 2, At: 6, Dur: 3, Pool: "cpu", P: 2, Watts: 100},
		{T: 6, Kind: EvFinish, Job: 0, App: "FT", Pool: "cpu", P: 2, Dur: 6, FreqFrom: 2.0e9, Freq: 1.6e9,
			Energy: 2000, Ranks: []int{0, 1, 2, 3}, Headroom: 300, Free: 8},
	}
}

// The rank rows' retune instants are drawn from the decisions that move
// ranks — admit, boost, throttle, finish, kill — one per rank of the
// event, and none when the decision leaves the frequency where it was
// or carries no ranks.
func TestChromeTraceDrawsRankRetunes(t *testing.T) {
	type instant struct {
		ts       float64
		rank     int
		from, to float64 // GHz
	}
	for _, tc := range []struct {
		name string
		ev   Event
		want []instant
	}{
		{"admit", Event{T: 1, Kind: EvAdmit, Job: 0, Ranks: []int{4, 5}, FreqFrom: 2e9, Freq: 2.8e9},
			[]instant{{1e6, 4, 2, 2.8}, {1e6, 5, 2, 2.8}}},
		{"admit at park", Event{T: 1, Kind: EvAdmit, Job: 0, Ranks: []int{4, 5}, FreqFrom: 2e9, Freq: 2e9}, nil},
		{"boost", Event{T: 2, Kind: EvBoost, Job: 0, Ranks: []int{3}, FreqFrom: 2.4e9, Freq: 2.8e9},
			[]instant{{2e6, 3, 2.4, 2.8}}},
		{"throttle", Event{T: 2, Kind: EvThrottle, Job: 0, Ranks: []int{3}, FreqFrom: 2.8e9, Freq: 2.4e9},
			[]instant{{2e6, 3, 2.8, 2.4}}},
		{"finish", Event{T: 3, Kind: EvFinish, Job: 0, Ranks: []int{0, 7}, FreqFrom: 2.4e9, Freq: 2e9},
			[]instant{{3e6, 0, 2.4, 2}, {3e6, 7, 2.4, 2}}},
		{"kill", Event{T: 4, Kind: EvKill, Job: 0, Ranks: []int{6}, FreqFrom: 2.8e9, Freq: 2e9},
			[]instant{{4e6, 6, 2.8, 2}}},
		{"kill in queue", Event{T: 4, Kind: EvKill, Job: 0, Reason: "lost"}, nil},
		{"not a decision", Event{T: 5, Kind: EvReserve, Job: 0, Ranks: []int{1}, FreqFrom: 2e9, Freq: 2.8e9}, nil},
		{"per-rank event", Event{T: 5, Kind: EvRankRetune, Job: NoJob, Rank: 1, FreqFrom: 2e9, Freq: 2.8e9}, nil},
	} {
		var buf bytes.Buffer
		s := NewChromeTraceSink(&buf)
		if err := s.Write(tc.ev); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Ph, Name string
				Pid, Tid int
				Ts       float64
				Args     struct {
					From float64 `json:"f_from_ghz"`
					To   float64 `json:"f_ghz"`
				}
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []instant
		for _, e := range trace.TraceEvents {
			if e.Pid == pidRanks && e.Ph == "i" {
				if e.Name != "retune" {
					t.Errorf("%s: rank instant named %q", tc.name, e.Name)
				}
				got = append(got, instant{e.Ts, e.Tid, e.Args.From, e.Args.To})
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: rank retunes %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	for _, ev := range lifecycle() {
		if err := s.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	begins, ends := 0, 0
	kinds := map[string]int{}
	for _, ev := range trace.TraceEvents {
		ph, _ := ev["ph"].(string)
		kinds[ph]++
		switch ph {
		case "B":
			begins++
		case "E":
			ends++
		case "":
			t.Fatalf("event without ph: %v", ev)
		}
	}
	// job 0: wait B/E + run B/E; ranks 0..3: B/E each. All paired.
	if begins != ends {
		t.Fatalf("unbalanced spans: %d B vs %d E", begins, ends)
	}
	if begins != 7 {
		t.Fatalf("got %d begin spans, want 7 (2 job waits, job run, 4 ranks)", begins)
	}
	for _, ph := range []string{"M", "i", "C", "X"} {
		if kinds[ph] == 0 {
			t.Fatalf("no %q events in trace", ph)
		}
	}
}
