package traceq

import (
	"bytes"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// synthetic builds the canonical two-job dependency: job 0 admitted on
// arrival, job 1 blocked on watts until job 0's finish at t=5 unblocks
// it in the same admission pass.
func synthetic() []telemetry.Event {
	return []telemetry.Event{
		{T: 0, Kind: telemetry.EvArrive, Job: 0, App: "EP"},
		{T: 0, Kind: telemetry.EvAdmit, Job: 0, App: "EP", Pool: "SystemG", P: 32, Wait: 0},
		{T: 1, Kind: telemetry.EvArrive, Job: 1, App: "FT"},
		{T: 1, Kind: telemetry.EvAttempt, Job: 1, Reason: "watts: over budget"},
		{T: 2, Kind: telemetry.EvAttempt, Job: 1, Reason: "watts: over budget"},
		{T: 2, Kind: telemetry.EvAttempt, Job: 1, Reason: "ranks: full"},
		{T: 5, Kind: telemetry.EvFinish, Job: 0, App: "EP", Dur: 5, Energy: 100},
		{T: 5, Kind: telemetry.EvAdmit, Job: 1, App: "FT", Pool: "SystemG", P: 16, Wait: 4},
		{T: 9, Kind: telemetry.EvFinish, Job: 1, App: "FT", Dur: 4, Energy: 80},
	}
}

func TestWhy(t *testing.T) {
	var buf bytes.Buffer
	if err := Why(&buf, synthetic(), 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"job 1 (FT):",
		"arrive   t=1.000",
		"admit    t=5.000",
		"blocked  3 attempt(s)",
		`2× watts: over budget`,
		`1× ranks: full`,
		"job 1 admitted at t=5.000 (waited 4.000s) ← unblocked by finish of job 0",
		"job 0 admitted at t=0.000 on arrival (no wait)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("why output misses %q:\n%s", want, out)
		}
	}
}

// lifecycle is a stream with one of everything the text views word: job
// 0 runs (throttled at a cap step), job 1 is rejected on arrival, job 2
// holds a reservation and is still blocked when the stream ends.
func lifecycle() []telemetry.Event {
	return []telemetry.Event{
		{T: 0, Kind: telemetry.EvArrive, Job: 0, App: "FT", P: 4, Queue: 1},
		{T: 0, Kind: telemetry.EvAdmit, Job: 0, App: "FT", Pool: "cpu", P: 4, Freq: 2.4e9, Watts: 400, EE: 0.9},
		{T: 0.5, Kind: telemetry.EvRankRetune, Job: telemetry.NoJob, Rank: 1, FreqFrom: 2.4e9, Freq: 2.0e9},
		{T: 1, Kind: telemetry.EvArrive, Job: 1, App: "EP", P: 64, Queue: 1},
		{T: 1, Kind: telemetry.EvReject, Job: 1, App: "EP", Reason: "needs 64 ranks, platform has 8"},
		{T: 2, Kind: telemetry.EvPlanEdge, Job: telemetry.NoJob, Cap: 300, Reason: "pre-drop"},
		{T: 2, Kind: telemetry.EvThrottle, Job: 0, App: "FT", FreqFrom: 2.4e9, Freq: 2.0e9,
			WattsFrom: 400, Watts: 300, Reason: "cap step to 300W"},
		{T: 2.5, Kind: telemetry.EvSample, Job: telemetry.NoJob, Power: 290, Cap: 300},
		{T: 3, Kind: telemetry.EvViolation, Job: telemetry.NoJob, Power: 310, Cap: 300},
		{T: 3.5, Kind: telemetry.EvArrive, Job: 2, App: "CG", P: 2, Queue: 1},
		{T: 3.5, Kind: telemetry.EvAttempt, Job: 2, App: "CG", Reason: "watts: over budget"},
		{T: 4, Kind: telemetry.EvAttempt, Job: 2, App: "CG", Reason: "ranks: full"},
		{T: 4, Kind: telemetry.EvReserve, Job: 2, At: 6, Dur: 3, Pool: "cpu", P: 2, Watts: 100},
		{T: 5, Kind: telemetry.EvAttempt, Job: 2, App: "CG", Reason: "watts: over budget"},
		{T: 6, Kind: telemetry.EvFinish, Job: 0, App: "FT", Pool: "cpu", P: 1, Dur: 6, Energy: 2000},
	}
}

// The lifecycle lines of an admitted and a rejected job — what traceq
// why ID prints.
func TestWhyLifecycleLines(t *testing.T) {
	for job, wants := range map[int][]string{
		0: {"job 0 (FT):", "arrive   t=0.000", "admit    t=0.000 pool=cpu p=4 f=2.40GHz",
			"throttle t=2.000 2.40→2.00GHz (cap step to 300W)",
			"finish   t=6.000 dur=6.000s energy=2000.0J retunes=1",
			"job 0 admitted at t=0.000 on arrival (no wait)"},
		1: {"job 1 (EP):", "reject   t=1.000 (needs 64 ranks, platform has 8)", "job 1 was never admitted"},
		2: {"reserve  t=4.000 pool=cpu p=2 at=6.000 w=100.0W", "blocked  3 attempt(s)",
			"2× watts: over budget", "1× ranks: full"},
	} {
		var buf bytes.Buffer
		if err := Why(&buf, lifecycle(), job); err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("why %d misses %q:\n%s", job, want, buf.String())
			}
		}
	}
}

func TestSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := Summary(&buf, lifecycle()); err != nil {
		t.Fatal(err)
	}
	// Per-kind counts in taxonomy order, absent kinds omitted; reasons
	// ranked by count, then name; the violation count last.
	want := `events: 15 total
  arrive     3
  attempt    3
  admit      1
  reject     1
  finish     1
  reserve    1
  throttle   1
  retune     1
  plan-edge  1
  sample     1
  violation  1
blocked-on (admission attempts):
       2× watts: over budget
       1× ranks: full
cap violations: 1
`
	if buf.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", buf.String(), want)
	}

	buf.Reset()
	if err := Summary(&buf, synthetic()[:3]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "blocked-on") || strings.Contains(buf.String(), "violations") {
		t.Fatalf("a stream with no attempts or violations must print neither section:\n%s", buf.String())
	}
}

func TestWhyUnknownJob(t *testing.T) {
	if err := Why(&bytes.Buffer{}, synthetic(), 99); err == nil {
		t.Fatal("unknown job must error")
	}
}

func TestWhyPlanEdgeEnabler(t *testing.T) {
	evs := []telemetry.Event{
		{T: 0, Kind: telemetry.EvArrive, Job: 0},
		{T: 0, Kind: telemetry.EvAttempt, Job: 0, Reason: "plan-min-cap"},
		{T: 3, Kind: telemetry.EvPlanEdge, Job: telemetry.NoJob, Cap: 2500, Reason: "edge"},
		{T: 3, Kind: telemetry.EvAdmit, Job: 0, Pool: "SystemG", P: 8, Wait: 3},
	}
	var buf bytes.Buffer
	if err := Why(&buf, evs, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "unblocked by cap edge to 2500W") {
		t.Fatalf("plan-edge enabler not found:\n%s", buf.String())
	}
}

func TestCritpath(t *testing.T) {
	var buf bytes.Buffer
	if err := Critpath(&buf, synthetic()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"critical path to makespan 9.000s",
		"run  job 1       4.000s",
		"wait job 1       4.000s",
		"run  job 0       5.000s",
		"── arrival",
		"chain covers 9.000s of 9.000s makespan (100%)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("critpath misses %q:\n%s", want, out)
		}
	}
}

func TestCritpathNoFinishes(t *testing.T) {
	evs := []telemetry.Event{{T: 0, Kind: telemetry.EvArrive, Job: 0}}
	if err := Critpath(&bytes.Buffer{}, evs); err == nil {
		t.Fatal("a trace without finishes must error")
	}
}

func TestWindows(t *testing.T) {
	evs := []telemetry.Event{
		{T: 0, Kind: telemetry.EvSample, Job: telemetry.NoJob, Power: 2000, Cap: 2500},
		{T: 0.5, Kind: telemetry.EvAdmit, Job: 0, Wait: 0.1},
		{T: 1.5, Kind: telemetry.EvPlanEdge, Job: telemetry.NoJob, Cap: 1800, Reason: "pre-drop"},
		{T: 2, Kind: telemetry.EvPlanEdge, Job: telemetry.NoJob, Cap: 1500},
		{T: 2.5, Kind: telemetry.EvThrottle, Job: 0},
		{T: 3, Kind: telemetry.EvSample, Job: telemetry.NoJob, Power: 1400, Cap: 1500},
		{T: 3.5, Kind: telemetry.EvFinish, Job: 0, Energy: 500},
	}
	var buf bytes.Buffer
	if err := Windows(&buf, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Header + the opening window + the t=2 edge window; the pre-drop
	// edge must NOT open a window.
	if len(lines) != 3 {
		t.Fatalf("want header + 2 windows, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[1], "2500") || !strings.Contains(lines[1], "0.00→2.00") {
		t.Fatalf("opening window wrong: %s", lines[1])
	}
	if !strings.Contains(lines[2], "1500") || !strings.Contains(lines[2], "2.00→end") {
		t.Fatalf("edge window wrong: %s", lines[2])
	}
	if !strings.Contains(lines[2], "500.0") {
		t.Fatalf("finish energy not attributed to the edge window: %s", lines[2])
	}
}

func TestMerge(t *testing.T) {
	east := []telemetry.Event{
		{T: 0, Kind: telemetry.EvArrive, Job: 0},
		{T: 2, Kind: telemetry.EvFinish, Job: 0},
	}
	west := []telemetry.Event{
		{T: 1, Kind: telemetry.EvArrive, Job: 1, Site: "already-stamped"},
		{T: 2, Kind: telemetry.EvFinish, Job: 1},
	}
	render := func() string {
		var buf bytes.Buffer
		if err := Merge(&buf, []NamedTrace{
			{Site: "east", Events: east},
			{Site: "west", Events: west},
		}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("merged %d lines, want 4:\n%s", len(lines), out)
	}
	// Sim-time order; at the t=2 tie east (earlier input) precedes west.
	wantOrder := []string{`"site":"east"`, `"site":"already-stamped"`, `"site":"east"`, `"site":"west"`}
	for i, want := range wantOrder {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d = %s, want %s", i, lines[i], want)
		}
	}
	// An existing Site stamp survives the merge.
	if !strings.Contains(lines[1], "already-stamped") {
		t.Fatalf("pre-stamped site overwritten: %s", lines[1])
	}
	// Deterministic: the same inputs merge to the same bytes.
	if render() != out {
		t.Fatal("merge is not deterministic")
	}
	// Round-trip: the merged stream decodes.
	evs, err := telemetry.DecodeNDJSON(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 || evs[0].T > evs[1].T || evs[1].T > evs[2].T || evs[2].T > evs[3].T {
		t.Fatalf("merged stream not time-ordered: %+v", evs)
	}
}

// goldenEvents is the scheduler's golden event stream, as NDJSON.
const goldenEvents = "../sched/testdata/golden_events.ndjson"

// The three views that count the stream — the rollup's totals footer,
// summary's per-kind counts and the column sums of windows — agree on
// the golden stream, so no window boundary drops or double-counts an
// event.
func TestCountingViewsAgree(t *testing.T) {
	data, err := os.ReadFile(goldenEvents)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.DecodeNDJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	// kind → count, from the rollup's "# totals:" footer; energy from
	// the sum of its bucket rows' energy_j column.
	var rollup bytes.Buffer
	rs, err := telemetry.NewRollupSink(&rollup, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := rs.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	fromRollup := map[string]int64{}
	var rollupEnergy float64
	lines := strings.Split(strings.TrimRight(rollup.String(), "\n"), "\n")
	header := strings.Split(lines[0], ",")
	energyCol := slices.Index(header, "energy_j")
	for _, line := range lines[1:] {
		if totals, ok := strings.CutPrefix(line, "# totals: "); ok {
			for _, kv := range strings.Fields(totals) {
				k, v, _ := strings.Cut(kv, "=")
				fromRollup[k] = mustInt(t, v)
			}
		} else if !strings.HasPrefix(line, "#") {
			rollupEnergy += mustFloat(t, strings.Split(line, ",")[energyCol])
		}
	}

	var summary bytes.Buffer
	if err := Summary(&summary, evs); err != nil {
		t.Fatal(err)
	}
	fromSummary := map[string]int64{}
	for _, line := range strings.Split(summary.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(line, "  ") && !strings.HasSuffix(f[0], "×") {
			fromSummary[f[0]] = mustInt(t, f[1])
		}
	}
	if fromSummary["arrive"] == 0 {
		t.Fatalf("summary parsed to %v:\n%s", fromSummary, summary.String())
	}
	fromSummary["events"] = int64(len(evs))
	if !maps.Equal(fromRollup, fromSummary) {
		t.Fatalf("rollup totals %v\n != summary counts %v", fromRollup, fromSummary)
	}

	var windows bytes.Buffer
	if err := Windows(&windows, evs); err != nil {
		t.Fatal(err)
	}
	fromWindows := map[string]int64{}
	var windowsEnergy float64
	rows := strings.Split(strings.TrimRight(windows.String(), "\n"), "\n")[1:]
	for _, row := range rows {
		// window cap admit finish reject thr/bst viol energy peak wait
		f := strings.Fields(row)
		thr, bst, _ := strings.Cut(f[5], "/")
		for k, v := range map[string]string{
			"admit": f[2], "finish": f[3], "reject": f[4], "throttle": thr, "boost": bst, "violation": f[6],
		} {
			fromWindows[k] += mustInt(t, v)
		}
		windowsEnergy += mustFloat(t, f[7])
	}
	for k, n := range fromWindows {
		if n != fromSummary[k] {
			t.Errorf("windows count %d %s events, summary %d", n, k, fromSummary[k])
		}
	}
	// Each window's energy prints to 0.1 J.
	if d := math.Abs(windowsEnergy - rollupEnergy); d > 0.05*float64(len(rows)) || rollupEnergy == 0 {
		t.Errorf("windows energy %.1f J, rollup buckets %.3f J", windowsEnergy, rollupEnergy)
	}
}

func mustInt(t *testing.T, s string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// oldRetune is a per-rank retune line as earlier scheduler streams
// carried it.
const oldRetune = `{"t":0,"ev":"retune","rank":0,"f_from_hz":2000000000,"f_hz":2800000000}` + "\n"

// FuzzQueries runs every query over arbitrary decoded streams in
// sim-time order (what cmd/traceq's load admits): each may return an
// error, none may panic. Seeded with the first line of every kind in
// the scheduler's golden event stream, plus its opening lines as one
// multi-line input, and with a per-rank retune line as older streams
// carry it.
func FuzzQueries(f *testing.F) {
	golden, err := os.ReadFile(goldenEvents)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	f.Add(bytes.Join(lines[:16], nil))
	seen := map[telemetry.Kind]bool{}
	for _, line := range lines {
		if evs, err := telemetry.DecodeNDJSON(bytes.NewReader(line)); err == nil && len(evs) == 1 && !seen[evs[0].Kind] {
			seen[evs[0].Kind] = true
			f.Add(line)
		}
	}
	f.Add([]byte(oldRetune))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := telemetry.DecodeNDJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		var last units.Seconds
		for _, ev := range evs {
			if ev.T < last {
				return
			}
			last = ev.T
		}
		job := 0
		if len(evs) > 0 {
			job = evs[0].Job
		}
		_ = Why(io.Discard, evs, job)
		_ = Critpath(io.Discard, evs)
		_ = Windows(io.Discard, evs)
		_ = Summary(io.Discard, evs)
		_ = Chrome(io.Discard, evs)
		_ = Merge(io.Discard, []NamedTrace{{Site: "a", Events: evs}, {Site: "b", Events: evs}})
	})
}
