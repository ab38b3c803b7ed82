package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/units"
)

// oracleLine is the NDJSON format's reference encoder: the jsonEvent
// projection of ev run through encoding/json, newline appended.
func oracleLine(ev Event) ([]byte, error) {
	je := jsonEvent{
		T: float64(ev.T), Kind: ev.Kind.String(), App: ev.App, Pool: ev.Pool, Site: ev.Site,
		P: ev.P, Ranks: ev.Ranks, FreqFrom: ev.FreqFrom, Freq: ev.Freq,
		WattsFrom: ev.WattsFrom, Watts: ev.Watts, Cap: ev.Cap, Power: ev.Power, Headroom: ev.Headroom,
		Wait: ev.Wait, Dur: ev.Dur, At: ev.At, Energy: ev.Energy, EE: ev.EE,
		Queue: ev.Queue, Free: ev.Free, Backfilled: ev.Backfilled, Reason: ev.Reason,
	}
	if ev.Job != NoJob {
		je.Job = &ev.Job
	}
	if hasRank(ev.Kind) {
		je.Rank = &ev.Rank
	}
	b, err := json.Marshal(&je)
	return append(b, '\n'), err
}

// decoded is what DecodeNDJSON must return for an encoded ev: every
// field verbatim except the ones the format cannot carry — invalid
// UTF-8 bytes become U+FFFD, an empty rank set is nil, and Rank exists
// only on the kinds that have one. (Floats compare by ==, so the -0 the
// format elides equals the 0 it decodes to.)
func decoded(ev Event) Event {
	valid := func(s string) string { return string([]rune(s)) }
	ev.App, ev.Pool, ev.Site, ev.Reason = valid(ev.App), valid(ev.Pool), valid(ev.Site), valid(ev.Reason)
	if len(ev.Ranks) == 0 {
		ev.Ranks = nil
	}
	if !hasRank(ev.Kind) {
		ev.Rank = 0
	}
	return ev
}

// checkEncode holds one event to the format contract: two consecutive
// writes (the second meets the sink's last-value memos) each equal the
// oracle's line and decode back to the event; an event JSON cannot carry
// writes nothing, is not counted, and leaves the oracle's error sticky.
func checkEncode(t testing.TB, ev Event) {
	t.Helper()
	want, oerr := oracleLine(ev)
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	err := s.Write(ev)
	if oerr != nil {
		var uerr *json.UnsupportedValueError
		if !errors.As(err, &uerr) || err.Error() != oerr.Error() {
			t.Fatalf("Write(%+v) = %v, want %v", ev, err, oerr)
		}
		if again := s.Write(Event{Kind: EvArrive}); again != err {
			t.Fatalf("write after a failed encode = %v, want the sticky %v", again, err)
		}
		if cerr := s.Close(); cerr != err || buf.Len() != 0 || s.Count() != 0 {
			t.Fatalf("failed encode: Close = %v, %d bytes written, Count = %d", cerr, buf.Len(), s.Count())
		}
		return
	}
	if err != nil {
		t.Fatalf("Write(%+v) = %v", ev, err)
	}
	if err := s.Write(ev); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want)+string(want) || s.Count() != 2 {
		t.Fatalf("two writes of %+v:\n got %q\nwant %q twice (Count %d)", ev, got, want, s.Count())
	}
	if int(ev.Kind) >= numKinds {
		return // "unknown" is written but names no kind to decode to
	}
	evs, err := DecodeNDJSON(bytes.NewReader(want))
	if err != nil || len(evs) != 1 || !reflect.DeepEqual(evs[0], decoded(ev)) {
		t.Fatalf("DecodeNDJSON(%q) = %+v, %v\nwant %+v", want, evs, err, decoded(ev))
	}
}

// hostileStrings and boundaryFloats seed every differential below: the
// escapes and number forms where a hand-written encoder could part from
// encoding/json.
var hostileStrings = []string{
	"", "FT", "a<b>&c", `"\`, "\x00\x01\x1f\x7f", "\b\f\n\r\t", "\xff", "a\xffb\xc0", "\xe2\x80",
	"\u2028\u2029", "\u00e9\u00a0\U0001f600", "plan edge (pre-drop)",
}

var boundaryFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2.4e9, 1e-6, 9.99e-7, 1e-7, -1e-9, 1e21, 9.99e20, 1e22, -1e21,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125,
	0.00022259180255144426, 1e-10, 1.5e-10, 1e100, 1.5e-100,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func FuzzNDJSONEncode(f *testing.F) {
	type seed struct {
		ev       Event
		nilRanks bool
	}
	seeds := []seed{
		{ev: Event{Kind: EvArrive}}, {ev: Event{Kind: EvArrive, Job: NoJob}, nilRanks: true},
		{ev: Event{Kind: EvRankRetune, Job: NoJob, Rank: 0, FreqFrom: 2e9, Freq: 2.8e9}},
		{ev: Event{Kind: EvFail, Job: NoJob, Rank: 0}}, {ev: Event{Kind: EvRepair, Rank: 7, Dur: 0.3}},
		{ev: Event{Kind: EvAdmit, Rank: 9, Ranks: []int{0, 1, -2, 1 << 40}, Backfilled: true, P: 3, Queue: -1, Free: 2}},
		{ev: Event{Kind: Kind(200), Job: 1}},
	}
	for i, s := range hostileStrings {
		seeds = append(seeds, seed{ev: Event{Kind: Kind(i % numKinds), Job: i, App: s, Pool: s, Site: s, Reason: s}})
	}
	for i, v := range boundaryFloats {
		seeds = append(seeds,
			seed{ev: Event{T: units.Seconds(v), Kind: Kind(i % numKinds)}},
			seed{ev: Event{Kind: EvBoost, Freq: units.Hertz(v), WattsFrom: units.Watts(v), At: units.Seconds(v)}},
			seed{ev: Event{T: 1, Kind: EvFinish, Energy: units.Joules(v), EE: v, FreqFrom: units.Hertz(v)}})
	}
	for _, s := range seeds {
		ev := s.ev
		ranks := make([]byte, len(ev.Ranks))
		for i, r := range ev.Ranks {
			ranks[i] = byte(r)
		}
		f.Add(float64(ev.T), uint8(ev.Kind), ev.Job, ev.App, ev.Pool, ev.Site, ev.P, ev.Rank, ranks, s.nilRanks,
			float64(ev.FreqFrom), float64(ev.Freq), float64(ev.WattsFrom), float64(ev.Watts), float64(ev.Cap),
			float64(ev.Power), float64(ev.Headroom), float64(ev.Wait), float64(ev.Dur), float64(ev.At),
			float64(ev.Energy), ev.EE, ev.Queue, ev.Free, ev.Backfilled, ev.Reason)
		checkEncode(f, ev) // the seed as written, wide ranks included
	}
	f.Fuzz(func(t *testing.T, ts float64, kind uint8, job int, app, pool, site string, p, rank int, ranks []byte, nilRanks bool,
		freqFrom, freq, wattsFrom, watts, cap, power, headroom, wait, dur, at, energy, ee float64,
		queue, free int, backfilled bool, reason string) {
		ev := Event{
			T: units.Seconds(ts), Kind: Kind(kind), Job: job, App: app, Pool: pool, Site: site, P: p, Rank: rank,
			FreqFrom: units.Hertz(freqFrom), Freq: units.Hertz(freq), WattsFrom: units.Watts(wattsFrom),
			Watts: units.Watts(watts), Cap: units.Watts(cap), Power: units.Watts(power), Headroom: units.Watts(headroom),
			Wait: units.Seconds(wait), Dur: units.Seconds(dur), At: units.Seconds(at), Energy: units.Joules(energy),
			EE: ee, Queue: queue, Free: free, Backfilled: backfilled, Reason: reason,
		}
		if !nilRanks {
			ev.Ranks = make([]int, len(ranks))
			for i, r := range ranks {
				ev.Ranks[i] = int(r)
			}
		}
		checkEncode(t, ev)
	})
}

func FuzzAppendString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); string(got) != string(want) {
			t.Fatalf("appendString(%q) = %s, want %s", s, got, want)
		}
		// A label composed around s escapes as the whole string does.
		whole, _ := json.Marshal("blocked j7 " + s + ")")
		parts := appendEscaped(appendEscaped(appendEscaped([]byte{'"'}, "blocked j7 "), s), ")")
		if string(parts)+`"` != string(whole) {
			t.Fatalf("escaping %q in parts = %s\", want %s", s, parts, whole)
		}
	})
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range boundaryFloats {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, err := json.Marshal(v)
		got, ok := appendFloat([]byte("x"), v)
		if ok != (err == nil) || (ok && string(got) != "x"+string(want)) || (!ok && string(got) != "x") {
			t.Fatalf("appendFloat(%v) = %q, %t; encoding/json says %q, %v", v, got, ok, want, err)
		}
		var b jbuf
		b.fixed(v, 3).raw(" ").fixed(v, 1).raw(" ").g(v)
		if want := fmt.Sprintf("%.3f %.1f %g", v, v, v); string(b.b) != want {
			t.Fatalf("fixed/g(%v) = %q, fmt says %q", v, b.b, want)
		}
	})
}

// A memoised float is re-rendered the moment its bits change — 0 then
// -0, a value then its neighbour — and an unrenderable one is never
// remembered.
func TestNDJSONMemoFollowsEveryChange(t *testing.T) {
	ts := []float64{0, 0, math.Copysign(0, -1), 0, 1.5, 1.5, math.Nextafter(1.5, 2), 1.5, 1e-7, 1e-7, 1e21}
	var buf, want bytes.Buffer
	s := NewNDJSONSink(&buf)
	for i, v := range ts {
		ev := Event{T: units.Seconds(v), Kind: EvRankRetune, Job: NoJob, Rank: i % 3,
			FreqFrom: units.Hertz(ts[(i+1)%len(ts)]), Freq: units.Hertz(ts[(i+2)%len(ts)])}
		if err := s.Write(ev); err != nil {
			t.Fatal(err)
		}
		line, err := oracleLine(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("memoised stream:\n%s\nwant:\n%s", buf.String(), want.String())
	}
}

// Only successfully encoded events count, and the encode error is as
// sticky as a write error.
func TestNDJSONCountSkipsUnencodable(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	if err := s.Write(Event{Kind: EvArrive, Job: 1}); err != nil {
		t.Fatal(err)
	}
	err := s.Write(Event{Kind: EvSample, Job: NoJob, Power: units.Watts(math.NaN())})
	var uerr *json.UnsupportedValueError
	if !errors.As(err, &uerr) {
		t.Fatalf("NaN power = %v, want an UnsupportedValueError", err)
	}
	if again := s.Write(Event{Kind: EvArrive, Job: 2}); again != err {
		t.Fatalf("valid write after the NaN = %v, want the sticky %v", again, err)
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (the NaN event and the write after it are not counted)", s.Count())
	}
	if cerr := s.Close(); cerr != err {
		t.Fatalf("Close = %v, want the sticky error", cerr)
	}
}

// Labels and args assembled from parts must stay valid JSON whatever
// the scheduler puts in App, Pool or Reason, and decode to the same
// text a single json.Marshal of the whole label would give.
func TestChromeTraceEscapesHostileText(t *testing.T) {
	for _, h := range hostileStrings {
		var buf bytes.Buffer
		s := NewChromeTraceSink(&buf)
		evs := []Event{
			{T: 1, Kind: EvAttempt, Job: 3, App: h, Reason: h, Queue: 1},
			{T: 2, Kind: EvAdmit, Job: 3, App: h, Pool: h, P: 1, Ranks: []int{0}},
			{T: 3, Kind: EvPlanEdge, Job: NoJob, Cap: 100, Reason: h},
		}
		for _, ev := range evs {
			if err := s.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatalf("trace with %q is not valid JSON: %v\n%s", h, err, buf.String())
		}
		names := map[string]bool{}
		for _, ev := range trace.TraceEvents {
			names[ev.Name] = true
		}
		valid := string([]rune(h))
		job, edge := "j3", "plan edge"
		if h != "" {
			job, edge = "j3 "+valid, "plan edge ("+valid+")"
		}
		for _, want := range []string{"blocked " + job, job, edge} {
			if !names[want] {
				t.Errorf("hostile text %q: no trace event named %q in\n%s", h, want, buf.String())
			}
		}
		if h != "" && !names["free_"+valid] {
			t.Errorf("hostile text %q: no free_<pool> counter", h)
		}
	}
}

// The observers' allocation budget (ROADMAP 5d): once warm, encoding an
// event or a metrics row allocates nothing. The Chrome trace sink's
// per-track bookkeeping maps grow as new jobs appear, which is its
// whole per-write budget.
func TestSinkWritesDoNotAllocate(t *testing.T) {
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	event := func(i int) Event {
		ev := Event{T: units.Seconds(float64(i/3) * 1e-3), Kind: EvAdmit, Job: i / 3, App: "CG", Pool: "systemg",
			P: 8, Ranks: ranks, Freq: 2.4e9, Watts: 310, Headroom: 420, Wait: 0.012, Dur: 1.5, EE: 0.83, Queue: 3, Free: 24}
		switch i % 3 {
		case 1:
			ev = Event{T: ev.T, Kind: EvAttempt, Job: i / 3, App: "CG", Queue: 2,
				Reason: "watts: no eligible point fits the 12.5 W headroom"}
		case 2:
			ev.Kind, ev.Energy = EvFinish, 620.25
		}
		return ev
	}
	rollup, err := NewRollupSink(io.Discard, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sink Sink
		max  float64
	}{
		{"ndjson", NewNDJSONSink(io.Discard), 0},
		{"rollup", rollup, 0},
		{"chrometrace", NewChromeTraceSink(io.Discard), 1},
	} {
		i := 0
		write := func() {
			if err := tc.sink.Write(event(i)); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < 30 {
			write() // grow the line buffer, name the rank tracks
		}
		if allocs := testing.AllocsPerRun(3000, write); allocs > tc.max {
			t.Errorf("%s: %v allocs per Write, want at most %v", tc.name, allocs, tc.max)
		}
	}

	m := NewMetrics()
	admits, queue, waits := m.RateCounter("admits"), m.Gauge("queue"), m.Histogram("wait_s", 0.1, 1, 10)
	m.StreamCSV(io.Discard)
	n := 0
	sample := func() {
		admits.Inc()
		queue.Set(float64(n % 7))
		waits.Observe(float64(n%13) / 4)
		m.Sample(units.Seconds(float64(n) * 1e-3))
		n++
	}
	sample() // the header row
	if allocs := testing.AllocsPerRun(1000, sample); allocs != 0 {
		t.Errorf("Metrics.Sample: %v allocs per row after the header, want 0", allocs)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}
