package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

// errAfterWriter accepts the first allow bytes, then fails every write.
type errAfterWriter struct {
	allow int
	n     int
	err   error
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.allow {
		return 0, w.err
	}
	w.n += len(p)
	return len(p), nil
}

// A write error surfacing only at flush time must not be silently
// dropped at process exit: events small enough to sit in the bufio
// buffer report success at Write, so Flush/Close carry the error.
func TestNDJSONFlushErrorPath(t *testing.T) {
	boom := errors.New("disk full")
	s := NewNDJSONSink(&errAfterWriter{allow: 0, err: boom})
	// Fits the 4 KiB buffer: Write succeeds, the failure is latent.
	if err := s.Write(Event{Kind: EvArrive, Job: 1}); err != nil {
		t.Fatalf("buffered write failed eagerly: %v", err)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the flush error", err)
	}
	// The error is sticky: later writes and flushes keep reporting it.
	if err := s.Write(Event{Kind: EvArrive, Job: 2}); !errors.Is(err, boom) {
		t.Fatalf("write after failed flush = %v, want sticky error", err)
	}
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Fatalf("re-flush = %v, want sticky error", err)
	}
}

// A write error past the first buffer fill surfaces mid-stream at the
// Write that triggers the spill, and stays sticky.
func TestNDJSONMidStreamErrorPath(t *testing.T) {
	boom := errors.New("pipe closed")
	s := NewNDJSONSink(&errAfterWriter{allow: 4096, err: boom})
	var failed bool
	for i := 0; i < 200; i++ {
		if err := s.Write(Event{Kind: EvAdmit, Job: i, App: "FT", Pool: "SystemG", Wait: 0.25}); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("write %d = %v, want the spill error", i, err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("200 events never spilled the 4 KiB buffer")
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want sticky error", err)
	}
}

// Flush makes the tail readable without closing the stream — the
// status-endpoint and crash-log contract.
func TestNDJSONFlushMakesTailVisible(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	if err := s.Write(Event{Kind: EvArrive, Job: 7}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("small event should still sit in the buffer")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ev":"arrive"`) {
		t.Fatalf("flushed output = %q", buf.String())
	}
	if err := s.Write(Event{Kind: EvFinish, Job: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("stream has %d lines, want 2", got)
	}
}

// DecodeNDJSON inverts NDJSONSink for every populated field, including
// the NoJob and Rank pointer conventions.
func TestNDJSONRoundTrip(t *testing.T) {
	in := []Event{
		{T: 0.5, Kind: EvArrive, Job: 3, App: "FT", Queue: 2},
		{T: 1.0, Kind: EvAdmit, Job: 3, App: "FT", Pool: "SystemG", P: 16,
			Freq: 2.8e9, Watts: 310.5, Headroom: 42, Wait: 0.5, Dur: 9.25,
			EE: 0.93, Free: 48, Backfilled: true},
		{T: 1.5, Kind: EvRankRetune, Job: NoJob, Rank: 5, FreqFrom: 2e9, Freq: 2.8e9},
		{T: 2.0, Kind: EvSample, Job: NoJob, Power: 2400, Cap: 2500},
		{T: 3.0, Kind: EvFinish, Job: 3, App: "FT", P: 2, Dur: 2.0, Energy: 620.25},
		{T: 0.25, Kind: EvRoute, Job: 9, Site: "east", Reason: "ee", EE: 0.88},
	}
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	for _, ev := range in {
		if err := s.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].T != in[i].T || out[i].Kind != in[i].Kind || out[i].Job != in[i].Job ||
			out[i].App != in[i].App || out[i].Pool != in[i].Pool || out[i].Site != in[i].Site ||
			out[i].P != in[i].P || out[i].Freq != in[i].Freq || out[i].Watts != in[i].Watts ||
			out[i].Wait != in[i].Wait || out[i].Dur != in[i].Dur || out[i].Energy != in[i].Energy ||
			out[i].EE != in[i].EE || out[i].Free != in[i].Free ||
			out[i].Backfilled != in[i].Backfilled || out[i].Reason != in[i].Reason {
			t.Fatalf("event %d: decoded %+v\nwant %+v", i, out[i], in[i])
		}
	}
	if out[2].Rank != 5 {
		t.Fatalf("retune rank = %d, want 5", out[2].Rank)
	}
	if out[3].Job != NoJob {
		t.Fatalf("sample job = %d, want NoJob", out[3].Job)
	}
}

// oldEmergency is a record of a kind earlier builds emitted: a cap
// clamp is now a plan window, so it decodes as an unknown kind.
const oldEmergency = `{"t":0.8,"ev":"emergency","cap_w":1050,"reason":"begin"}` + "\n"

// oldRetune is a per-rank retune line as earlier scheduler streams
// carried it; the kind still decodes.
const oldRetune = `{"t":0,"ev":"retune","rank":0,"f_from_hz":2000000000,"f_hz":2800000000}` + "\n"

func TestDecodeNDJSONErrors(t *testing.T) {
	for _, in := range []string{"{\"t\":0,\"ev\":\"nope\"}\n", oldEmergency} {
		if _, err := DecodeNDJSON(strings.NewReader(in)); err == nil ||
			!strings.Contains(err.Error(), "line 1") {
			t.Fatalf("unknown kind in %q = %v, want a line-1 error", in, err)
		}
	}
	if _, err := DecodeNDJSON(strings.NewReader("{\"t\":0,\"ev\":\"arrive\"}\nnot json\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line = %v, want a line-2 error", err)
	}
	evs, err := DecodeNDJSON(strings.NewReader("\n\n{\"t\":1,\"ev\":\"arrive\",\"job\":0}\n\n"))
	if err != nil || len(evs) != 1 || evs[0].T != units.Seconds(1) {
		t.Fatalf("blank-line handling: %v %v", evs, err)
	}
}

func TestKindByName(t *testing.T) {
	for k := Kind(0); int(k) < len(kindNames); k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Fatal("bogus kind resolved")
	}
}

// FuzzDecodeNDJSON feeds the decoder arbitrary bytes: it never panics,
// a stream it accepts re-encodes through NDJSONSink to bytes that
// decode to the same events (modulo what the format cannot carry — see
// decoded), and folds through ChromeTraceSink to valid JSON or an
// error. Seeded with the first line of every kind in the scheduler's
// golden event stream, plus its opening lines as one multi-line input,
// and with a per-rank retune line, the kind older streams carry.
func FuzzDecodeNDJSON(f *testing.F) {
	golden, err := os.ReadFile("../sched/testdata/golden_events.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	f.Add(bytes.Join(lines[:8], nil))
	seen := map[string]bool{}
	for _, line := range lines {
		if evs, err := DecodeNDJSON(bytes.NewReader(line)); err == nil && len(evs) == 1 && !seen[evs[0].Kind.String()] {
			seen[evs[0].Kind.String()] = true
			f.Add(line)
		}
	}
	f.Add([]byte(oldRetune))
	f.Add([]byte(`{"t":-0,"ev":"arrive","rank":3,"ranks":[],"job":-1,"w":-0,"app":"\ud800"}` + "\r\n\n"))
	f.Add([]byte("{\"t\":0,\"ev\":\"arrive\"}\nnot json"))
	f.Add([]byte(oldEmergency))
	f.Add([]byte(`{"t":-5,"ev":"finish","job":1}` + "\n" + `{"t":1e308,"ev":"admit","job":1,"wait_s":1e308}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := DecodeNDJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		s := NewNDJSONSink(&buf)
		for _, ev := range evs {
			if err := s.Write(ev); err != nil {
				t.Fatalf("decoded event %+v does not re-encode: %v", ev, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeNDJSON(&buf)
		if err != nil || len(again) != len(evs) {
			t.Fatalf("re-encoded stream decodes to %d events, %v; want %d", len(again), err, len(evs))
		}
		for i := range evs {
			if want := decoded(evs[i]); !reflect.DeepEqual(again[i], want) {
				t.Fatalf("event %d changed across a re-encode:\n got %+v\nwant %+v", i, again[i], want)
			}
		}
		buf.Reset()
		if chromeFold(&buf, evs) == nil && !json.Valid(buf.Bytes()) {
			t.Fatalf("Chrome trace of %d decoded events is not JSON:\n%s", len(evs), buf.Bytes())
		}
	})
}

// chromeFold replays evs through a ChromeTraceSink into w, returning the
// first error.
func chromeFold(w io.Writer, evs []Event) error {
	s := NewChromeTraceSink(w)
	for _, ev := range evs {
		if err := s.Write(ev); err != nil {
			return err
		}
	}
	return s.Close()
}
