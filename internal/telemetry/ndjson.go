package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/units"
)

// NDJSONSink streams events as newline-delimited JSON — one object per
// event, fields omitted when empty, kinds as strings. NDJSON is the
// interchange format for external analysis (jq, pandas, a log
// pipeline): unlike the Chrome trace it carries every field verbatim
// and needs no finalisation, so a crashed run's log is still valid up
// to its last line.
type NDJSONSink struct {
	w    *bufio.Writer
	line jbuf
	// One sim instant stamps several events, so the last rendering of
	// the time is kept.
	t   floatMemo
	n   int
	err error
}

// NewNDJSONSink wraps w in a buffered NDJSON event writer.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: bufio.NewWriter(w)}
}

// jsonEvent is the NDJSON projection of an Event — the format's
// definition: field names, their order, and which are elided when
// empty. DecodeNDJSON parses lines through it; Write renders the same
// projection by hand (render), and the tests hold the two equal
// against encoding/json's rendering of this struct.
type jsonEvent struct {
	T          float64       `json:"t"`
	Kind       string        `json:"ev"`
	Job        *int          `json:"job,omitempty"`
	App        string        `json:"app,omitempty"`
	Pool       string        `json:"pool,omitempty"`
	Site       string        `json:"site,omitempty"`
	P          int           `json:"p,omitempty"`
	Rank       *int          `json:"rank,omitempty"`
	Ranks      []int         `json:"ranks,omitempty"`
	FreqFrom   units.Hertz   `json:"f_from_hz,omitempty"`
	Freq       units.Hertz   `json:"f_hz,omitempty"`
	WattsFrom  units.Watts   `json:"w_from,omitempty"`
	Watts      units.Watts   `json:"w,omitempty"`
	Cap        units.Watts   `json:"cap_w,omitempty"`
	Power      units.Watts   `json:"power_w,omitempty"`
	Headroom   units.Watts   `json:"headroom_w,omitempty"`
	Wait       units.Seconds `json:"wait_s,omitempty"`
	Dur        units.Seconds `json:"dur_s,omitempty"`
	At         units.Seconds `json:"at_s,omitempty"`
	Energy     units.Joules  `json:"energy_j,omitempty"`
	EE         float64       `json:"ee,omitempty"`
	Queue      int           `json:"queue,omitempty"`
	Free       int           `json:"free,omitempty"`
	Backfilled bool          `json:"backfilled,omitempty"`
	Reason     string        `json:"reason,omitempty"`
}

// hasRank reports whether the kind carries a rank, so "rank":0 is
// written rather than elided.
func hasRank(k Kind) bool { return k == EvRankRetune || k == EvFail || k == EvRepair }

// render fills s.line with ev's jsonEvent projection plus the newline,
// byte for byte what encoding/json writes for that struct. A NaN or
// ±Inf field leaves s.line.err set, where Marshal would fail.
func (s *NDJSONSink) render(ev *Event) {
	l := s.line.reset()
	l.raw(`{"t":`).memoFloat(&s.t, float64(ev.T)).raw(`,"ev":`).str(ev.Kind.String())
	if ev.Job != NoJob {
		l.raw(`,"job":`).int(int64(ev.Job))
	}
	l.optStr(`,"app":`, ev.App)
	l.optStr(`,"pool":`, ev.Pool)
	l.optStr(`,"site":`, ev.Site)
	l.optInt(`,"p":`, ev.P)
	if hasRank(ev.Kind) {
		l.raw(`,"rank":`).int(int64(ev.Rank))
	}
	for i, r := range ev.Ranks {
		if i == 0 {
			l.raw(`,"ranks":[`)
		} else {
			l.raw(",")
		}
		l.int(int64(r))
	}
	if len(ev.Ranks) > 0 {
		l.raw("]")
	}
	l.optFloat(`,"f_from_hz":`, float64(ev.FreqFrom))
	l.optFloat(`,"f_hz":`, float64(ev.Freq))
	l.optFloat(`,"w_from":`, float64(ev.WattsFrom))
	l.optFloat(`,"w":`, float64(ev.Watts))
	l.optFloat(`,"cap_w":`, float64(ev.Cap))
	l.optFloat(`,"power_w":`, float64(ev.Power))
	l.optFloat(`,"headroom_w":`, float64(ev.Headroom))
	l.optFloat(`,"wait_s":`, float64(ev.Wait))
	l.optFloat(`,"dur_s":`, float64(ev.Dur))
	l.optFloat(`,"at_s":`, float64(ev.At))
	l.optFloat(`,"energy_j":`, float64(ev.Energy))
	l.optFloat(`,"ee":`, ev.EE)
	l.optInt(`,"queue":`, ev.Queue)
	l.optInt(`,"free":`, ev.Free)
	if ev.Backfilled {
		l.raw(`,"backfilled":true`)
	}
	l.optStr(`,"reason":`, ev.Reason)
	l.raw("}\n")
}

// Write emits one JSON line. An event JSON cannot carry (a NaN or ±Inf
// field) writes nothing and leaves the sink in a sticky error state.
func (s *NDJSONSink) Write(ev Event) error {
	if s.err != nil {
		return s.err
	}
	s.render(&ev)
	if s.err = s.line.err; s.err != nil {
		return s.err
	}
	if _, s.err = s.w.Write(s.line.b); s.err != nil {
		return s.err
	}
	s.n++
	return nil
}

// Flush forces buffered lines to the underlying writer. A flush error
// is sticky: later Writes and Close report it instead of silently
// dropping the tail of the stream at process exit.
func (s *NDJSONSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Close flushes the buffer.
func (s *NDJSONSink) Close() error {
	return s.Flush()
}

// Count returns the number of events successfully encoded.
func (s *NDJSONSink) Count() int { return s.n }

// KindByName resolves an NDJSON "ev" string back to its Kind; ok is
// false for unknown names.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = Kind(k)
	}
	return m
}()

// DecodeNDJSON parses a stream produced by NDJSONSink back into
// events — the offline half of the format contract cmd/traceq is
// built on. Blank lines are skipped; an unknown "ev" name or malformed
// line is an error naming the line number.
func DecodeNDJSON(r io.Reader) ([]Event, error) {
	var evs []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("telemetry: ndjson line %d: %w", line, err)
		}
		kind, ok := KindByName(je.Kind)
		if !ok {
			return nil, fmt.Errorf("telemetry: ndjson line %d: unknown event kind %q", line, je.Kind)
		}
		ev := Event{
			T:          units.Seconds(je.T),
			Kind:       kind,
			Job:        NoJob,
			App:        je.App,
			Pool:       je.Pool,
			Site:       je.Site,
			P:          je.P,
			Ranks:      je.Ranks,
			FreqFrom:   je.FreqFrom,
			Freq:       je.Freq,
			WattsFrom:  je.WattsFrom,
			Watts:      je.Watts,
			Cap:        je.Cap,
			Power:      je.Power,
			Headroom:   je.Headroom,
			Wait:       je.Wait,
			Dur:        je.Dur,
			At:         je.At,
			Energy:     je.Energy,
			EE:         je.EE,
			Queue:      je.Queue,
			Free:       je.Free,
			Backfilled: je.Backfilled,
			Reason:     je.Reason,
		}
		if je.Job != nil {
			ev.Job = *je.Job
		}
		if je.Rank != nil {
			ev.Rank = *je.Rank
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: ndjson line %d: %w", line+1, err)
	}
	return evs, nil
}
