package sched

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/capplan"
	"repro/internal/telemetry"
	"repro/internal/traceq"
	"repro/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/golden_* stream files from this run")

// goldenStreams runs the one scenario the stream goldens are cut from —
// 96 jobs on systemg:16,dori:16 under a four-window plan (a 1050 W
// clamp over [0.8, 1.1) s, then a lower tail), scripted and MTBF faults
// with checkpoints, backfill+ee-max with
// edge retunes, seed 1 — with every in-run exporter attached, and
// returns each stream's bytes. The Chrome trace is not among them: it
// is a fold over the NDJSON stream.
func goldenStreams(t *testing.T) (streams map[string]*bytes.Buffer) {
	t.Helper()
	streams = map[string]*bytes.Buffer{
		"golden_events.ndjson": {},
		"golden_metrics.csv":   {},
		"golden_rollup.csv":    {},
	}
	rollup, err := telemetry.NewRollupSink(streams["golden_rollup.csv"], 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.NewNDJSONSink(streams["golden_events.ndjson"]), rollup)
	rec.Metrics().StreamCSV(streams["golden_metrics.csv"])

	cfg, trace := goldenScenario(t, rec)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(trace); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Metrics().Err(); err != nil {
		t.Fatal(err)
	}
	return streams
}

// goldenScenario is the stream goldens' configuration and trace,
// recording into rec.
func goldenScenario(t *testing.T, rec *telemetry.Recorder) (Config, []Job) {
	t.Helper()
	cfg := Config{
		Platform: mustPlatform(t, "systemg:16,dori:16"),
		Plan: mustSteps(t,
			capplan.Segment{Start: 0, Cap: 1400},
			capplan.Segment{Start: 0.8, Cap: 1050},
			capplan.Segment{Start: 1.1, Cap: 1400},
			capplan.Segment{Start: 1.5, Cap: 1150},
		),
		Faults: mustFaultPlan(t,
			"fail=3@0.2,repair=3@0.6,mtbf=*:30,mttr=*:0.3,retries=3,ckpt=0.1,restart=0.02"),
		Policy:     Backfill(EEMax()),
		EdgeRetune: true,
		Seed:       1,
		Telemetry:  rec,
	}
	return cfg, SyntheticTrace(TraceConfig{Jobs: 96, Seed: 1, MaxWidth: 16, MeanInterarrival: 80 * units.Millisecond})
}

// The four exporter streams are pinned byte for byte: the goldens were
// cut from the encoding/json + fmt encoders, so any encoder change must
// reproduce every escape, float form and omitted field exactly. The
// Chrome trace is pinned as what traceq chrome makes of the decoded
// NDJSON stream, and replaying that stream into a rollup sink must give
// the in-run rollup: both are folds over the one event stream.
func TestStreamGoldens(t *testing.T) {
	streams := goldenStreams(t)
	decoded, err := telemetry.DecodeNDJSON(bytes.NewReader(streams["golden_events.ndjson"].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	streams["golden_trace.json"] = new(bytes.Buffer)
	if err := traceq.Chrome(streams["golden_trace.json"], decoded); err != nil {
		t.Fatal(err)
	}
	var rollup bytes.Buffer
	rs, err := telemetry.NewRollupSink(&rollup, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range decoded {
		if err := rs.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rollup.Bytes(), streams["golden_rollup.csv"].Bytes()) {
		t.Errorf("rollup of the decoded NDJSON differs from the in-run rollup (first difference at byte %d)",
			firstDiff(rollup.Bytes(), streams["golden_rollup.csv"].Bytes()))
	}

	// The scenario is only a pin if it reaches every kind a single-site
	// scheduler emits on a noise-free run (EvRoute is the federation
	// frontend's, EvViolation needs a noisy meter, and EvRankRetune is
	// no longer emitted: the decisions carry their rank moves).
	seen := map[telemetry.Kind]bool{}
	for _, ev := range decoded {
		seen[ev.Kind] = true
	}
	if seen[telemetry.EvRankRetune] {
		t.Error("golden scenario emits a per-rank retune event")
	}
	for k := telemetry.EvArrive; k <= telemetry.EvRestart; k++ {
		if !seen[k] && k != telemetry.EvViolation && k != telemetry.EvReject && k != telemetry.EvRankRetune {
			t.Errorf("golden scenario emits no %s event", k)
		}
	}

	for name, got := range streams {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: stream differs from golden (%d vs %d bytes; first difference at byte %d)",
				name, got.Len(), len(want), firstDiff(got.Bytes(), want))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
