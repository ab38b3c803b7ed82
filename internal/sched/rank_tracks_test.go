package sched

import (
	"fmt"
	"testing"

	"repro/internal/capplan"
	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// rankOracle folds every rank's frequency from the five decision kinds
// that move ranks — admit, boost, throttle, finish, kill — and holds the
// fold, at every event of the stream, to the cluster's own vector. It
// shares no code with the Chrome sink that draws the same moves: the
// cluster is the truth.
type rankOracle struct {
	cl    *cluster.Cluster
	state []units.Hertz
	moves map[telemetry.Kind]int // rank moves folded, by kind
	err   error                  // the first disagreement
}

func newRankOracle(cl *cluster.Cluster) *rankOracle {
	o := &rankOracle{cl: cl, state: make([]units.Hertz, cl.Ranks()), moves: map[telemetry.Kind]int{}}
	for r := range o.state {
		o.state[r] = cl.Params(r).Freq
	}
	return o
}

func (o *rankOracle) Write(ev telemetry.Event) error {
	switch ev.Kind {
	case telemetry.EvAdmit, telemetry.EvFinish, telemetry.EvKill:
		// Emitted after the ranks moved.
		o.fold(&ev)
		o.compare(&ev)
	case telemetry.EvThrottle, telemetry.EvBoost:
		// Emitted before the ranks move: the cluster must still hold
		// them at FreqFrom.
		o.compare(&ev)
		o.fold(&ev)
	default:
		o.compare(&ev)
	}
	return nil
}

// fold moves each rank of ev from FreqFrom to Freq, which must be where
// the fold has it.
func (o *rankOracle) fold(ev *telemetry.Event) {
	for _, r := range ev.Ranks {
		if o.state[r] != ev.FreqFrom {
			o.fail(ev, "rank %d folds at %v, the event moves it from %v", r, o.state[r], ev.FreqFrom)
		}
		if ev.FreqFrom != ev.Freq {
			o.moves[ev.Kind]++
		}
		o.state[r] = ev.Freq
	}
}

func (o *rankOracle) compare(ev *telemetry.Event) {
	for r, f := range o.state {
		if got := o.cl.Params(r).Freq; got != f {
			o.fail(ev, "rank %d folds at %v, the cluster runs it at %v", r, f, got)
		}
	}
}

func (o *rankOracle) fail(ev *telemetry.Event, format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("t=%v %s job %d: %s", ev.T, ev.Kind, ev.Job, fmt.Sprintf(format, args...))
	}
}

func (o *rankOracle) Close() error { return nil }

// The stream carries no per-rank retune events: a rank's frequency is
// the one its job's decisions set, so admit (from the park frequency),
// boost and throttle (the job's ladder move) and finish and kill (back
// to park) must describe every rank's frequency exactly. Checked on the
// stream goldens' scenario and on a noisy, MTBF-faulted mixed-pool run
// under a diurnal cap.
func TestRankTracksFollowDecisions(t *testing.T) {
	churn := func(t *testing.T, rec *telemetry.Recorder) (Config, []Job) {
		const jobs, interarrival = 1024, 100 * units.Millisecond
		span := float64(jobs) * float64(interarrival)
		plan, err := capplan.Diurnal(2600, 500, units.Seconds(span/8))
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Platform: mustPlatform(t, "systemg:32,dori:32"),
			Plan:     plan,
			Faults: mustFaultPlan(t, fmt.Sprintf("mtbf=*:%g,mttr=*:%g,retries=6,ckpt=0.5,restart=0.02",
				span/4, span/200)),
			Policy:     Backfill(EEMax()),
			EdgeRetune: true,
			Noise:      cluster.DefaultNoise(),
			Seed:       5,
			Telemetry:  rec,
		}, SyntheticTrace(TraceConfig{Jobs: jobs, Seed: 5, MeanInterarrival: interarrival})
	}
	for _, tc := range []struct {
		name     string
		scenario func(*testing.T, *telemetry.Recorder) (Config, []Job)
	}{
		{"golden", goldenScenario},
		{"noisy-mtbf-diurnal", churn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := telemetry.New()
			cfg, trace := tc.scenario(t, rec)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := newRankOracle(s.cl)
			rec.AddSink(o)
			if _, err := s.Run(trace); err != nil {
				t.Fatal(err)
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			for _, k := range []telemetry.Kind{telemetry.EvAdmit, telemetry.EvBoost, telemetry.EvThrottle, telemetry.EvFinish, telemetry.EvKill} {
				if o.moves[k] == 0 {
					t.Errorf("no %s event moved a rank: the scenario does not exercise it", k)
				}
			}
		})
	}
}
