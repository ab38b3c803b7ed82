package main

import (
	"fmt"
	"maps"
	"slices"
	"time"
)

// runOpts configures one measured run of one workload.
type runOpts struct {
	spec    spec
	seed    int64
	seconds float64
	// traced selects the separate traced run that yields the per-layer
	// metrics; end-to-end metrics are only ever measured with it off.
	traced bool
	// micro adds the outside micro-timings (layers.go) to a traced run.
	micro bool
	smoke bool
	spawn spawnFunc
}

// result is one workload's measured run: every metric it produced, the
// operations attempted and failed, and the output checks that failed.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	Metrics   map[string]summary `json:"metrics"`

	// first is the simulated outcome every other iteration must equal.
	first *outcome
	// spans are the last traced iteration's, for the trace file.
	spans []span
}

func (r *result) correct() bool { return len(r.Checks) == 0 }

func (r *result) failf(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// outcomeMetrics are the simulated-time results reported per workload;
// a workload they do not apply to reports zero.
var outcomeMetrics = []string{
	"sim_makespan_s", "sim_energy_per_job_j", "sim_p95_wait_s",
	"cap_violations", "fig3_avg_err_pct", "fig4_avg_err_pct",
}

const (
	// minSetupSamples set-ups are timed per run, by extra set-up-only
	// processes when the timed iterations are fewer.
	minSetupSamples = 7
	// The traced run spends its time on traced iterations, then on the
	// same iterations untraced (their ratio is the cost of looking),
	// then on the micro-timings, which take a fixed ~4 s.
	tracedShare, untracedShare = 0.35, 0.25
)

type measurement struct {
	w       workload
	o       runOpts
	res     result
	samples map[string][]float64
}

// measure runs one workload for about o.seconds and summarises it.
func measure(w workload, o runOpts) result {
	m := &measurement{w: w, o: o, res: result{Workload: w.name}, samples: map[string][]float64{}}
	args := childArgs{workload: w.name, seed: o.seed, smoke: o.smoke}
	if o.traced {
		m.traced(args)
	} else {
		m.untraced(args)
	}
	for _, name := range outcomeMetrics {
		v := 0.0
		if m.res.first != nil {
			v = m.res.first.Sim[name]
		}
		m.samples[name] = []float64{v}
	}
	m.samples["failed_share"] = []float64{ratio(float64(m.res.Failed), float64(m.res.Attempted))}
	m.res.Metrics = map[string]summary{}
	for name, s := range m.samples {
		m.res.Metrics[name] = summarize(s)
	}
	return m.res
}

func (m *measurement) untraced(args childArgs) {
	for _, rep := range m.iterate(args, m.o.seconds, true) {
		m.addSamples(rep.Host)
	}
	// Set-up is short and a run may hold a single iteration, so top the
	// sample up with processes that set up and exit.
	setup := args
	setup.setupOnly = true
	for fails := 0; len(m.samples["setup_s"]) < minSetupSamples && fails < 2; {
		rep, err := m.o.spawn(setup)
		if err != nil {
			m.res.failf("set-up-only child: %v", err)
			fails++
			continue
		}
		m.addSamples(rep.Host)
	}
	if m.w.name == "sched_observed" {
		// Telemetry observes; it must not change the schedule.
		ref := args
		ref.workload = "sched_steady"
		rep, err := m.o.spawn(ref)
		switch {
		case err != nil:
			m.res.failf("sched_steady reference child: %v", err)
		case m.res.first != nil && !sameOutcome(rep.outcome, *m.res.first):
			m.res.failf("simulated results differ from sched_steady's: %v vs %v", m.res.first.Sim, rep.Sim)
		}
	}
}

func (m *measurement) traced(args childArgs) {
	traced := args
	traced.traced = true
	var tracedWall, plainWall []float64
	for _, rep := range m.iterate(traced, tracedShare*m.o.seconds, false) {
		m.addSamples(rep.Layers)
		tracedWall = append(tracedWall, rep.Host["wall_s"])
		m.res.spans = rep.Spans
	}
	for _, rep := range m.iterate(args, untracedShare*m.o.seconds, false) {
		plainWall = append(plainWall, rep.Host["wall_s"])
	}
	m.samples["trace.overhead_ratio"] = []float64{ratio(median(tracedWall), median(plainWall))}
	for _, ms := range m.o.spec.PerLayer {
		if s := m.samples[ms.Name]; ms.Unit == exactUnit && len(s) > 0 && slices.Min(s) != slices.Max(s) {
			m.res.failf("count %s does not repeat at one seed: %v", ms.Name, s)
		}
	}
	if m.o.micro {
		rep, err := m.o.spawn(childArgs{workload: layersChild, smoke: m.o.smoke})
		if err != nil {
			m.res.failf("micro-timings child: %v", err)
		}
		m.addSamples(rep.Layers)
	}
}

// seedStride spaces the seeds of one run's iterations: iteration i of a
// run at seed s runs seed s + i*seedStride, so runs at neighbouring
// seeds share no trace.
const seedStride = 7919

// iterate runs fresh-process iterations until the time is used up; at
// least one always runs. A failed child counts all its operations as
// failed.
//
// One trace is one draw from the workload's input distribution, and the
// schedule it produces is chaotic in the trace (host time and bytes move
// by 5-10 % between seeds), so with vary set every iteration draws a new
// trace from the run's seed and the run's median is over many draws. The
// last iteration repeats the first one's seed, which is what checks that
// simulated results repeat bit for bit.
func (m *measurement) iterate(args childArgs, seconds float64, vary bool) []report {
	var reps []report
	ops := m.w.ops(args.smoke)
	seed0 := args.seed
	start := time.Now() //lint:wallclock the run length is host time
	for fails, last := 0, false; fails < 2 && !last; {
		if n := len(reps); n > 0 {
			elapsed := time.Since(start).Seconds() //lint:wallclock the run length is host time
			mean := elapsed / float64(n)
			if elapsed+0.5*mean > seconds {
				break // less than half an iteration still fits
			}
			last = elapsed+1.5*mean > seconds
			args.seed = seed0
			if vary && !last {
				args.seed += int64(n) * seedStride
			}
		}
		rep, err := m.o.spawn(args)
		m.res.Attempted += ops
		if err != nil {
			m.res.Failed += ops
			m.res.failf("%v", err)
			fails++
			continue
		}
		m.res.Failed += rep.Failed
		for _, c := range rep.Checks {
			m.res.failf("%s", c)
		}
		if m.res.first == nil {
			m.res.first = &rep.outcome
		} else if args.seed == seed0 && !sameOutcome(rep.outcome, *m.res.first) {
			m.res.failf("simulated results do not repeat at seed %d: %v (%s) vs %v (%s)",
				seed0, m.res.first.Sim, m.res.first.Digest, rep.Sim, rep.Digest)
		}
		reps = append(reps, rep)
	}
	return reps
}

func (m *measurement) addSamples(values map[string]float64) {
	for name, v := range values {
		m.samples[name] = append(m.samples[name], v)
	}
}

// sameOutcome reports whether two iterations produced the same
// simulated results, bit for bit.
func sameOutcome(a, b outcome) bool {
	return a.Attempted == b.Attempted && a.Failed == b.Failed && a.Digest == b.Digest && maps.Equal(a.Sim, b.Sim)
}
