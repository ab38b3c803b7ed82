package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/capplan"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/figures"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// A workload is one set of inputs the benchmark runs. prepare is the
// set-up (everything a user's CLI does before the first scheduling
// call: platform parsing, plans, trace synthesis) and returns the timed
// region as a closure, so the two are measured apart and work moved
// from one to the other shows.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text; README.md has the long form).
	why string
	// jobs and smokeJobs are the scheduled jobs per iteration at full
	// and at test size; zero for paper_figures, whose operations are
	// the ten figure generators.
	jobs, smokeJobs int
	prepare         prepareFunc
}

// prepareFunc builds one iteration's inputs: jobs is the trace length,
// smoke selects the figures' reduced sizes, and a non-nil tracer gets a
// span per input built.
type prepareFunc func(seed int64, jobs int, smoke bool, tr *tracer) (timedRegion, error)

// timedRegion is one iteration's measured call sequence. Prepared with
// a non-nil tracer it attaches the host observer and the counting sink
// and records spans and per-layer numbers into that tracer.
type timedRegion func() (outcome, error)

// outcome is what one iteration produced, in simulated quantities only:
// it must repeat bit for bit at one seed, whatever the host did.
type outcome struct {
	// Attempted and Failed count operations: jobs (failed = not
	// Completed) or figure generators (failed = returned an error).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Sim holds the simulated-time statistics by metric name.
	Sim map[string]float64 `json:"sim"`
	// Digest hashes every job record (or every figure CSV), so "the
	// same schedule" means more than three equal summary numbers.
	Digest string `json:"digest"`
	// Checks lists output checks that failed; empty means correct.
	Checks []string `json:"checks,omitempty"`
}

func (o *outcome) failf(format string, args ...any) {
	o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
}

// Sizes measured on the 2-vCPU reference sandbox (README.md, "Sizes"):
// each iteration is a fresh process, and a 10 s run should hold at
// least five of them so the reported median is steady. sched_burst's
// cost is quadratic in its job count, so its size is part of the
// workload's identity: numbers at another size are not comparable.
var workloads = []workload{
	{
		name:      "sched_steady",
		why:       "16384 jobs at rho~0.66 on 64 SystemG ranks, 2500 W, backfill+ee-max: the operator's steady state, where per-event layers (sim, cluster, power, governor, opcache misses) do the work",
		jobs:      16384,
		smokeJobs: 384,
		prepare:   prepareSteady(false),
	},
	{
		name:      "sched_burst",
		why:       "1024 jobs at 6.7x overload, same platform and policy: the queue climbs into the hundreds, the admission pass is nearly all of wall time and per-event layers are in the noise",
		jobs:      1024,
		smokeJobs: 192,
		prepare:   prepareBurst,
	},
	{
		name:      "sched_churn",
		why:       "8192 jobs on systemg:32,dori:32 under a diurnal cap, MTBF/MTTR faults, edge retunes and execution noise: plan edges, kill/requeue/checkpoint and the per-rank execution path",
		jobs:      churnJobs,
		smokeJobs: 384,
		prepare:   prepareChurn,
	},
	{
		name:      "sched_observed",
		why:       "sched_steady's exact trace and config with NDJSON and rollup sinks live: what schedrun -events/-rollup users pay; simulated results must equal sched_steady's",
		jobs:      16384,
		smokeJobs: 384,
		prepare:   prepareSteady(true),
	},
	{
		name:      "fed_sites",
		why:       "16384 jobs routed over two sites under a 16-window global budget with greedy-ee renegotiation: routing quotes, sim-time barriers, two schedulers on two cores",
		jobs:      16384,
		smokeJobs: 384,
		prepare:   prepareFed,
	},
	{
		name:    "paper_figures",
		why:     "all ten figure generators at paper scale, one worker: goroutine Procs, mpi collectives, npb kernels and measured-energy meters, plus the paper's own model-vs-simulated error",
		prepare: prepareFigures,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// size returns the job count an iteration runs.
func (w workload) size(smoke bool) int {
	if smoke {
		return w.smokeJobs
	}
	return w.jobs
}

// ops returns the operations one iteration attempts.
func (w workload) ops(smoke bool) int {
	if n := w.size(smoke); n > 0 {
		return n
	}
	return len(figures.All())
}

// Shared by the three single-site workloads on the paper's SystemG.
const (
	steadyInterarrival = 50 * units.Millisecond
	churnInterarrival  = 100 * units.Millisecond
	fedInterarrival    = 70 * units.Millisecond
	rollupBucket       = units.Seconds(10)

	churnJobs = 8192
)

// schedInputs is a prepared single-site run.
type schedInputs struct {
	cfg   sched.Config
	trace []sched.Job
	// observed attaches the two live sinks of sched_observed.
	observed bool
	// exact says the run is noise-free, so the zero-violation guarantee
	// is checked.
	exact bool
}

func systemG64(tr *tracer, seed int64) (sched.Config, error) {
	sp := tr.begin("machine.ParsePlatform")
	platform, err := machine.ParsePlatform("systemg")
	tr.end(sp)
	if err != nil {
		return sched.Config{}, err
	}
	return sched.Config{
		Platform: platform,
		Ranks:    64,
		Cap:      2500,
		Policy:   sched.Backfill(sched.EEMax()),
		Seed:     seed,
	}, nil
}

func syntheticTrace(tr *tracer, cfg sched.TraceConfig) []sched.Job {
	sp := tr.begin("sched.SyntheticTrace")
	defer tr.end(sp)
	return sched.SyntheticTrace(cfg)
}

func prepareSteady(observed bool) prepareFunc {
	return func(seed int64, jobs int, _ bool, tr *tracer) (timedRegion, error) {
		cfg, err := systemG64(tr, seed)
		if err != nil {
			return nil, err
		}
		in := schedInputs{
			cfg:      cfg,
			trace:    syntheticTrace(tr, sched.TraceConfig{Jobs: jobs, Seed: seed, MeanInterarrival: steadyInterarrival}),
			observed: observed,
			exact:    true,
		}
		return in.region(tr), nil
	}
}

func prepareBurst(seed int64, jobs int, _ bool, tr *tracer) (timedRegion, error) {
	cfg, err := systemG64(tr, seed)
	if err != nil {
		return nil, err
	}
	// The default 5 ms interarrival offers ~200 jobs/s to ~30 jobs/s of
	// service: overload on purpose.
	in := schedInputs{cfg: cfg, trace: syntheticTrace(tr, sched.TraceConfig{Jobs: jobs, Seed: seed}), exact: true}
	return in.region(tr), nil
}

func prepareChurn(seed int64, jobs int, _ bool, tr *tracer) (timedRegion, error) {
	sp := tr.begin("machine.ParsePlatform")
	platform, err := machine.ParsePlatform("systemg:32,dori:32")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// The cap's period and the fault rates are fractions of the full
	// trace's span whatever the size run, so the test size sees the same
	// platform behaviour over a shorter trace.
	span := float64(churnJobs) * float64(churnInterarrival)
	sp = tr.begin("capplan.Diurnal")
	plan, err := capplan.Diurnal(2600, 500, units.Seconds(span/8))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("faults.ParsePlan")
	fplan, err := faults.ParsePlan(fmt.Sprintf("mtbf=*:%g,mttr=*:%g,retries=6,ckpt=0.5,restart=0.02", span/4, span/200))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := schedInputs{
		cfg: sched.Config{
			Platform:   platform,
			Plan:       plan,
			Faults:     fplan,
			Policy:     sched.Backfill(sched.EEMax()),
			EdgeRetune: true,
			Noise:      cluster.DefaultNoise(),
			Seed:       seed,
		},
		trace: syntheticTrace(tr, sched.TraceConfig{Jobs: jobs, Seed: seed, MeanInterarrival: churnInterarrival}),
	}
	return in.region(tr), nil
}

// region returns the timed call sequence of a single-site run.
func (in schedInputs) region(tr *tracer) timedRegion {
	return func() (outcome, error) { return in.run(tr) }
}

func (in schedInputs) run(tr *tracer) (outcome, error) {
	cfg := in.cfg
	var rec *telemetry.Recorder
	var ndjson *telemetry.NDJSONSink
	if in.observed {
		ndjson = telemetry.NewNDJSONSink(io.Discard)
		rollup, err := telemetry.NewRollupSink(io.Discard, rollupBucket)
		if err != nil {
			return outcome{}, err
		}
		rec = telemetry.New(ndjson, rollup)
	}
	var host *obs.Host
	var counts *kindCounter
	if tr != nil {
		host = obs.NewHost()
		cfg.Obs = host
		counts = &kindCounter{}
		if rec == nil {
			rec = telemetry.New()
		}
		rec.AddSink(counts)
	}
	cfg.Telemetry = rec

	sp := tr.begin("sched.New")
	s, err := sched.New(cfg)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = tr.begin("sched.Scheduler.Run")
	res, err := s.Run(in.trace)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	out := schedOutcome(res, len(in.trace))
	if in.exact && res.CapViolations != 0 {
		out.failf("%d cap violations on a noise-free run", res.CapViolations)
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			out.failf("Recorder.Close: %v", err)
		}
		if err := rec.Err(); err != nil {
			out.failf("Recorder.Err: %v", err)
		}
	}
	if ndjson != nil && ndjson.Count() == 0 {
		out.failf("NDJSON sink saw no events")
	}
	if tr != nil {
		tr.addSite(host.Snapshot(), counts)
	}
	return out, nil
}

func schedOutcome(res sched.Result, jobs int) outcome {
	out := jobsOutcome(jobs, res.Completed, res.Rejected, res.JobsLost, res.CapViolations, res.Makespan, res.EnergyPerJob, res.P95Wait)
	h := fnv.New64a()
	digestJobs(h, res.Jobs)
	out.Digest = strconv.FormatUint(h.Sum64(), 16)
	return out
}

// jobsOutcome is the outcome of a scheduled trace, one site or several:
// every job must have reached exactly one terminal state.
func jobsOutcome(jobs, completed, rejected, lost, violations int, makespan units.Seconds, energyPerJob units.Joules, p95Wait units.Seconds) outcome {
	out := outcome{
		Attempted: jobs,
		Failed:    jobs - completed,
		Sim: map[string]float64{
			"sim_makespan_s":       float64(makespan),
			"sim_energy_per_job_j": float64(energyPerJob),
			"sim_p95_wait_s":       float64(p95Wait),
			"cap_violations":       float64(violations),
		},
	}
	if completed+rejected+lost != jobs {
		out.failf("terminal states: %d completed + %d rejected + %d lost != %d jobs", completed, rejected, lost, jobs)
	}
	return out
}

// digestJobs folds every job's placement, timing and energy into h.
func digestJobs(h io.Writer, jobs []sched.JobResult) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
	for _, j := range jobs {
		put(uint64(j.ID))
		put(uint64(j.State))
		put(uint64(j.P))
		put(math.Float64bits(float64(j.Start)))
		put(math.Float64bits(float64(j.End)))
		put(math.Float64bits(float64(j.Energy)))
		_, _ = io.WriteString(h, j.Pool)
	}
}

func prepareFed(seed int64, jobs int, _ bool, tr *tracer) (timedRegion, error) {
	var sites []fed.Site
	span := units.Seconds(float64(jobs) * float64(fedInterarrival))
	// Opposite-phase carbon: east is clean in the first half, west in
	// the second, so the greedy split has something to renegotiate.
	for _, s := range []struct {
		name, platform string
		early, late    float64
	}{
		{"east", "systemg:32", 200, 500},
		{"west", "systemg:16,dori:16", 500, 200},
	} {
		sp := tr.begin("machine.ParsePlatform")
		platform, err := machine.ParsePlatform(s.platform)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sites = append(sites, fed.Site{
			Name:     s.name,
			Platform: platform,
			Carbon:   []capplan.Sample{{T: 0, Value: s.early}, {T: span / 2, Value: s.late}},
		})
	}
	const windows = 16
	segs := make([]capplan.Segment, windows)
	for i := range segs {
		segs[i] = capplan.Segment{Start: units.Seconds(float64(span) * float64(i) / windows), Cap: 3200}
		if i%2 == 1 {
			segs[i].Cap = 2600
		}
	}
	sp := tr.begin("capplan.Steps")
	budget, err := capplan.Steps(segs...)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	trace := syntheticTrace(tr, sched.TraceConfig{Jobs: jobs, Seed: seed, MeanInterarrival: fedInterarrival, MaxWidth: 16})

	return func() (outcome, error) {
		cfg := fed.Config{
			Sites:         sites,
			Budget:        budget,
			Split:         fed.GreedyEE(),
			Route:         fed.RouteEE(),
			GuaranteeFrac: 0.8,
			Policy:        sched.Backfill(sched.EEMax()),
			Seed:          seed,
		}
		// One host and one counting sink per site: sites run on their
		// own goroutines and must share neither.
		hosts := map[string]*obs.Host{}
		counts := map[string]*kindCounter{}
		var routes kindCounter
		var recs []*telemetry.Recorder
		if tr != nil {
			for _, s := range sites {
				hosts[s.Name] = obs.NewHost()
				counts[s.Name] = &kindCounter{}
			}
			cfg.SiteObs = func(site string) *obs.Host { return hosts[site] }
			cfg.SiteTelemetry = func(site string) *telemetry.Recorder {
				rec := telemetry.New(counts[site])
				recs = append(recs, rec)
				return rec
			}
			cfg.Telemetry = telemetry.New(&routes)
			recs = append(recs, cfg.Telemetry)
		}
		sp := tr.begin("fed.Run")
		res, err := fed.Run(cfg, trace)
		tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
		out := fedOutcome(res, len(trace))
		for _, rec := range recs {
			if err := rec.Close(); err != nil {
				out.failf("Recorder.Close: %v", err)
			}
		}
		if tr != nil {
			for _, s := range sites {
				tr.addSite(hosts[s.Name].Snapshot(), counts[s.Name])
			}
			tr.addFed(tr.seconds(sp), routes.n[telemetry.EvRoute])
		}
		return out, nil
	}, nil
}

func fedOutcome(res fed.Result, jobs int) outcome {
	h := fnv.New64a()
	var p95 units.Seconds // the federation's tail wait is its worst site's
	for _, s := range res.Sites {
		p95 = max(p95, s.Result.P95Wait)
		digestJobs(h, s.Result.Jobs)
	}
	out := jobsOutcome(jobs, res.Completed, res.Rejected, res.JobsLost, res.CapViolations, res.Makespan, res.EnergyPerJob, p95)
	if res.CapViolations != 0 {
		out.failf("%d cap violations on a noise-free federation", res.CapViolations)
	}
	out.Digest = strconv.FormatUint(h.Sum64(), 16)
	return out
}

// figureSeedOffset keeps the figures' measurement-noise seed apart from
// the trace seeds of the other workloads at the same -seed.
const figureSeedOffset = 41

func prepareFigures(seed int64, _ int, smoke bool, tr *tracer) (timedRegion, error) {
	sp := tr.begin("figures.All")
	gens := figures.All()
	tr.end(sp)
	opts := figures.Options{Seed: seed + figureSeedOffset, Workers: 1, Quick: smoke}
	return func() (outcome, error) {
		out := outcome{Attempted: len(gens), Sim: map[string]float64{}}
		h := fnv.New64a()
		for _, g := range gens {
			sp := tr.begin(figureSpanPrefix + g.ID)
			fig, err := g.Run(opts)
			tr.end(sp)
			if err != nil {
				out.Failed++
				out.failf("figure %s: %v", g.ID, err)
				continue
			}
			_, _ = io.WriteString(h, fig.CSV) // hash.Hash.Write never fails
			errs, byKernel, err := relErrors(fig.CSV)
			if err != nil {
				out.failf("figure %s: %v", g.ID, err)
			}
			if g.ID == "3" || g.ID == "4" {
				out.Sim["fig"+g.ID+"_avg_err_pct"] = 100 * mean(errs)
			}
			if g.ID == "4" {
				for kernel, errs := range byKernel {
					out.Sim[fig4KernelKey(kernel)] = 100 * mean(errs)
				}
			}
		}
		out.Digest = strconv.FormatUint(h.Sum64(), 16)
		return out, nil
	}, nil
}

// fig4KernelKey names one NPB kernel's average Fig 4 error in
// outcome.Sim; it is printed beside the paper's figure, not a metric.
func fig4KernelKey(kernel string) string { return "fig4_" + kernel + "_avg_err_pct" }

// relErrors returns a figure CSV's rel_error column, whole and grouped
// by its first column (the kernel name), nil when the CSV has no such
// column, and an error when the CSV is empty or an entry is not finite.
func relErrors(csv string) (all []float64, byKernel map[string][]float64, err error) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("CSV has no data rows")
	}
	col := slices.Index(strings.Split(lines[0], ","), "rel_error")
	if col < 0 {
		return nil, nil, nil
	}
	byKernel = map[string][]float64{}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if col >= len(cells) {
			return nil, nil, fmt.Errorf("short CSV row %q", line)
		}
		v, err := strconv.ParseFloat(cells[col], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("rel_error %q is not a finite number", cells[col])
		}
		all = append(all, v)
		byKernel[cells[0]] = append(byKernel[cells[0]], v)
	}
	return all, byKernel, nil
}
