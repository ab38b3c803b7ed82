// Command schedrun races the power-budget scheduling policies head to
// head on one synthetic job trace: the same jobs, the same cluster, the
// same power cap — only the policy differs. The comparison table is the
// paper's "power-constrained parallel computation" at fleet scale: the
// iso-energy-efficiency-aware policies should complete the trace at
// least as fast as the FIFO baseline while spending less energy per job
// and never exceeding the cap.
//
// With -backfill every policy is wrapped in EASY-style reservations
// (sched.Backfill): a blocked queue head is promised ranks and watts at
// a model-predicted future start, and later jobs only jump it when they
// cannot delay that start — bounding the worst-case wait of wide jobs.
// A specific wrapped policy can also be named directly, e.g.
// -policy backfill+ee-max.
//
// Profiling the scheduler hot path needs no test binary: -cpuprofile /
// -memprofile write pprof files covering the schedule runs, and
// -repeat N executes each selected policy's schedule N times so short
// traces accumulate enough samples (the comparison table reports the
// last repetition; repetitions are independent and identical).
//
// The -cluster flag accepts either a bare preset ("systemg", "dori") or
// a mixed pool list ("systemg:32,dori:32") building a heterogeneous
// platform: each pool keeps its own machine vector and DVFS ladder, and
// the policies place every job entirely within one pool (ee-max picks
// the EE-best pool, fifo the lowest-ranked pool that fits).
//
// The cap can be a timeline instead of a constant: -capplan takes
// "start:watts" windows ("0:2500,2:1500,4:2500" squeezes the budget
// mid-trace — a demand-response event), -capfile reads the same
// timeline from a t_s,cap_w CSV (an externally logged tariff or carbon
// trace), and -capdump writes the active timeline back out as CSV, so
// an exported plan re-imports to the identical schedule. Plan runs
// print a per-window table: energy, mean draw, cap utilisation and
// violations inside every budget window.
//
// -reserve K holds EASY reservations for the first K blocked jobs
// (conservative multi-reservation backfill; K > 1 implies -backfill).
//
// Fault injection (internal/faults) threads deterministic failures
// through the runs: -faults takes a plan spec ("fail=3@10,mtbf=*:900,
// mttr=*:120,emer=20-40:600,retries=2,ckpt=30,restart=5"), -faultfile
// reads the same plan from CSV, and -mtbf/-mttr (always together) set a
// wildcard failure/repair process for every pool from the command line;
// -retries, -ckpt and -restartcost override the corresponding plan
// knobs. A plan's power emergencies clamp the effective cap, so
// -capdump — which exports the budget timeline alone — cannot combine
// with fault injection. Fault runs print a per-policy fault summary,
// and when any job is permanently lost (killed past its retry cap)
// schedrun exits with status 4, mirroring the exit-3 violation gate.
//
// Observability (internal/telemetry) attaches to a single named policy:
// -trace writes a Chrome trace-event JSON timeline (open in Perfetto or
// chrome://tracing), -events the raw decision stream as NDJSON,
// -metrics the sim-time metrics registry as CSV, and -audit renders the
// stream as text on stdout through internal/traceq — "summary" for the
// run's totals, a job ID for that job's `traceq why`, "all" for both.
// These flags need -policy NAME — a decision stream interleaving
// several independent schedules would be meaningless — and with
// -repeat N they record only the final repetition, so profiling runs
// stay clean. -json dumps the machine-readable results (any policy
// selection) to a file, or stdout with "-". When any run violated the
// cap, schedrun exits with status 3 after printing its tables, so CI
// smoke jobs can assert the zero-violation guarantee. A flag value no
// schedule can be built from — a malformed plan spec, a non-finite or
// sub-idle-floor cap, a negative job count — exits 2; an unreadable or
// unwritable file exits 1.
//
// Usage:
//
//	schedrun -jobs 64 -cap 2500 [-ranks 64] [-cluster systemg:32,dori:32]
//	         [-capplan 0:2500,3600:1500 | -capfile plan.csv] [-capdump out.csv]
//	         [-faults fail=3@10,retries=2 | -faultfile plan.csv]
//	         [-mtbf S -mttr S] [-retries N] [-ckpt S] [-restartcost S]
//	         [-policy all] [-backfill] [-reserve K] [-detail] [-edge]
//	         [-trace out.json] [-events out.ndjson] [-metrics out.csv]
//	         [-audit summary|all|ID] [-json out.json]
//	         [-repeat N] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"

	"repro/internal/capplan"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/traceq"
	"repro/internal/units"
)

func main() {
	jobs := flag.Int("jobs", 64, "number of jobs in the synthetic trace")
	cap := flag.Float64("cap", 2500, "cluster power cap in watts")
	ranks := flag.Int("ranks", 64, "cluster size in ranks (ignored when -cluster lists explicit pool sizes)")
	clusterName := flag.String("cluster", "systemg", "platform: a preset (systemg, dori) or mixed pools like systemg:32,dori:32")
	capPlan := flag.String("capplan", "", "time-varying cap plan as start:watts windows, e.g. 0:2500,3600:1500,7200:2500 (excludes -cap)")
	capFile := flag.String("capfile", "", "read the cap plan from a t_s,cap_w CSV file (excludes -cap and -capplan)")
	capDump := flag.String("capdump", "", "write the active cap plan to this CSV file (requires -capplan or -capfile)")
	faultSpec := flag.String("faults", "", "fault-injection plan spec, e.g. fail=3@10,mtbf=*:900,mttr=*:120,retries=2,ckpt=30 (excludes -faultfile)")
	faultFile := flag.String("faultfile", "", "read the fault plan from a kind,subject,t0_s,t1_s,value CSV file (excludes -faults)")
	mtbf := flag.Float64("mtbf", 0, "wildcard mean time between failures in seconds for every pool (needs -mttr)")
	mttr := flag.Float64("mttr", 0, "wildcard mean time to repair in seconds for every pool (needs -mtbf)")
	retries := flag.Int("retries", 3, "retry cap: a job killed after this many restarts is permanently lost")
	ckpt := flag.Float64("ckpt", 0, "checkpoint interval in seconds (0 disables periodic checkpoints)")
	restartCost := flag.Float64("restartcost", 0, "restart surcharge in seconds added to every resumed attempt")
	policy := flag.String("policy", "all", "policy to run: fifo, ee-max, fair-share, backfill+<name>, or all")
	backfill := flag.Bool("backfill", false, "wrap every selected policy in EASY backfill reservations")
	reserve := flag.Int("reserve", 1, "hold backfill reservations for the first K blocked jobs (K>1 implies -backfill)")
	seed := flag.Int64("seed", 1, "trace and simulation seed")
	interval := flag.Float64("interval", 0, "governor sampling interval in seconds (0 = the 25ms default; negative is rejected)")
	edge := flag.Bool("edge", false, "retune on admission/completion edges in addition to the sampling grid")
	detail := flag.Bool("detail", false, "print per-job tables")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline (Perfetto) to this file (needs -policy NAME)")
	eventsPath := flag.String("events", "", "write the decision event stream as NDJSON to this file (needs -policy NAME)")
	metricsPath := flag.String("metrics", "", "write sim-time metrics as CSV to this file (needs -policy NAME)")
	audit := flag.String("audit", "", `print a decision audit: "summary", "all", or a job ID (needs -policy NAME)`)
	jsonPath := flag.String("json", "", `write machine-readable results as JSON to this file ("-" = stdout)`)
	verbose := flag.Bool("v", false, "print a one-line host-side summary (wall time, events/s, opcache hit rate, allocations) after each policy run")
	rollup := flag.Float64("rollup", 0, "aggregate -events into sim-time buckets of this width in seconds: a bounded-memory CSV rollup instead of raw NDJSON")
	statusAddr := flag.String("status", "", "serve live run status over HTTP on this address (e.g. :8080 or 127.0.0.1:0): JSON at /status.json, Prometheus text at /metrics")
	repeat := flag.Int("repeat", 1, "run each policy's schedule N times (profiling workload)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the schedule runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the schedule runs to this file")
	flag.Parse()
	if *repeat < 1 {
		*repeat = 1
	}
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "-jobs %d must not be negative\n", *jobs)
		os.Exit(2)
	}
	if *interval < 0 {
		fmt.Fprintf(os.Stderr, "-interval %g is negative; pass 0 for the 25 ms default or a positive period\n", *interval)
		os.Exit(2)
	}
	if *reserve < 1 {
		fmt.Fprintf(os.Stderr, "-reserve %d must be at least 1\n", *reserve)
		os.Exit(2)
	}

	var plan *capplan.Plan
	switch {
	case *capPlan != "" && *capFile != "":
		fmt.Fprintln(os.Stderr, "-capplan and -capfile are mutually exclusive")
		os.Exit(2)
	case *capPlan != "":
		p, err := capplan.ParsePlan(*capPlan)
		usageOn(err)
		plan = p
	case *capFile != "":
		f, err := os.Open(*capFile)
		exitOn(err)
		p, err := capplan.ReadCSV(f)
		f.Close()
		exitOn(err)
		plan = p
	}
	if plan != nil {
		capSet := false
		flag.Visit(func(f *flag.Flag) { capSet = capSet || f.Name == "cap" })
		if capSet {
			fmt.Fprintln(os.Stderr, "-cap cannot combine with a cap plan; put the constant in the plan's first window instead")
			os.Exit(2)
		}
	}
	// Fault knobs given on the command line override the corresponding
	// plan knobs (flag.Visit distinguishes "explicitly set" from the
	// default), so a CSV plan can be rerun with a different retry cap or
	// checkpoint cadence without editing the file.
	faultKnobs := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "mtbf", "mttr", "retries", "ckpt", "restartcost":
			faultKnobs[f.Name] = true
		}
	})
	if faultKnobs["mtbf"] != faultKnobs["mttr"] {
		fmt.Fprintln(os.Stderr, "-mtbf and -mttr must be given together: a failure process without a repair rate (or vice versa) is underspecified")
		os.Exit(2)
	}
	if *mtbf < 0 || *mttr < 0 {
		fmt.Fprintf(os.Stderr, "-mtbf %g / -mttr %g must not be negative\n", *mtbf, *mttr)
		os.Exit(2)
	}
	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "-retries %d must be at least 0\n", *retries)
		os.Exit(2)
	}
	if *ckpt < 0 || *restartCost < 0 {
		fmt.Fprintf(os.Stderr, "-ckpt %g / -restartcost %g must not be negative\n", *ckpt, *restartCost)
		os.Exit(2)
	}
	var fplan *faults.Plan
	switch {
	case *faultSpec != "" && *faultFile != "":
		fmt.Fprintln(os.Stderr, "-faults and -faultfile are mutually exclusive")
		os.Exit(2)
	case *faultSpec != "":
		p, err := faults.ParsePlan(*faultSpec)
		usageOn(err)
		fplan = p
	case *faultFile != "":
		f, err := os.Open(*faultFile)
		exitOn(err)
		p, err := faults.ReadCSV(f)
		f.Close()
		exitOn(err)
		fplan = p
	}
	if fplan == nil && faultKnobs["mtbf"] {
		fplan = &faults.Plan{MaxRetries: *retries}
	}
	if fplan == nil && len(faultKnobs) > 0 {
		fmt.Fprintln(os.Stderr, "-retries/-ckpt/-restartcost tune a fault plan; give one with -faults, -faultfile or -mtbf/-mttr")
		os.Exit(2)
	}
	if fplan != nil {
		if faultKnobs["mtbf"] {
			// The command-line wildcard replaces a plan's wildcard entry;
			// exact per-pool rates from the plan still win (RatesFor).
			rates := fplan.Rates[:0:0]
			for _, r := range fplan.Rates {
				if r.Pool != "*" {
					rates = append(rates, r)
				}
			}
			fplan.Rates = append(rates, faults.PoolRates{Pool: "*", MTBF: units.Seconds(*mtbf), MTTR: units.Seconds(*mttr)})
		}
		if faultKnobs["retries"] {
			fplan.MaxRetries = *retries
		}
		if faultKnobs["ckpt"] {
			fplan.CheckpointEvery = units.Seconds(*ckpt)
		}
		if faultKnobs["restartcost"] {
			fplan.RestartCost = units.Seconds(*restartCost)
		}
		usageOn(fplan.Validate())
	}
	if *capDump != "" {
		if plan == nil {
			fmt.Fprintln(os.Stderr, "-capdump needs -capplan or -capfile")
			os.Exit(2)
		}
		if fplan != nil {
			fmt.Fprintln(os.Stderr, "-capdump exports the budget timeline alone and cannot combine with fault injection: power emergencies reshape the effective cap")
			os.Exit(2)
		}
		f, err := os.Create(*capDump)
		exitOn(err)
		err = plan.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		exitOn(err)
	}

	platform, err := machine.ParsePlatform(*clusterName)
	usageOn(err)
	// A multi-pool platform defines the cluster exactly (every pool's
	// node count); the -ranks default only sizes a bare single preset,
	// whose full node count is far larger than a useful demo cluster.
	// Truncating a mixed platform to a rank prefix would silently strip
	// the later pools, so -ranks and multi-pool are mutually exclusive.
	clusterRanks := *ranks
	if len(platform.Pools) > 1 {
		ranksSet := false
		flag.Visit(func(f *flag.Flag) { ranksSet = ranksSet || f.Name == "ranks" })
		if ranksSet {
			fmt.Fprintf(os.Stderr, "-ranks cannot resize a multi-pool platform; size each pool instead, e.g. -cluster systemg:32,dori:32\n")
			os.Exit(2)
		}
		clusterRanks = 0 // whole platform
	}

	var policies []sched.Policy
	if *policy == "all" {
		all := sched.Policies()
		names := make([]string, 0, len(all))
		for name := range all {
			names = append(names, name)
		}
		sort.Strings(names)
		// Baseline first so the table reads as baseline vs. contenders.
		sort.SliceStable(names, func(a, b int) bool { return names[a] == "fifo" && names[b] != "fifo" })
		for _, name := range names {
			policies = append(policies, all[name])
		}
	} else {
		p, err := sched.ParsePolicy(*policy)
		if err != nil {
			usageOn(fmt.Errorf("-policy: %v, or all", err))
		}
		policies = []sched.Policy{p}
	}
	if *backfill || *reserve > 1 {
		for i, p := range policies {
			policies[i] = sched.BackfillN(p, *reserve)
		}
	}

	// The telemetry flags record one schedule's decision stream; an
	// interleaving of several independent schedules would attribute
	// events to the wrong run, so they demand a single named policy.
	telemetryOn := *tracePath != "" || *eventsPath != "" || *metricsPath != "" || *audit != ""
	if telemetryOn && len(policies) > 1 {
		fmt.Fprintln(os.Stderr, "-trace/-events/-metrics/-audit record a single schedule; select one policy with -policy NAME")
		os.Exit(2)
	}
	if *rollup < 0 {
		fmt.Fprintf(os.Stderr, "-rollup %g must not be negative\n", *rollup)
		os.Exit(2)
	}
	if *rollup > 0 && *eventsPath == "" {
		fmt.Fprintln(os.Stderr, "-rollup aggregates the -events stream; give it a destination with -events FILE")
		os.Exit(2)
	}
	auditJob := -1
	if *audit != "" && *audit != "summary" && *audit != "all" {
		id, err := strconv.Atoi(*audit)
		if err != nil || id < 0 {
			fmt.Fprintf(os.Stderr, "-audit %q: want \"summary\", \"all\", or a job ID\n", *audit)
			os.Exit(2)
		}
		auditJob = id
	}

	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: *jobs, Seed: *seed})

	shownRanks := clusterRanks
	if shownRanks == 0 {
		shownRanks = platform.TotalRanks()
	}
	if plan != nil {
		fmt.Printf("trace: %d jobs on %s/%d ranks under cap plan %s (seed %d)\n",
			*jobs, platform, shownRanks, plan, *seed)
	} else {
		fmt.Printf("trace: %d jobs on %s/%d ranks under a %.0f W cap (seed %d)\n",
			*jobs, platform, shownRanks, *cap, *seed)
	}
	if fplan != nil {
		fmt.Printf("faults: %s\n", fplan)
	}
	fmt.Println()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		defer f.Close()
		exitOn(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	// The status server outlives individual runs: each policy run
	// publishes snapshots under its own label, and the final snapshot of
	// a finished run stays queryable while later policies execute.
	var srv *obs.StatusServer
	if *statusAddr != "" {
		s, err := obs.ListenStatus(*statusAddr)
		exitOn(err)
		srv = s
		defer srv.Close()
		fmt.Printf("status: http://%s (JSON at /status.json, Prometheus at /metrics)\n\n", srv.Addr())
	}

	var results []sched.Result
	for _, pol := range policies {
		var res sched.Result
		var mem *telemetry.MemorySink
		var host *obs.Host
		for r := 0; r < *repeat; r++ {
			cfg := sched.Config{
				Platform:   platform,
				Ranks:      clusterRanks,
				Policy:     pol,
				Interval:   units.Seconds(*interval),
				EdgeRetune: *edge,
				Seed:       *seed,
			}
			if plan != nil {
				cfg.Plan = plan
			} else {
				cfg.Cap = units.Watts(*cap)
			}
			cfg.Faults = fplan
			// Telemetry records only the final repetition: repetitions
			// are identical, and the earlier ones exist purely as a
			// profiling workload that should stay free of sink I/O.
			var rec *telemetry.Recorder
			var telFiles []*os.File
			if telemetryOn && r == *repeat-1 {
				rec = telemetry.New()
				openSink := func(path string) *os.File {
					f, err := os.Create(path)
					exitOn(err)
					telFiles = append(telFiles, f)
					return f
				}
				if *eventsPath != "" {
					if *rollup > 0 {
						rs, err := telemetry.NewRollupSink(openSink(*eventsPath), units.Seconds(*rollup))
						exitOn(err)
						rec.AddSink(rs)
					} else {
						rec.AddSink(telemetry.NewNDJSONSink(openSink(*eventsPath)))
					}
				}
				if *tracePath != "" {
					rec.AddSink(telemetry.NewChromeTraceSink(openSink(*tracePath)))
				}
				if *audit != "" {
					mem = telemetry.NewMemorySink()
					rec.AddSink(mem)
				}
				if *metricsPath != "" {
					rec.Metrics().StreamCSV(openSink(*metricsPath))
				}
			}
			// Host-side observability: a fresh collector per repetition
			// so phase timers and allocation deltas cover exactly one
			// run; -v prints the final repetition's summary below.
			if *verbose || srv != nil {
				host = obs.NewHost()
				cfg.Obs = host
			}
			if srv != nil {
				// Live publishing needs an event stream to pace it; an
				// otherwise sink-less run gets a recorder carrying only
				// the publisher.
				if rec == nil {
					rec = telemetry.New()
				}
				rec.AddSink(obs.NewPublisher(srv, pol.Name(), host, rec.Metrics(), 0))
			}
			if rec != nil {
				cfg.Telemetry = rec
			}
			// What New rejects is a flag value: the cap, the platform, a
			// fault plan scripting a rank the cluster does not have.
			s, err := sched.New(cfg)
			usageOn(err)
			res, err = s.Run(trace)
			exitOn(err)
			if rec != nil {
				exitOn(rec.Close())
				exitOn(rec.Err())
				exitOn(rec.Metrics().Err())
				for _, f := range telFiles {
					exitOn(f.Close())
				}
			}
		}
		results = append(results, res)
		if *verbose && host != nil {
			fmt.Printf("host %s: %s\n", res.Policy, host.Summary())
		}
		if *detail {
			fmt.Printf("== %s ==\n%s\n", res.Policy, res.JobTable())
		}
		if mem != nil {
			evs := mem.Events()
			if *audit == "all" {
				for _, j := range res.Jobs {
					exitOn(traceq.Why(os.Stdout, evs, j.ID))
					fmt.Println()
				}
			}
			if auditJob >= 0 {
				exitOn(traceq.Why(os.Stdout, evs, auditJob))
			} else { // "summary", and the tail of "all"
				exitOn(traceq.Summary(os.Stdout, evs))
			}
			fmt.Println()
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		exitOn(err)
		runtime.GC()
		exitOn(pprof.WriteHeapProfile(f))
		f.Close()
	}

	fmt.Print(sched.ComparisonTable(results))
	if plan != nil || (fplan != nil && len(fplan.Emergencies) > 0) {
		for _, r := range results {
			fmt.Printf("\nbudget windows — %s (cap utilisation %.1f%%):\n%s",
				r.Policy, r.CapUtilisation*100, r.WindowTable())
		}
	}
	if fplan != nil {
		fmt.Println()
		for _, r := range results {
			fmt.Printf("faults — %s: %d failures, %d repairs, %d kills, %d restarts, %d checkpoints, %d jobs lost, lost work %v, wasted energy %v, availability %.4f\n",
				r.Policy, r.Failures, r.Repairs, r.Kills, r.Restarts, r.Checkpoints, r.JobsLost,
				r.LostWork, r.WastedEnergy, r.Availability)
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		exitOn(err)
		buf = append(buf, '\n')
		if *jsonPath == "-" {
			_, err = os.Stdout.Write(buf)
		} else {
			err = os.WriteFile(*jsonPath, buf, 0o644)
		}
		exitOn(err)
	}

	violated := false
	for _, r := range results {
		if r.CapViolations > 0 {
			fmt.Printf("\nWARNING: %s exceeded the cap in %d of %d samples\n", r.Policy, r.CapViolations, r.Samples)
			violated = true
		}
	}
	lost := 0
	for _, r := range results {
		if r.JobsLost > 0 {
			fmt.Printf("\nWARNING: %s permanently lost %d of %d jobs to failures\n", r.Policy, r.JobsLost, len(r.Jobs))
			lost += r.JobsLost
		}
	}
	if violated || lost > 0 {
		// Distinct statuses — 3 for cap violations, 4 for jobs lost to
		// failures (violations take precedence) — alongside the usage (2)
		// and I/O (1) exits, so CI smoke jobs can assert the
		// zero-violation and all-jobs-complete guarantees on the status
		// alone. os.Exit skips the deferred profile flush, so stop it by
		// hand.
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if violated {
			os.Exit(3)
		}
		os.Exit(4)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usageOn is exitOn for an error a flag's value caused.
func usageOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
