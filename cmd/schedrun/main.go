// Command schedrun races the power-budget scheduling policies head to
// head on one synthetic job trace: the same jobs, the same cluster, the
// same power cap — only the policy differs. The comparison table is the
// paper's "power-constrained parallel computation" at fleet scale: the
// iso-energy-efficiency-aware policies should complete the trace at
// least as fast as the FIFO baseline while spending less energy per job
// and never exceeding the cap.
//
// The flag groups shared with fedrun (trace, budget, -json, -status) and
// the exit contract are internal/cli's; DESIGN.md §14 describes them.
// What is schedrun's own:
//
//   - -cluster is a preset ("systemg") sized by -ranks, or pools with
//     node counts ("systemg:16", "systemg:32,dori:32") that size
//     themselves; -ranks may still size a single counted pool.
//   - -capplan and -faults (internal/capplan, internal/faults) take
//     each plan's one textual form: the spec the header prints back
//     ("under cap plan …", "faults: …"), so a header line reruns to the
//     identical schedule. A fault knob or pool half named twice is
//     last-wins, so an appended item overrides the plan's own. Timeline
//     runs print a per-window table.
//   - -backfill wraps every policy in EASY reservations (sched.Backfill);
//     -reserve K holds them for the first K blocked jobs and implies it.
//     A wrapped policy can be named directly: -policy backfill+ee-max.
//   - -events (NDJSON, or a -rollup CSV) and -metrics (CSV) record one
//     schedule's decision stream, so they need -policy NAME; with
//     -repeat N they record the final repetition only. Every other view
//     of the stream is a cmd/traceq fold over the NDJSON: traceq chrome
//     for a Perfetto trace, traceq why and traceq summary for the text.
//   - -repeat, -cpuprofile and -memprofile profile the scheduler hot
//     path without a test binary; the table reports the last repetition.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cli"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed, trace := cli.TraceFlags(fs, 64)
	budget := cli.BudgetFlags(fs, 2500, "cluster power cap in watts",
		"capplan", "time-varying cap plan as start:watts windows, e.g. 0:2500,3600:1500,7200:2500 (excludes -cap)")
	ranks := fs.Int("ranks", 64, "cluster size in ranks (ignored when -cluster lists explicit pool sizes)")
	clusterName := fs.String("cluster", "systemg", "platform: a preset (systemg, dori) or mixed pools like systemg:32,dori:32")
	faultSpec := fs.String("faults", "", "fault-injection plan spec, e.g. fail=3@10,mtbf=*:900,mttr=*:120,retries=2,ckpt=30")
	policy := fs.String("policy", "all", "policy to run: fifo, ee-max, fair-share, backfill+<name>, or all")
	backfill := fs.Bool("backfill", false, "wrap every selected policy in EASY backfill reservations")
	reserve := fs.Int("reserve", 1, "hold backfill reservations for the first K blocked jobs (K>1 implies -backfill)")
	interval := fs.Float64("interval", 0, "governor sampling interval in seconds (0 = the 25ms default; negative is rejected)")
	edge := fs.Bool("edge", false, "retune on admission/completion edges in addition to the sampling grid")
	detail := fs.Bool("detail", false, "print per-job tables")
	eventsPath := fs.String("events", "", "write the decision event stream as NDJSON to this file (needs -policy NAME)")
	metricsPath := fs.String("metrics", "", "write sim-time metrics as CSV to this file (needs -policy NAME)")
	jsonPath := cli.JSONFlag(fs)
	verbose := fs.Bool("v", false, "print a one-line host-side summary (wall time, events/s, opcache hit rate, allocations) after each policy run")
	rollup := fs.Float64("rollup", 0, "aggregate -events into sim-time buckets of this width in seconds: a bounded-memory CSV rollup instead of raw NDJSON")
	statusAddr := fs.String("status", "", "serve live run status over HTTP on this address (e.g. :8080 or 127.0.0.1:0): JSON at /status.json, Prometheus text at /metrics")
	repeat := fs.Int("repeat", 1, "run each policy's schedule N times (profiling workload)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the schedule runs to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the schedule runs to this file")
	given, err := cli.Parse(fs, args)
	if err != nil {
		return err
	}
	jobs, err := trace()
	if err != nil {
		return err
	}
	if *reserve < 1 {
		return cli.Usagef("-reserve %d must be at least 1", *reserve)
	}
	if *ranks < 1 {
		return cli.Usagef("-ranks %d must be at least 1", *ranks)
	}
	if *repeat < 1 {
		return cli.Usagef("-repeat %d must be at least 1", *repeat)
	}
	plan, timeline, err := budget.Plan(given)
	if err != nil {
		return err
	}

	var fplan *faults.Plan
	if *faultSpec != "" {
		if fplan, err = faults.ParsePlan(*faultSpec); err != nil {
			return cli.Usage(err)
		}
	}

	platform, err := machine.ParsePlatform(*clusterName)
	if err != nil {
		return cli.Usage(err)
	}
	// Pools with node counts define the cluster; -ranks, given, may
	// still take a prefix of a single pool. The -ranks default sizes a
	// bare preset, whose full node count is far larger than a useful
	// demo cluster. Truncating a mixed platform to a rank prefix would
	// silently strip the later pools, so -ranks and multi-pool are
	// mutually exclusive.
	clusterRanks := *ranks
	if len(platform.Pools) > 1 && given["ranks"] {
		return cli.Usagef("-ranks cannot resize a multi-pool platform; size each pool instead, e.g. -cluster systemg:32,dori:32")
	}
	if len(platform.Pools) > 1 || (platform.Pools[0].Nodes > 0 && !given["ranks"]) {
		clusterRanks = platform.TotalRanks()
	}

	var policies []sched.Policy
	if *policy == "all" {
		_, policies = cli.Sweep(sched.Policies(), "fifo")
	} else {
		p, err := sched.ParsePolicy(*policy)
		if err != nil {
			return cli.Usagef("-policy: %v, or all", err)
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
	telemetryOn := *eventsPath != "" || *metricsPath != ""
	if telemetryOn && len(policies) > 1 {
		return cli.Usagef("-events/-metrics record a single schedule; select one policy with -policy NAME")
	}
	if *rollup > 0 && *eventsPath == "" {
		return cli.Usagef("-rollup aggregates the -events stream; give it a destination with -events FILE")
	}

	if timeline {
		fmt.Fprintf(stdout, "trace: %d jobs on %s/%d ranks under cap plan %s (seed %d)\n",
			len(jobs), platform, clusterRanks, plan, *seed)
	} else {
		fmt.Fprintf(stdout, "trace: %d jobs on %s/%d ranks under a %.0f W cap (seed %d)\n",
			len(jobs), platform, clusterRanks, float64(plan.MinCap()), *seed)
	}
	if fplan != nil {
		fmt.Fprintf(stdout, "faults: %s\n", fplan)
	}
	fmt.Fprintln(stdout)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// The status server outlives individual runs: each policy run
	// publishes snapshots under its own label, and the final snapshot of
	// a finished run stays queryable while later policies execute.
	srv, err := cli.ListenStatus(*statusAddr, stdout)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}

	// once runs one repetition of one policy's schedule, leaving its
	// host-side observer in host. Telemetry records only the final
	// repetition (record): repetitions are identical, and the earlier
	// ones exist purely as a profiling workload that should stay free of
	// sink I/O.
	var host *obs.Host
	once := func(pol sched.Policy, record bool) (sched.Result, error) {
		host = nil
		cfg := sched.Config{
			Platform:   platform,
			Ranks:      clusterRanks,
			Faults:     fplan,
			Policy:     pol,
			Interval:   units.Seconds(*interval),
			EdgeRetune: *edge,
			Seed:       *seed,
		}
		// A Result reports budget windows for a Plan only, so a constant
		// stays a Cap.
		if timeline {
			cfg.Plan = plan
		} else {
			cfg.Cap = plan.MinCap()
		}
		var out cli.Outputs
		defer out.Close()
		if record {
			cfg.Telemetry = out.Recorder()
			if *eventsPath != "" && *rollup > 0 {
				rs, err := telemetry.NewRollupSink(out.Create(*eventsPath), units.Seconds(*rollup))
				if err != nil {
					return sched.Result{}, cli.Usage(err)
				}
				cfg.Telemetry.AddSink(rs)
			} else if *eventsPath != "" {
				cfg.Telemetry.AddSink(telemetry.NewNDJSONSink(out.Create(*eventsPath)))
			}
			if *metricsPath != "" {
				cfg.Telemetry.Metrics().StreamCSV(out.Create(*metricsPath))
			}
			if err := out.Err(); err != nil {
				return sched.Result{}, err
			}
		}
		// Host-side observability: a fresh collector per repetition so
		// phase timers and allocation deltas cover exactly one run.
		if *verbose || srv != nil {
			host = obs.NewHost()
			cfg.Obs = host
		}
		if srv != nil {
			// Live publishing needs an event stream to pace it; an
			// otherwise sink-less run gets a recorder carrying only the
			// publisher.
			if cfg.Telemetry == nil {
				cfg.Telemetry = out.Recorder()
			}
			cfg.Telemetry.AddSink(obs.NewPublisher(srv, pol.Name(), host, cfg.Telemetry.Metrics()))
		}
		// What New rejects is a flag value: the cap, the platform, a
		// fault plan scripting a rank the cluster does not have.
		s, err := sched.New(cfg)
		if err != nil {
			return sched.Result{}, cli.Usage(err)
		}
		res, err := s.Run(jobs)
		if err != nil {
			return sched.Result{}, err
		}
		return res, out.Close()
	}

	var results []sched.Result
	for _, pol := range policies {
		var res sched.Result
		for r := *repeat; r > 0; r-- {
			if res, err = once(pol, telemetryOn && r == 1); err != nil {
				return err
			}
		}
		results = append(results, res)
		if *verbose {
			fmt.Fprintf(stdout, "host %s: %s\n", res.Policy, host.Summary())
		}
		if *detail {
			fmt.Fprintf(stdout, "== %s ==\n%s\n", res.Policy, res.JobTable())
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	fmt.Fprint(stdout, sched.ComparisonTable(results))
	if timeline || (fplan != nil && len(fplan.Emergencies) > 0) {
		for _, r := range results {
			fmt.Fprintf(stdout, "\nbudget windows — %s (cap utilisation %.1f%%):\n%s",
				r.Policy, r.CapUtilisation*100, r.WindowTable())
		}
	}
	if fplan != nil {
		fmt.Fprintln(stdout)
		for _, r := range results {
			fmt.Fprintf(stdout, "faults — %s: %d failures, %d repairs, %d kills, %d restarts, %d checkpoints, %d jobs lost, lost work %v, wasted energy %v, availability %.4f\n",
				r.Policy, r.Failures, r.Repairs, r.Kills, r.Restarts, r.Checkpoints, r.JobsLost,
				r.LostWork, r.WastedEnergy, r.Availability)
		}
	}
	if err := cli.WriteJSON(*jsonPath, stdout, results); err != nil {
		return err
	}

	violated, lost := false, false
	for _, r := range results {
		if r.CapViolations > 0 {
			fmt.Fprintf(stdout, "\nWARNING: %s exceeded the cap in %d of %d samples\n", r.Policy, r.CapViolations, r.Samples)
			violated = true
		}
	}
	for _, r := range results {
		if r.JobsLost > 0 {
			fmt.Fprintf(stdout, "\nWARNING: %s permanently lost %d of %d jobs to failures\n", r.Policy, r.JobsLost, len(r.Jobs))
			lost = true
		}
	}
	return cli.Verdict(violated, lost)
}
