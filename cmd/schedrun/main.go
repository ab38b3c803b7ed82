// Command schedrun races the power-budget scheduling policies head to
// head on one synthetic job trace: the same jobs, the same cluster, the
// same power cap — only the policy differs. The comparison table is the
// paper's "power-constrained parallel computation" at fleet scale: the
// iso-energy-efficiency-aware policies should complete the trace at
// least as fast as the FIFO baseline while spending less energy per job
// and never exceeding the cap. With -sites the trace runs on a
// federation (internal/fed): jobs are routed to sites whose schedulers
// run concurrently, in lockstep epochs between budget breakpoints,
// under caps a split policy carves from the global budget, and the
// table races split × route pairs under one -policy.
//
// The flag groups and the exit contract are internal/cli's; DESIGN.md
// §14 describes them. Each mode refuses the flags only the other reads.
//
//   - -cluster is a preset ("systemg") sized by -ranks, or pools with
//     node counts ("systemg:16", "systemg:32,dori:32") that size
//     themselves; -ranks may still size a single counted pool.
//   - -capplan and -faults take each plan's one textual form, the spec
//     the header prints back, so a header line reruns to the identical
//     schedule; a fault knob named twice is last-wins. Under -sites,
//     -capplan is the global budget and every site gets -faults.
//   - -policy takes a name as the table prints it (backfill2+ee-max:
//     sched.BackfillN); "all" sweeps the shipped policies, and a wrapper
//     prefix applies to the sweep: backfill+all.
//   - -sites, -carbon and -local are fed.ParseSites' "name=spec;…"
//     lists. -split divides every budget window across sites, -lambda
//     fixing the share every site keeps; -route assigns jobs to sites.
//     "all" on either sweeps the registry.
//   - -events (NDJSON, or a -rollup CSV) and -metrics (CSV) record one
//     schedule's decision stream, the final -repeat's, so they need
//     -policy NAME; every other view is a cmd/traceq fold. Under -sites,
//     -events PREFIX writes site-stamped PREFIX-<site>.ndjson files for
//     `traceq merge` and PREFIX-route.ndjson; it and -status label by
//     site, so they need one -split and one -route.
//   - -repeat, -cpuprofile and -memprofile profile the scheduler hot
//     path without a test binary; the table reports the last repetition.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cli"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() { cli.Main(run) }

// refused lists, by whether -sites is given, the flags that mode does
// not read: the federation's without it, and under it those that shape
// one cluster's scheduler.
var refused = map[bool]struct {
	flags []string
	why   string
}{
	false: {[]string{"split", "route", "carbon", "local", "lambda"}, "configures a federation; it needs -sites"},
	true:  {[]string{"cluster", "ranks", "interval", "edge", "metrics", "rollup"}, "configures one cluster's scheduler; a -sites run takes its platforms from -sites"},
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed, trace := cli.TraceFlags(fs)
	budget := cli.BudgetFlags(fs)
	ranks := fs.Int("ranks", 64, "cluster size in ranks (ignored when -cluster lists explicit pool sizes)")
	clusterName := fs.String("cluster", "systemg", "platform: a preset (systemg, dori) or mixed pools like systemg:32,dori:32")
	faultSpec := fs.String("faults", "", "fault-injection plan spec, e.g. fail=3@10,mtbf=*:900,mttr=*:120,retries=2,ckpt=30")
	policy := fs.String("policy", "all", "policy to run: fifo, ee-max, fair-share, backfill+<name>, backfillK+<name> (K ≥ 2 reservations), or all")
	interval := fs.Float64("interval", 0, "governor sampling interval in seconds (0 = the 25ms default; negative is rejected)")
	edge := fs.Bool("edge", false, "retune on admission/completion edges in addition to the sampling grid")
	detail := fs.Bool("detail", false, "print per-job tables, or under -sites per-site and routing tables")
	eventsPath := fs.String("events", "", "write the decision event stream as NDJSON to this file (needs -policy NAME); under -sites, per-site streams to PREFIX-<site>.ndjson plus the routing stream to PREFIX-route.ndjson (needs a single -split and -route)")
	metricsPath := fs.String("metrics", "", "write sim-time metrics as CSV to this file (needs -policy NAME)")
	jsonPath := fs.String("json", "", `write machine-readable results as JSON to this file ("-" = stdout)`)
	verbose := fs.Bool("v", false, "print a one-line host-side summary (wall time, events/s, opcache evaluations, allocations) after each policy run, or per site under -sites")
	rollup := fs.Float64("rollup", 0, "aggregate -events into sim-time buckets of this width in seconds: a bounded-memory CSV rollup instead of raw NDJSON")
	statusAddr := fs.String("status", "", "serve live run status over HTTP on this address (e.g. :8080 or 127.0.0.1:0): JSON at /status.json, Prometheus text at /metrics")
	repeat := fs.Int("repeat", 1, "run each policy's schedule N times (profiling workload)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the schedule runs to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the schedule runs to this file")
	sitesSpec := fs.String("sites", "", `federation sites as name=platform pairs, e.g. "east=systemg:16;west=dori:16"`)
	carbon := fs.String("carbon", "", `per-site carbon signals as name=t:val,... pairs, e.g. "east=0:420,2:120;west=0:120,2:420" (gCO₂eq/kWh)`)
	local := fs.String("local", "", `per-site local cap ceilings as name=planspec pairs, e.g. "west=0:2000"`)
	split := fs.String("split", "all", "budget-split policy: static-share, greedy-ee, carbon-min, or all")
	route := fs.String("route", "all", "job-route policy: ee, jct, rr, or all")
	lambda := fs.Float64("lambda", 0, "guaranteed fraction λ of every window divided by static shares (0 = the 0.5 default)")
	given, err := cli.Parse(fs, args)
	if err != nil {
		return err
	}
	federated := given["sites"]
	for _, name := range refused[federated].flags {
		if given[name] {
			return cli.Usagef("-%s %s", name, refused[federated].why)
		}
	}
	jobs, err := trace()
	if err != nil {
		return err
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

	// "all", bare or after a wrapper prefix, sweeps the shipped policies.
	names := []string{*policy}
	if i := strings.LastIndex(*policy, "+") + 1; (*policy)[i:] == "all" {
		names, _ = cli.Sweep(sched.Policies(), "fifo")
		for k := range names {
			names[k] = (*policy)[:i] + names[k]
		}
	}
	var policies []sched.Policy
	for _, name := range names {
		p, err := sched.ParsePolicy(name)
		if err != nil {
			return cli.Usagef("-policy: %v, or all", err)
		}
		policies = append(policies, p)
	}

	var (
		platform     machine.Platform
		clusterRanks = *ranks
		sites        []fed.Site
		splits       []func() fed.SplitPolicy
		routes       []func() fed.RoutePolicy
	)
	if federated {
		if sites, err = fed.ParseSites(*sitesSpec, *carbon, *local); err != nil {
			return cli.Usage(err)
		}
		for i := range sites {
			sites[i].Faults = fplan
		}
		if len(policies) > 1 {
			return cli.Usagef("-sites runs one site policy; select it with -policy NAME")
		}
		if splits, err = cli.Select("split", *split, fed.SplitPolicies(), "static-share"); err != nil {
			return err
		}
		if routes, err = cli.Select("route", *route, fed.RoutePolicies(), "ee"); err != nil {
			return err
		}
		// Per-site streams and live status label by site name, which a
		// sweep would repeat, so both demand a single federated run.
		if (*eventsPath != "" || *statusAddr != "") && len(splits)*len(routes) > 1 {
			return cli.Usagef("-events/-status record a single federated run; select one -split and one -route")
		}
	} else {
		if platform, err = machine.ParsePlatform(*clusterName); err != nil {
			return cli.Usage(err)
		}
		// Pools with node counts size the cluster; -ranks, given, may take
		// a prefix of a single pool, and its default sizes a bare preset
		// (whose full node count is far larger than a demo cluster). A
		// rank prefix of a mixed platform would strip its later pools.
		if len(platform.Pools) > 1 && given["ranks"] {
			return cli.Usagef("-ranks cannot resize a multi-pool platform; size each pool instead, e.g. -cluster systemg:32,dori:32")
		}
		if len(platform.Pools) > 1 || (platform.Pools[0].Nodes > 0 && !given["ranks"]) {
			clusterRanks = platform.TotalRanks()
		}
		// The telemetry flags record one schedule's decision stream; an
		// interleaving of several independent schedules would attribute
		// events to the wrong run, so they demand a single named policy.
		if (*eventsPath != "" || *metricsPath != "") && len(policies) > 1 {
			return cli.Usagef("-events/-metrics record a single schedule; select one policy with -policy NAME")
		}
		if *rollup > 0 && *eventsPath == "" {
			return cli.Usagef("-rollup aggregates the -events stream; give it a destination with -events FILE")
		}
	}

	// The status server outlives runs: each publishes under its policy or
	// site, and a finished run stays queryable while later ones execute.
	srv, err := cli.ListenStatus(*statusAddr, stdout)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}
	switch {
	case federated:
		fmt.Fprintf(stdout, "trace: %d jobs across %d sites under global budget %s (seed %d)\n",
			len(jobs), len(sites), plan, *seed)
	case timeline:
		fmt.Fprintf(stdout, "trace: %d jobs on %s/%d ranks under cap plan %s (seed %d)\n",
			len(jobs), platform, clusterRanks, plan, *seed)
	default:
		fmt.Fprintf(stdout, "trace: %d jobs on %s/%d ranks under a %.0f W cap (seed %d)\n",
			len(jobs), platform, clusterRanks, float64(plan.MinCap()), *seed)
	}
	if fplan != nil {
		fmt.Fprintf(stdout, "faults: %s\n", fplan)
	}
	fmt.Fprintln(stdout)

	// once runs combination i (a policy, or a split × route pair) once,
	// recording -events and -metrics only if record: earlier repetitions
	// are a profiling workload that stays free of sink I/O. Host-side
	// observers are fresh per run and per site (sites run concurrently).
	hosts := map[string]*obs.Host{}
	once := func(i int, record bool) (sched.Result, error) {
		pol := policies[i]
		record = record && (*eventsPath != "" || *metricsPath != "")
		cfg := sched.Config{Platform: platform, Ranks: clusterRanks, Faults: fplan, Policy: pol,
			Interval: units.Seconds(*interval), EdgeRetune: *edge, Seed: *seed}
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
		if *verbose || srv != nil {
			hosts[pol.Name()] = obs.NewHost()
			cfg.Obs = hosts[pol.Name()]
		}
		if srv != nil {
			// Live publishing needs an event stream to pace it; an
			// otherwise sink-less run gets a recorder carrying only the
			// publisher.
			if cfg.Telemetry == nil {
				cfg.Telemetry = out.Recorder()
			}
			cfg.Telemetry.AddSink(obs.NewPublisher(srv, pol.Name(), cfg.Obs, cfg.Telemetry.Metrics()))
		}
		// What New rejects is a flag value: the cap, the platform, a
		// fault plan scripting a rank the cluster does not have.
		s, err := sched.New(cfg)
		if err != nil {
			return sched.Result{}, cli.Usage(err)
		}
		res, err := s.Run(jobs)
		return res, cmp.Or(err, out.Close())
	}
	onceFed := func(i int, record bool) (fed.Result, error) {
		// Route policies carry per-run state: a fresh pair per run.
		cfg := fed.Config{Sites: sites, Budget: plan, Split: splits[i/len(routes)](), Route: routes[i%len(routes)](),
			GuaranteeFrac: *lambda, Policy: policies[0], Seed: *seed,
			SiteObs: func(site string) *obs.Host { return hosts[site] }}
		var out cli.Outputs
		defer out.Close()
		if *verbose || srv != nil {
			for _, s := range sites {
				hosts[s.Name] = obs.NewHost()
			}
		}
		events := record && *eventsPath != ""
		if events || srv != nil {
			cfg.SiteTelemetry = func(site string) *telemetry.Recorder {
				rec := out.Recorder()
				if events {
					rec.AddSink(telemetry.WithSite(site, telemetry.NewNDJSONSink(out.Create(*eventsPath+"-"+site+".ndjson"))))
				}
				if srv != nil {
					rec.AddSink(obs.NewPublisher(srv, site, hosts[site], rec.Metrics()))
				}
				return rec
			}
		}
		if events {
			cfg.Telemetry = out.Recorder(telemetry.NewNDJSONSink(out.Create(*eventsPath + "-route.ndjson")))
		}
		// What New rejects is a flag value: a share below a site's idle
		// floor, a duplicate site name, a λ outside (0, 1], a fault plan
		// scripting a rank a site does not have.
		f, err := fed.New(cfg)
		if err != nil {
			return fed.Result{}, cli.Usage(err)
		}
		if err := out.Err(); err != nil {
			return fed.Result{}, err
		}
		res, err := f.Run(jobs)
		return res, cmp.Or(err, out.Close())
	}

	// Warnings follow the -json dump.
	violated, lost := false, false
	if federated {
		fres, err := runAll(*cpuprofile, *memprofile, len(splits)*len(routes), *repeat, onceFed, func(res fed.Result) {
			for _, s := range sites {
				if *verbose {
					fmt.Fprintf(stdout, "host %s×%s/%s: %s\n", res.Split, res.Route, s.Name, hosts[s.Name].Summary())
				}
			}
			if *detail {
				fmt.Fprintf(stdout, "== %s × %s ==\n%s\nrouting:\n%s\n", res.Split, res.Route, res, res.RoutingTable())
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, fed.ComparisonTable(fres))
		if err := cli.WriteJSON(*jsonPath, stdout, fres); err != nil {
			return err
		}
		for _, r := range fres {
			if r.CapViolations > 0 {
				fmt.Fprintf(stdout, "\nWARNING: %s × %s exceeded a site cap in %d samples\n", r.Split, r.Route, r.CapViolations)
				violated = true
			}
			if r.JobsLost > 0 {
				fmt.Fprintf(stdout, "\nWARNING: %s × %s permanently lost %d jobs to failures\n", r.Split, r.Route, r.JobsLost)
				lost = true
			}
		}
	} else {
		sres, err := runAll(*cpuprofile, *memprofile, len(policies), *repeat, once, func(res sched.Result) {
			if *verbose {
				fmt.Fprintf(stdout, "host %s: %s\n", res.Policy, hosts[res.Policy].Summary())
			}
			if *detail {
				fmt.Fprintf(stdout, "== %s ==\n%s\n", res.Policy, res.JobTable())
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, sched.ComparisonTable(sres))
		if timeline {
			for _, r := range sres {
				fmt.Fprintf(stdout, "\nbudget windows — %s (cap utilisation %.1f%%):\n%s",
					r.Policy, r.CapUtilisation*100, r.WindowTable())
			}
		}
		if fplan != nil {
			fmt.Fprintln(stdout)
			for _, r := range sres {
				fmt.Fprintf(stdout, "faults — %s: %d failures, %d repairs, %d kills, %d restarts, %d checkpoints, %d jobs lost, lost work %v, wasted energy %v, availability %.4f\n",
					r.Policy, r.Failures, r.Repairs, r.Kills, r.Restarts, r.Checkpoints, r.JobsLost,
					r.LostWork, r.WastedEnergy, r.Availability)
			}
		}
		if err := cli.WriteJSON(*jsonPath, stdout, sres); err != nil {
			return err
		}
		for _, r := range sres {
			if r.CapViolations > 0 {
				fmt.Fprintf(stdout, "\nWARNING: %s exceeded the cap in %d of %d samples\n", r.Policy, r.CapViolations, r.Samples)
				violated = true
			}
		}
		for _, r := range sres {
			if r.JobsLost > 0 {
				fmt.Fprintf(stdout, "\nWARNING: %s permanently lost %d of %d jobs to failures\n", r.Policy, r.JobsLost, len(r.Jobs))
				lost = true
			}
		}
	}
	return cli.Verdict(violated, lost)
}

// runAll runs each of n combinations -repeat times under -cpuprofile,
// recording and handing done only the last repetition, then writes the
// -memprofile heap profile.
func runAll[R any](cpu, mem string, n, repeat int, once func(i int, record bool) (R, error), done func(R)) (results []R, err error) {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	for i := range n {
		var res R
		for r := repeat; r > 0; r-- {
			if res, err = once(i, r == 1); err != nil {
				return nil, err
			}
		}
		done(res)
		results = append(results, res)
	}
	if mem == "" {
		return results, nil
	}
	f, err := os.Create(mem)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runtime.GC()
	return results, pprof.WriteHeapProfile(f)
}
