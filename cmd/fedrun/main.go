// Command fedrun races federated budget-split and job-routing policies
// head to head on one synthetic trace: the same jobs, the same sites,
// the same global power budget — only the federation policy pair
// differs. Each run routes every job to a site through the ingest
// frontend, executes all site schedulers concurrently under the caps
// the split policy carved from the global budget, and merges the
// per-site accounting into one federated result (internal/fed).
//
// The flag groups shared with schedrun (trace, budget, -json, -status)
// and the exit contract are internal/cli's; DESIGN.md §14 describes
// them. What is fedrun's own:
//
//   - -sites, -carbon and -local are fed.ParseSites' three "name=spec;…"
//     lists: platforms ("east=systemg:16;west=dori:16"), carbon-intensity
//     signals in gCO₂eq/kWh ("east=0:420,2:120") and site-local cap
//     ceilings ("west=0:2000").
//   - -split (static-share, greedy-ee, carbon-min) divides every budget
//     window across sites, -lambda fixing the fraction every site keeps
//     regardless; -route (ee, jct, rr) assigns jobs to sites. "all" on
//     either sweeps the registry into one comparison table.
//   - -events PREFIX writes each site's decision stream to
//     PREFIX-<site>.ndjson, every event stamped with its site so `traceq
//     merge` reassembles the global timeline, plus the frontend's
//     routing stream to PREFIX-route.ndjson. It and -status label by
//     site name, so both need one -split and one -route.
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/fed"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fedrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed, trace := cli.TraceFlags(fs, 32)
	budget := cli.BudgetFlags(fs, 1800, "constant global power budget in watts",
		"budget", "time-varying global budget as start:watts windows, e.g. 0:1800,2:1200,4:1800 (excludes -cap)")
	sitesSpec := fs.String("sites", "east=systemg:16;west=systemg:16", `federation sites as name=platform pairs, e.g. "east=systemg:16;west=dori:16"`)
	carbon := fs.String("carbon", "", `per-site carbon signals as name=t:val,... pairs, e.g. "east=0:420,2:120;west=0:120,2:420" (gCO₂eq/kWh)`)
	local := fs.String("local", "", `per-site local cap ceilings as name=planspec pairs, e.g. "west=0:2000"`)
	split := fs.String("split", "all", "budget-split policy: static-share, greedy-ee, carbon-min, or all")
	route := fs.String("route", "all", "job-route policy: ee, jct, rr, or all")
	lambda := fs.Float64("lambda", 0, "guaranteed fraction λ of every window divided by static shares (0 = the 0.5 default)")
	policy := fs.String("policy", "ee-max", "site scheduler policy: fifo, ee-max, fair-share, backfill+<name>, or backfillK+<name> (K ≥ 2 reservations)")
	detail := fs.Bool("detail", false, "print per-site and routing tables for every combination")
	jsonPath := cli.JSONFlag(fs)
	eventsPrefix := fs.String("events", "", "write per-site decision streams as NDJSON to PREFIX-<site>.ndjson plus the routing stream to PREFIX-route.ndjson (needs a single -split and -route)")
	statusAddr := fs.String("status", "", "serve live per-site run status over HTTP on this address (e.g. :8080): JSON at /status.json, Prometheus text at /metrics")
	given, err := cli.Parse(fs, args)
	if err != nil {
		return err
	}
	jobs, err := trace()
	if err != nil {
		return err
	}
	plan, _, err := budget.Plan(given)
	if err != nil {
		return err
	}
	sites, err := fed.ParseSites(*sitesSpec, *carbon, *local)
	if err != nil {
		return cli.Usage(err)
	}
	pol, err := sched.ParsePolicy(*policy)
	if err != nil {
		return cli.Usagef("-policy: %v", err)
	}
	splits, err := cli.Select("split", *split, fed.SplitPolicies(), "static-share")
	if err != nil {
		return err
	}
	routes, err := cli.Select("route", *route, fed.RoutePolicies(), "ee")
	if err != nil {
		return err
	}
	// Per-site traces and live status label by site name; sweeping
	// several combinations would interleave streams under the same
	// labels, so both demand a single federated run.
	obsOn := *eventsPrefix != "" || *statusAddr != ""
	if obsOn && len(splits)*len(routes) > 1 {
		return cli.Usagef("-events/-status record a single federated run; select one -split and one -route")
	}
	srv, err := cli.ListenStatus(*statusAddr, stdout)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}
	fmt.Fprintf(stdout, "trace: %d jobs across %d sites under global budget %s (seed %d)\n\n",
		len(jobs), len(sites), plan, *seed)

	// once runs one split × route combination.
	once := func(sp fed.SplitPolicy, rt fed.RoutePolicy) (fed.Result, error) {
		cfg := fed.Config{
			Sites:         sites,
			Budget:        plan,
			Split:         sp,
			Route:         rt,
			GuaranteeFrac: *lambda,
			Policy:        pol,
			Seed:          *seed,
		}
		var out cli.Outputs
		defer out.Close()
		if obsOn {
			// One recorder and one obs.Host per site — sites run on their
			// own goroutines and must not share either. Hosts are created
			// lazily so SiteObs and SiteTelemetry agree on the instance
			// regardless of call order.
			hosts := map[string]*obs.Host{}
			hostFor := func(site string) *obs.Host {
				if hosts[site] == nil {
					hosts[site] = obs.NewHost()
				}
				return hosts[site]
			}
			if srv != nil {
				cfg.SiteObs = hostFor
			}
			cfg.SiteTelemetry = func(site string) *telemetry.Recorder {
				rec := out.Recorder()
				if *eventsPrefix != "" {
					f := out.Create(fmt.Sprintf("%s-%s.ndjson", *eventsPrefix, site))
					rec.AddSink(telemetry.WithSite(site, telemetry.NewNDJSONSink(f)))
				}
				if srv != nil {
					rec.AddSink(obs.NewPublisher(srv, site, hostFor(site), rec.Metrics()))
				}
				return rec
			}
			if *eventsPrefix != "" {
				cfg.Telemetry = out.Recorder(telemetry.NewNDJSONSink(out.Create(*eventsPrefix + "-route.ndjson")))
			}
		}
		// What New rejects is a flag value: a share below a site's idle
		// floor, a duplicate site name, a λ outside (0, 1].
		f, err := fed.New(cfg)
		if err != nil {
			return fed.Result{}, cli.Usage(err)
		}
		if err := out.Err(); err != nil {
			return fed.Result{}, err
		}
		res, err := f.Run(jobs)
		if err != nil {
			return fed.Result{}, err
		}
		return res, out.Close()
	}

	var results []fed.Result
	for _, sp := range splits {
		for _, rt := range routes {
			// Route policies carry per-run state: a fresh pair per run.
			res, err := once(sp(), rt())
			if err != nil {
				return err
			}
			results = append(results, res)
			if *detail {
				fmt.Fprintf(stdout, "== %s × %s ==\n%s\nrouting:\n%s\n", res.Split, res.Route, res, res.RoutingTable())
			}
		}
	}

	fmt.Fprint(stdout, fed.ComparisonTable(results))
	if err := cli.WriteJSON(*jsonPath, stdout, results); err != nil {
		return err
	}
	violated, lost := false, false
	for _, r := range results {
		if r.CapViolations > 0 {
			fmt.Fprintf(stdout, "\nWARNING: %s × %s exceeded a site cap in %d samples\n", r.Split, r.Route, r.CapViolations)
			violated = true
		}
		if r.JobsLost > 0 {
			fmt.Fprintf(stdout, "\nWARNING: %s × %s permanently lost %d jobs to failures\n", r.Split, r.Route, r.JobsLost)
			lost = true
		}
	}
	return cli.Verdict(violated, lost)
}
