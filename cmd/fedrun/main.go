// Command fedrun races federated budget-split and job-routing policies
// head to head on one synthetic trace: the same jobs, the same sites,
// the same global power budget — only the federation policy pair
// differs. Each run routes every job to a site through the ingest
// frontend, executes all site schedulers concurrently under the caps
// the split policy carved from the global budget, and merges the
// per-site accounting into one federated result (internal/fed).
//
// Sites are named platform specs: -sites "east=systemg:16;west=dori:16"
// builds two clusters from the machine presets (pool lists like
// systemg:32,dori:32 work per site too). Optional knobs attach per
// site by name: -carbon "east=0:420,2:120;west=0:120,2:420" gives each
// site a carbon-intensity signal in gCO₂eq/kWh (sampled step-wise, the
// capplan.FromSignal contract), and -local "west=0:2000" clamps a site
// under its own facility ceiling.
//
// The global budget is -budget "0:1800,2:1200,4:1800" (a capplan spec;
// a mid-trace squeeze in this example) or a constant -cap watts. The
// split policy divides every budget window across sites — static-share
// by weights, greedy-ee by live operating mix (re-negotiated at plan
// breakpoints through sim-time barriers), carbon-min away from
// carbon-dirty windows — with -lambda fixing the guaranteed fraction
// every site keeps regardless of policy. The route policy assigns jobs
// to sites: ee by quoted energy-efficiency with backlog spilling, jct
// by predicted completion, rr round-robin. -split all / -route all
// sweep every combination into one comparison table.
//
// Mirroring schedrun's conventions: -json dumps machine-readable
// results ("-" = stdout), -detail prints per-site and routing tables,
// and the exit status encodes the run's guarantees — 2 for usage
// errors, 1 for I/O, 3 when any site violated its cap in any
// combination, 4 when any job was permanently lost (violations take
// precedence) — so CI smoke jobs assert the federated zero-violation
// guarantee on the status alone.
//
// Observability follows the same single-run rule as schedrun: -events
// PREFIX (needs one -split and one -route) writes each site's decision
// stream to PREFIX-<site>.ndjson — every event stamped with its site,
// so `traceq merge` reassembles the federation's global timeline — plus
// the frontend's routing stream to PREFIX-route.ndjson. -status ADDR
// serves live per-site snapshots (JSON at /status.json, Prometheus text
// at /metrics) while the sites run.
//
// Usage:
//
//	fedrun -jobs 32 -sites "east=systemg:16;west=systemg:16"
//	       [-budget 0:1800,2:1200,4:1800 | -cap 1800]
//	       [-carbon "east=0:420,2:120;west=0:120,2:420"]
//	       [-local "west=0:2000"] [-split all] [-route all]
//	       [-lambda 0.5] [-batch S] [-spill S] [-policy ee-max]
//	       [-seed 1] [-detail] [-events PREFIX] [-status :8080]
//	       [-json out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/capplan"
	"repro/internal/fed"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() {
	jobs := flag.Int("jobs", 32, "number of jobs in the synthetic trace")
	sitesSpec := flag.String("sites", "east=systemg:16;west=systemg:16", `federation sites as name=platform pairs, e.g. "east=systemg:16;west=dori:16"`)
	capW := flag.Float64("cap", 1800, "constant global power budget in watts")
	budget := flag.String("budget", "", "time-varying global budget as start:watts windows, e.g. 0:1800,2:1200,4:1800 (excludes -cap)")
	carbon := flag.String("carbon", "", `per-site carbon signals as name=t:val,... pairs, e.g. "east=0:420,2:120;west=0:120,2:420" (gCO₂eq/kWh)`)
	local := flag.String("local", "", `per-site local cap ceilings as name=planspec pairs, e.g. "west=0:2000"`)
	split := flag.String("split", "all", "budget-split policy: static-share, greedy-ee, carbon-min, or all")
	route := flag.String("route", "all", "job-route policy: ee, jct, rr, or all")
	lambda := flag.Float64("lambda", 0, "guaranteed fraction λ of every window divided by static shares (0 = the 0.5 default)")
	batch := flag.Float64("batch", 0, "ingest batching period in seconds (0 routes at exact arrivals)")
	spill := flag.Float64("spill", 0, "backlog threshold in seconds for the ee route's spill rule (0 = the 1 s default, negative disables)")
	slack := flag.Float64("slack", 0, "eligibility slack: a site must quote within this factor of the fastest site (0 = the 1.3 default; raise it to route onto much slower platforms)")
	policy := flag.String("policy", "ee-max", "site scheduler policy: fifo, ee-max, fair-share, or backfill+<name>")
	seed := flag.Int64("seed", 1, "trace and simulation seed")
	detail := flag.Bool("detail", false, "print per-site and routing tables for every combination")
	jsonPath := flag.String("json", "", `write machine-readable results as JSON to this file ("-" = stdout)`)
	eventsPrefix := flag.String("events", "", "write per-site decision streams as NDJSON to PREFIX-<site>.ndjson plus the routing stream to PREFIX-route.ndjson (needs a single -split and -route)")
	statusAddr := flag.String("status", "", "serve live per-site run status over HTTP on this address (e.g. :8080): JSON at /status.json, Prometheus text at /metrics")
	flag.Parse()
	if *jobs < 0 {
		usage(fmt.Sprintf("-jobs %d must not be negative", *jobs))
	}

	plan, err := capplan.Steps(capplan.Segment{Cap: units.Watts(*capW)})
	if *budget != "" {
		capSet := false
		flag.Visit(func(f *flag.Flag) { capSet = capSet || f.Name == "cap" })
		if capSet {
			usage("-cap cannot combine with -budget; put the constant in the plan's first window instead")
		}
		plan, err = capplan.ParsePlan(*budget)
	}
	if err != nil {
		usage(err.Error())
	}

	sites := parseSites(*sitesSpec)
	attach(*carbon, "-carbon", sites, func(s *fed.Site, spec string) error {
		signal, err := parseSignal(spec)
		if err != nil {
			return err
		}
		s.Carbon = signal
		return nil
	})
	attach(*local, "-local", sites, func(s *fed.Site, spec string) error {
		p, err := capplan.ParsePlan(spec)
		if err != nil {
			return err
		}
		s.Local = p
		return nil
	})

	pol, err := sched.ParsePolicy(*policy)
	if err != nil {
		usage("-policy: " + err.Error())
	}

	splits := pickPolicies(*split, "-split", splitNames())
	routes := pickPolicies(*route, "-route", routeNames())

	// Per-site traces and live status label by site name; sweeping
	// several combinations would interleave streams under the same
	// labels, so both demand a single federated run.
	obsOn := *eventsPrefix != "" || *statusAddr != ""
	if obsOn && (len(splits) > 1 || len(routes) > 1) {
		usage("-events/-status record a single federated run; select one -split and one -route")
	}
	var srv *obs.StatusServer
	if *statusAddr != "" {
		s, err := obs.ListenStatus(*statusAddr)
		exitOn(err)
		srv = s
		defer srv.Close()
		fmt.Printf("status: http://%s (JSON at /status.json, Prometheus at /metrics)\n\n", srv.Addr())
	}

	// The default trace (jobs are moldable, so widths clamp to each
	// site's pools) keeps a 1-site fedrun on the same trace schedrun
	// generates — the byte-identity CI smoke relies on that.
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: *jobs, Seed: *seed})
	fmt.Printf("trace: %d jobs across %d sites under global budget %s (seed %d)\n\n",
		*jobs, len(sites), plan, *seed)

	var results []fed.Result
	for _, sp := range splits {
		for _, rt := range routes {
			cfg := fed.Config{
				Sites:         sites,
				Budget:        plan,
				Split:         fed.SplitPolicies()[sp](),
				Route:         fed.RoutePolicies()[rt](),
				GuaranteeFrac: *lambda,
				BatchEvery:    units.Seconds(*batch),
				SpillAfter:    units.Seconds(*spill),
				PerfSlack:     *slack,
				Policy:        pol,
				Seed:          *seed,
			}
			// One recorder and one obs.Host per site — sites run on
			// their own goroutines and must not share either. Hosts are
			// created lazily so SiteObs and SiteTelemetry agree on the
			// instance regardless of call order.
			var recs []*telemetry.Recorder
			var files []*os.File
			if obsOn {
				hosts := map[string]*obs.Host{}
				hostFor := func(site string) *obs.Host {
					if h, ok := hosts[site]; ok {
						return h
					}
					h := obs.NewHost()
					hosts[site] = h
					return h
				}
				if srv != nil {
					cfg.SiteObs = hostFor
				}
				cfg.SiteTelemetry = func(site string) *telemetry.Recorder {
					rec := telemetry.New()
					if *eventsPrefix != "" {
						f, err := os.Create(fmt.Sprintf("%s-%s.ndjson", *eventsPrefix, site))
						exitOn(err)
						files = append(files, f)
						rec.AddSink(telemetry.WithSite(site, telemetry.NewNDJSONSink(f)))
					}
					if srv != nil {
						rec.AddSink(obs.NewPublisher(srv, site, hostFor(site), rec.Metrics(), 0))
					}
					recs = append(recs, rec)
					return rec
				}
				if *eventsPrefix != "" {
					f, err := os.Create(*eventsPrefix + "-route.ndjson")
					exitOn(err)
					files = append(files, f)
					froute := telemetry.New(telemetry.NewNDJSONSink(f))
					cfg.Telemetry = froute
					recs = append(recs, froute)
				}
			}
			res, err := fed.Run(cfg, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, rec := range recs {
				exitOn(rec.Close())
				exitOn(rec.Err())
			}
			for _, f := range files {
				exitOn(f.Close())
			}
			results = append(results, res)
			if *detail {
				fmt.Printf("== %s × %s ==\n%s\nrouting:\n%s\n", res.Split, res.Route, res, res.RoutingTable())
			}
		}
	}

	fmt.Print(fed.ComparisonTable(results))

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

	violated, lost := false, false
	for _, r := range results {
		if r.CapViolations > 0 {
			fmt.Printf("\nWARNING: %s × %s exceeded a site cap in %d samples\n", r.Split, r.Route, r.CapViolations)
			violated = true
		}
		if r.JobsLost > 0 {
			fmt.Printf("\nWARNING: %s × %s permanently lost %d jobs to failures\n", r.Split, r.Route, r.JobsLost)
			lost = true
		}
	}
	// Same contract as schedrun: 3 for cap violations, 4 for lost jobs,
	// violations take precedence.
	if violated {
		os.Exit(3)
	}
	if lost {
		os.Exit(4)
	}
}

// parseSites builds the site list from "name=platform;..." pairs,
// preserving command-line order (site order is part of the federation's
// deterministic identity).
func parseSites(spec string) []fed.Site {
	var sites []fed.Site
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, pl, ok := strings.Cut(part, "=")
		if !ok {
			usage(fmt.Sprintf("-sites entry %q is not name=platform", part))
		}
		platform, err := machine.ParsePlatform(strings.TrimSpace(pl))
		if err != nil {
			usage(err.Error())
		}
		sites = append(sites, fed.Site{Name: strings.TrimSpace(name), Platform: platform})
	}
	if len(sites) == 0 {
		usage("-sites names no sites")
	}
	return sites
}

// attach applies a per-site "name=spec;..." flag to the named sites.
func attach(flagVal, flagName string, sites []fed.Site, set func(*fed.Site, string) error) {
	for _, part := range strings.Split(flagVal, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			usage(fmt.Sprintf("%s entry %q is not name=spec", flagName, part))
		}
		name = strings.TrimSpace(name)
		found := false
		for i := range sites {
			if sites[i].Name == name {
				if err := set(&sites[i], strings.TrimSpace(spec)); err != nil {
					usage(fmt.Sprintf("%s %s: %v", flagName, name, err))
				}
				found = true
				break
			}
		}
		if !found {
			usage(fmt.Sprintf("%s names unknown site %q", flagName, name))
		}
	}
}

// parseSignal parses a "t:value,..." sample list.
func parseSignal(spec string) ([]capplan.Sample, error) {
	var signal []capplan.Sample
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		tStr, vStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("sample %q is not t:value", part)
		}
		t, err0 := strconv.ParseFloat(strings.TrimSpace(tStr), 64)
		v, err1 := strconv.ParseFloat(strings.TrimSpace(vStr), 64)
		if err0 != nil || err1 != nil {
			return nil, fmt.Errorf("bad sample %q", part)
		}
		signal = append(signal, capplan.Sample{T: units.Seconds(t), Value: v})
	}
	return signal, capplan.ValidateSignal(signal)
}

// pickPolicies resolves a policy flag against a registry's names:
// a single name, or "all" for the whole registry with the baseline
// (static-share / ee) leading the sweep.
func pickPolicies(val, flagName string, names []string) []string {
	if val != "all" {
		for _, n := range names {
			if n == val {
				return []string{val}
			}
		}
		usage(fmt.Sprintf("%s %q: have %s, all", flagName, val, strings.Join(names, ", ")))
	}
	return names
}

func splitNames() []string {
	names := sortedKeys(fed.SplitPolicies())
	sort.SliceStable(names, func(a, b int) bool { return names[a] == "static-share" && names[b] != "static-share" })
	return names
}

func routeNames() []string {
	names := sortedKeys(fed.RoutePolicies())
	sort.SliceStable(names, func(a, b int) bool { return names[a] == "ee" && names[b] != "ee" })
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
