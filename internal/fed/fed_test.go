package fed

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/capplan"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func mustPlan(t *testing.T, spec string) *capplan.Plan {
	t.Helper()
	p, err := capplan.ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}

func mustPlatform(t *testing.T, spec string) machine.Platform {
	t.Helper()
	pl, err := machine.ParsePlatform(spec)
	if err != nil {
		t.Fatalf("ParsePlatform(%q): %v", spec, err)
	}
	return pl
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestSingleSiteIdentity pins the degenerate-federation contract: a
// 1-site federation is byte-identical to the bare scheduler run under
// the global budget directly, for every split policy (with one site
// every division hands the whole budget to it).
func TestSingleSiteIdentity(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 16})
	bare, err := sched.New(sched.Config{
		Platform: mustPlatform(t, "systemg:16"),
		Plan:     mustPlan(t, "0:900,1:650,2.2:900"),
		Seed:     42,
	})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	want, err := bare.Run(trace)
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}
	wantJSON := mustJSON(t, want)

	for name, mk := range SplitPolicies() {
		res, err := Run(Config{
			Sites:  []Site{{Name: "solo", Platform: mustPlatform(t, "systemg:16")}},
			Budget: mustPlan(t, "0:900,1:650,2.2:900"),
			Split:  mk(),
			Seed:   42,
		}, trace)
		if err != nil {
			t.Fatalf("split %s: %v", name, err)
		}
		if len(res.Sites) != 1 {
			t.Fatalf("split %s: %d sites", name, len(res.Sites))
		}
		got := mustJSON(t, res.Sites[0].Result)
		if string(got) != string(wantJSON) {
			t.Errorf("split %s: 1-site federation diverged from bare scheduler\nfed:  %s\nbare: %s", name, got, wantJSON)
		}
		if res.Sites[0].Result.String() != want.String() {
			t.Errorf("split %s: String() diverged", name)
		}
		if res.Completed != want.Completed || res.Rejected != want.Rejected ||
			res.Makespan != want.Makespan || res.TotalEnergy != want.TotalEnergy {
			t.Errorf("split %s: merged aggregates diverged from bare result", name)
		}
	}
}

// twoSiteConfig is the shared 2-site squeeze fixture: a mixed-platform
// federation with opposite-phase carbon signals and a mid-trace global
// budget squeeze.
func twoSiteConfig(t *testing.T, split SplitPolicy, route RoutePolicy) Config {
	t.Helper()
	return Config{
		Sites: []Site{
			{
				Name:     "east",
				Platform: mustPlatform(t, "systemg:16"),
				Carbon:   []capplan.Sample{{T: 0, Value: 300}, {T: 1.5, Value: 100}},
			},
			{
				Name:     "west",
				Platform: mustPlatform(t, "dori:8"),
				Carbon:   []capplan.Sample{{T: 0, Value: 100}, {T: 1.5, Value: 300}},
				Local:    capplan.Constant(2000),
			},
		},
		Budget:        mustPlan(t, "0:1800,1:1500,2.2:1800"),
		Split:         split,
		Route:         route,
		GuaranteeFrac: 0.6,
		Seed:          7,
	}
}

// TestDeterminism pins the bit-identity contract: the same
// (seed, sites, plans, jobs) produces the same merged result across
// repeated runs and across GOMAXPROCS values, including on the dynamic
// (barrier re-negotiation) path.
func TestDeterminism(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 3, MaxWidth: 16})
	run := func() []byte {
		res, err := Run(twoSiteConfig(t, GreedyEE(), RouteEE()), trace)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return mustJSON(t, res)
	}
	want := run()
	for i := 0; i < 2; i++ {
		if got := run(); string(got) != string(want) {
			t.Fatalf("repeat %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	if got := run(); string(got) != string(want) {
		t.Fatalf("GOMAXPROCS=1 diverged")
	}
	runtime.GOMAXPROCS(4)
	if got := run(); string(got) != string(want) {
		t.Fatalf("GOMAXPROCS=4 diverged")
	}
}

// TestSqueezeMatrix runs every split × route combination through the
// mid-trace global squeeze and requires the hard invariants everywhere:
// zero cap violations at every site, zero lost jobs, every job in a
// terminal state, and Σ site caps within the global budget at every
// grid cut.
func TestSqueezeMatrix(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 5, MaxWidth: 16})
	for splitName, mkSplit := range SplitPolicies() {
		for routeName, mkRoute := range RoutePolicies() {
			name := splitName + "/" + routeName
			t.Run(name, func(t *testing.T) {
				cfg := twoSiteConfig(t, mkSplit(), mkRoute())
				res, err := Run(cfg, trace)
				if err != nil {
					t.Fatalf("%v", err)
				}
				if res.CapViolations != 0 {
					t.Errorf("%d cap violations", res.CapViolations)
				}
				if res.JobsLost != 0 {
					t.Errorf("%d jobs lost", res.JobsLost)
				}
				if res.Completed+res.Rejected != len(trace) {
					t.Errorf("completed %d + rejected %d ≠ %d jobs", res.Completed, res.Rejected, len(trace))
				}
				var routed int
				for _, s := range res.Sites {
					routed += s.Jobs
					if s.Result.CapViolations != 0 {
						t.Errorf("site %s: %d violations", s.Site, s.Result.CapViolations)
					}
				}
				if routed != len(trace) || len(res.Routing) != len(trace) {
					t.Errorf("routing table covers %d/%d decisions, %d jobs placed", len(res.Routing), len(trace), routed)
				}
				checkBudgetConservation(t, cfg, res)
			})
		}
	}
}

// checkBudgetConservation re-parses each site's final cap timeline from
// the result and checks Σ site caps ≤ global budget at every site-plan
// breakpoint (up to float rounding of the share arithmetic).
func checkBudgetConservation(t *testing.T, cfg Config, res Result) {
	t.Helper()
	plans := make([]*capplan.Plan, len(res.Sites))
	cutset := map[units.Seconds]bool{0: true}
	for i, s := range res.Sites {
		if s.Result.Plan == "" {
			t.Fatalf("site %s reports no plan", s.Site)
		}
		p, err := capplan.ParsePlan(s.Result.Plan)
		if err != nil {
			t.Fatalf("site %s plan %q: %v", s.Site, s.Result.Plan, err)
		}
		plans[i] = p
		for _, bp := range p.Breakpoints() {
			cutset[bp] = true
		}
	}
	for c := range cutset {
		var sum units.Watts
		for _, p := range plans {
			sum += p.CapAt(c)
		}
		global := cfg.Budget.CapAt(c)
		if float64(sum) > float64(global)*(1+1e-9) {
			t.Errorf("at t=%v: Σ site caps %.3f W exceeds global %.3f W", c, float64(sum), float64(global))
		}
	}
}

// TestCarbonMinBeatsStaticShare is the headline demonstration: two
// arrival waves under opposite-phase intensity signals whose phases
// flip between the waves. Carbon-min funds whichever site is clean in
// each phase, the cap-feasible routing frontend follows the funding,
// and each wave's work lands on the clean site — lowering global
// emissions versus static-share at comparable makespan.
func TestCarbonMinBeatsStaticShare(t *testing.T) {
	const flip = units.Seconds(2.5)
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 16, Seed: 9, MaxWidth: 16})
	for i := len(trace) / 2; i < len(trace); i++ {
		trace[i].Arrival += flip
	}
	run := func(split SplitPolicy) Result {
		res, err := Run(Config{
			Sites: []Site{
				{
					Name:     "east",
					Platform: mustPlatform(t, "systemg:16"),
					Carbon:   []capplan.Sample{{T: 0, Value: 420}, {T: flip, Value: 120}},
				},
				{
					Name:     "west",
					Platform: mustPlatform(t, "systemg:16"),
					Carbon:   []capplan.Sample{{T: 0, Value: 120}, {T: flip, Value: 420}},
				},
			},
			Budget: capplan.Constant(1600),
			Split:  split,
			Route:  RouteJCT(),
			Seed:   1,
		}, trace)
		if err != nil {
			t.Fatalf("split %s: %v", split.Name(), err)
		}
		if res.CapViolations != 0 || res.JobsLost != 0 {
			t.Fatalf("split %s: %d violations, %d lost", split.Name(), res.CapViolations, res.JobsLost)
		}
		return res
	}
	static := run(StaticShare())
	carbon := run(CarbonMin())
	if carbon.Carbon <= 0 || static.Carbon <= 0 {
		t.Fatalf("carbon accounting empty: carbon-min %.1f g, static %.1f g", carbon.Carbon, static.Carbon)
	}
	if carbon.Carbon >= 0.92*static.Carbon {
		t.Errorf("carbon-min %.3f g is not clearly below static-share %.3f g", carbon.Carbon, static.Carbon)
	}
	if float64(carbon.Makespan) > 1.5*float64(static.Makespan) {
		t.Errorf("carbon-min makespan %v blew past static-share %v", carbon.Makespan, static.Makespan)
	}
	if carbon.Completed != static.Completed {
		t.Errorf("carbon-min completed %d ≠ static-share %d", carbon.Completed, static.Completed)
	}
}

// identicalSites builds a 2-site federation of equal platforms — the
// routing-policy unit fixture.
func identicalSites(t *testing.T, route RoutePolicy) Config {
	t.Helper()
	return Config{
		Sites: []Site{
			{Name: "east", Platform: mustPlatform(t, "systemg:16")},
			{Name: "west", Platform: mustPlatform(t, "systemg:16")},
		},
		Budget: capplan.Constant(1800),
		Route:  route,
		Seed:   3,
	}
}

// TestRouteEESpill pins the spill rule at its 1 s threshold: 24 jobs
// 5 ms apart back the first site up past it (six spill), diverting jobs
// to the second, while every ee-best decision between identical sites
// tie-breaks to the first.
func TestRouteEESpill(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 5, MaxWidth: 16})

	res, err := Run(identicalSites(t, RouteEE()), trace)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Spills == 0 {
		t.Errorf("a backlog past %v produced no spills", spillAfter)
	}
	spills := 0
	for _, d := range res.Routing {
		switch {
		case strings.HasPrefix(d.Reason, "spill:"):
			spills++
			if !strings.HasSuffix(d.Reason, " over 1s") || d.Site != "west" {
				t.Errorf("job %d: spill %q to %s, want one over 1s to west", d.Job, d.Reason, d.Site)
			}
		case d.Reason == "ee-best" && d.Site != "east":
			t.Errorf("job %d: identical sites must tie-break to the first site, got %s", d.Job, d.Site)
		}
	}
	if spills != res.Spills {
		t.Errorf("%d decisions carry a spill reason, result counts %d", spills, res.Spills)
	}
	if res.Sites[0].Jobs == 0 || res.Sites[1].Jobs == 0 {
		t.Errorf("spilling left a site empty: %d / %d", res.Sites[0].Jobs, res.Sites[1].Jobs)
	}
}

// TestRouteRRCycles pins round-robin's alternation over identical
// sites.
func TestRouteRRCycles(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 12, Seed: 5, MaxWidth: 16})
	res, err := Run(identicalSites(t, RouteRR()), trace)
	if err != nil {
		t.Fatalf("%v", err)
	}
	want := []string{"east", "west"}
	for i, d := range res.Routing {
		if d.Reason != "round-robin" {
			continue
		}
		if d.Site != want[i%2] {
			t.Fatalf("decision %d: got %s, want %s (strict alternation over identical sites)", i, d.Site, want[i%2])
		}
	}
	if res.Sites[0].Jobs == 0 || res.Sites[1].Jobs == 0 {
		t.Errorf("round-robin left a site empty")
	}
}

// TestRouteJCTBalances pins the implicit load-balancing of
// completion-time routing: a saturated site prices itself out, so both
// identical sites receive work.
func TestRouteJCTBalances(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 5, MaxWidth: 16})
	res, err := Run(identicalSites(t, RouteJCT()), trace)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Sites[0].Jobs == 0 || res.Sites[1].Jobs == 0 {
		t.Errorf("jct routed everything to one site: %d / %d", res.Sites[0].Jobs, res.Sites[1].Jobs)
	}
	for _, d := range res.Routing {
		if d.Reason != "jct-min" && !strings.HasPrefix(d.Reason, "no-fit:") {
			t.Errorf("job %d: unexpected reason %q", d.Job, d.Reason)
		}
	}
}

// TestRouteTelemetry pins the EvRoute stream: one event per job,
// stamped with the job's arrival time and carrying the chosen site.
func TestRouteTelemetry(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 8, Seed: 5, MaxWidth: 16})
	mem := telemetry.NewMemorySink()
	rec := telemetry.New(mem)
	cfg := identicalSites(t, RouteEE())
	cfg.Telemetry = rec
	res, err := Run(cfg, trace)
	if err != nil {
		t.Fatalf("%v", err)
	}
	arrival := make(map[int]units.Seconds, len(trace))
	for _, j := range trace {
		arrival[j.ID] = j.Arrival
	}
	var routes int
	for _, ev := range mem.Events() {
		if ev.Kind != telemetry.EvRoute {
			continue
		}
		routes++
		if ev.Site == "" {
			t.Errorf("route event for job %d has no site", ev.Job)
		}
		if ev.T != arrival[ev.Job] {
			t.Errorf("route event for job %d stamped %v, want arrival %v", ev.Job, ev.T, arrival[ev.Job])
		}
	}
	if routes != len(trace) {
		t.Errorf("%d route events for %d jobs", routes, len(trace))
	}
	if len(res.Routing) != len(trace) {
		t.Errorf("routing table has %d rows", len(res.Routing))
	}
}

// TestSiteFaults runs a federation with scripted failures at one site:
// the run must survive, account the faults on that site only, and lose
// nothing under a generous retry cap.
func TestSiteFaults(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 16, Seed: 5, MaxWidth: 16})
	cfg := identicalSites(t, RouteRR())
	cfg.Sites[0].Faults = &faults.Plan{
		Scripted: []faults.Scripted{
			{Rank: 0, T: 0.3},
			{Rank: 0, T: 0.8, Repair: true},
		},
		MaxRetries: 4,
	}
	res, err := Run(cfg, trace)
	if err != nil {
		t.Fatalf("%v", err)
	}
	east, west := res.Sites[0].Result, res.Sites[1].Result
	if east.Failures != 1 || east.Repairs != 1 {
		t.Errorf("east accounted %d failures / %d repairs, want 1 / 1", east.Failures, east.Repairs)
	}
	if west.Failures != 0 || west.Availability != 1 {
		t.Errorf("west must be untouched: %d failures, availability %g", west.Failures, west.Availability)
	}
	if east.Availability >= 1 {
		t.Errorf("east availability %g must reflect the outage", east.Availability)
	}
	if res.JobsLost != 0 {
		t.Errorf("%d jobs lost under a generous retry cap", res.JobsLost)
	}
}

// TestSiteFailureProcesses runs an MTBF/MTTR failure process at one of
// two round-robin-fed sites under greedy-ee (revisable plans and a
// sim-time barrier at 1 s) and static-share (barrier-free). Kills at
// one site must not stall the other at the barrier, every job must
// reach exactly one terminal state (this plan loses some), the merged
// counts must be the sites' sums, no cap is violated, and a replay is
// bit-identical.
func TestSiteFailureProcesses(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 32, Seed: 5, MaxWidth: 16})
	plan, err := faults.ParsePlan("mtbf=*:2,mttr=*:0.2,retries=2,ckpt=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []func() SplitPolicy{GreedyEE, StaticShare} {
		run := func() Result {
			cfg := identicalSites(t, RouteRR())
			cfg.Budget, cfg.Split = mustPlan(t, "0:1800,1:1500,2.2:1800"), split()
			cfg.Sites[0].Faults = plan
			done := make(chan struct{})
			var res Result
			var err error
			go func() {
				defer close(done)
				res, err = Run(cfg, trace)
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatalf("%s: Run did not return: a site is stuck at a barrier", cfg.Split.Name())
			}
			if err != nil {
				t.Fatalf("%s: %v", cfg.Split.Name(), err)
			}
			return res
		}
		res := run()
		if res.Sites[0].Result.Kills == 0 || res.JobsLost == 0 {
			t.Fatalf("%s: the failure process killed %d jobs and lost %d; the fixture needs both",
				res.Split, res.Sites[0].Result.Kills, res.JobsLost)
		}
		if res.CapViolations != 0 {
			t.Errorf("%s: %d cap violations", res.Split, res.CapViolations)
		}
		states := map[int]sched.JobState{}
		var completed, rejected, lost int
		for _, s := range res.Sites {
			completed += s.Result.Completed
			rejected += s.Result.Rejected
			lost += s.Result.JobsLost
			for _, j := range s.Result.Jobs {
				if _, dup := states[j.ID]; dup {
					t.Errorf("%s: job %d reported by two sites", res.Split, j.ID)
				}
				states[j.ID] = j.State
			}
		}
		for _, j := range trace {
			if st, ok := states[j.ID]; !ok || (st != sched.Done && st != sched.Rejected && st != sched.Lost) {
				t.Errorf("%s: job %d ends %v (reported %v)", res.Split, j.ID, st, ok)
			}
		}
		if res.Completed != completed || res.Rejected != rejected || res.JobsLost != lost ||
			completed+rejected+lost != len(trace) {
			t.Errorf("%s: merged %d/%d/%d done/rejected/lost, sites sum to %d/%d/%d of %d jobs",
				res.Split, res.Completed, res.Rejected, res.JobsLost, completed, rejected, lost, len(trace))
		}
		if a, b := mustJSON(t, res), mustJSON(t, run()); string(a) != string(b) {
			t.Errorf("%s: replay differs", res.Split)
		}
	}
}

// TestSiteEnergyMatchesMeasuredProfile: a negotiation barrier that
// fires after the sites have drained adds no energy to either site's
// books — each site's TotalEnergy is its measured power integral, which
// the per-window ledger slices (Σ window energy over [0, horizon]).
func TestSiteEnergyMatchesMeasuredProfile(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 3, MaxWidth: 16})
	cfg := identicalSites(t, RouteRR())
	cfg.Split = GreedyEE()
	const late = 30 // the second barrier, long after the trace drains
	cfg.Budget = mustPlan(t, "0:1800,1:1500,30:1800,60:1700")
	res, err := Run(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range res.Sites {
		r := site.Result
		if r.Makespan >= late || r.Completed == 0 {
			t.Fatalf("%s: makespan %v with %d done; the fixture needs a drained site before the %vs barrier",
				site.Site, r.Makespan, r.Completed, late)
		}
		var measured units.Joules
		for _, w := range r.Windows {
			measured += w.Energy
		}
		if rel := math.Abs(float64(r.TotalEnergy-measured)) / float64(measured); !(rel <= 1e-9) {
			t.Errorf("%s: TotalEnergy %v (parked %v), measured %v: relative gap %.3g",
				site.Site, r.TotalEnergy, r.ParkedEnergy, measured, rel)
		}
	}
}

// TestLocalCeiling pins the local-plan clamp: a binding site-local
// ceiling caps the site's timeline below its federated share.
func TestLocalCeiling(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 8, Seed: 5, MaxWidth: 16})
	cfg := identicalSites(t, RouteRR())
	cfg.Sites[0].Local = capplan.Constant(500) // share would be 900
	res, err := Run(cfg, trace)
	if err != nil {
		t.Fatalf("%v", err)
	}
	p, err := capplan.ParsePlan(res.Sites[0].Result.Plan)
	if err != nil {
		t.Fatalf("east plan %q: %v", res.Sites[0].Result.Plan, err)
	}
	if got := p.MaxFrom(0); got != 500 {
		t.Errorf("east cap %v, want clamped to local ceiling 500", got)
	}
	if res.CapViolations != 0 {
		t.Errorf("%d violations under the clamped ceiling", res.CapViolations)
	}
}

// TestConfigErrors walks the validation surface.
func TestConfigErrors(t *testing.T) {
	site := func() Site { return Site{Name: "east", Platform: mustPlatform(t, "systemg:16")} }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no sites", Config{Budget: capplan.Constant(900)}, "no sites"},
		{"no budget", Config{Sites: []Site{site()}}, "no global budget"},
		{"bad lambda", Config{Sites: []Site{site()}, Budget: capplan.Constant(900), GuaranteeFrac: 1.5}, "GuaranteeFrac"},
		{"unnamed site", Config{Sites: []Site{{Platform: mustPlatform(t, "systemg:16")}}, Budget: capplan.Constant(900)}, "has no name"},
		{"duplicate site", Config{Sites: []Site{site(), site()}, Budget: capplan.Constant(2000)}, "duplicate site name"},
		{"bad carbon signal", Config{
			Sites:  []Site{{Name: "east", Platform: mustPlatform(t, "systemg:16"), Carbon: []capplan.Sample{{T: 0.5, Value: 100}}}},
			Budget: capplan.Constant(900),
		}, "carbon signal"},
		{"negative intensity", Config{
			Sites:  []Site{{Name: "east", Platform: mustPlatform(t, "systemg:16"), Carbon: []capplan.Sample{{T: 0, Value: -5}}}},
			Budget: capplan.Constant(900),
		}, "negative intensity"},
		{"budget below idle floor", Config{Sites: []Site{site()}, Budget: capplan.Constant(100)}, "below its idle floor"},
		// Non-finite knobs pass every later range comparison.
		{"NaN lambda", Config{Sites: []Site{site()}, Budget: capplan.Constant(900), GuaranteeFrac: math.NaN()}, "GuaranteeFrac"},
		{"NaN carbon", Config{
			Sites:  []Site{{Name: "east", Platform: mustPlatform(t, "systemg:16"), Carbon: []capplan.Sample{{T: 0, Value: math.NaN()}}}},
			Budget: capplan.Constant(900),
		}, "not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every rejection is New's: nothing has run yet.
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestDuplicateJobIDs pins the frontend's global ID check — two sites
// must not silently run the same job twice.
func TestDuplicateJobIDs(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 4, Seed: 5})
	trace[3].ID = trace[0].ID
	_, err := Run(identicalSites(t, RouteEE()), trace)
	if err == nil || !strings.Contains(err.Error(), "duplicate job ID") {
		t.Fatalf("got %v, want duplicate job ID error", err)
	}
}

// TestComparisonTable smoke-tests the schedrun -sites table over a small
// policy sweep.
func TestComparisonTable(t *testing.T) {
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 8, Seed: 5, MaxWidth: 16})
	var results []Result
	for _, split := range []SplitPolicy{StaticShare(), GreedyEE()} {
		cfg := twoSiteConfig(t, split, RouteEE())
		res, err := Run(cfg, trace)
		if err != nil {
			t.Fatalf("split %s: %v", split.Name(), err)
		}
		results = append(results, res)
	}
	table := ComparisonTable(results)
	for _, want := range []string{"static-share", "greedy-ee", "makespan", "carbon[g]"} {
		if !strings.Contains(table, want) {
			t.Errorf("comparison table missing %q:\n%s", want, table)
		}
	}
	for _, res := range results {
		if !strings.Contains(res.String(), "federation") {
			t.Errorf("summary missing header: %s", res.String())
		}
		if !strings.Contains(res.RoutingTable(), "reason") {
			t.Errorf("routing table missing header")
		}
	}
	_ = fmt.Sprintf("%v", results[0]) // Result must render without panicking
}

// TestParseSites: the three command-line lists share one "name=spec;…"
// splitter; carbon and local attach to listed sites by name.
func TestParseSites(t *testing.T) {
	sites, err := ParseSites(" east = systemg:16 ; west=dori:8,systemg:4;", "west=0:120,2:420", "east= 0:2000 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 || sites[0].Name != "east" || sites[1].Name != "west" || sites[1].Platform.TotalRanks() != 12 {
		t.Fatalf("sites = %+v", sites)
	}
	if sites[0].Carbon != nil || len(sites[1].Carbon) != 2 || sites[1].Carbon[1].Value != 420 {
		t.Errorf("carbon attached wrongly: %+v", sites)
	}
	if sites[0].Local == nil || sites[0].Local.String() != "0:2000" || sites[1].Local != nil {
		t.Errorf("local attached wrongly: %+v", sites)
	}
	for _, bad := range [][3]string{
		{"", "", ""}, {";", "", ""}, {"east", "", ""}, {"east=bogus", "", ""},
		{"east=systemg:16", "east", ""}, {"east=systemg:16", "north=0:1", ""}, {"east=systemg:16", "east=5:1", ""},
		{"east=systemg:16", "", "north=0:2000"}, {"east=systemg:16", "", "east=bogus"},
	} {
		if _, err := ParseSites(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ParseSites(%q) accepted", bad)
		}
	}
}
