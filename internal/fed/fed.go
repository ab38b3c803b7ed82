package fed

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/capplan"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opcache"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Site describes one federated cluster.
type Site struct {
	// Name identifies the site in results, routing tables and errors;
	// names must be unique within a federation.
	Name string
	// Platform is the site's node-pool layout; the whole platform is
	// provisioned.
	Platform machine.Platform
	// Local, when set, is a site-local cap ceiling (a facility feed, a
	// contract limit): the federated share is clamped to it in every
	// window.
	Local *capplan.Plan
	// Carbon, when non-empty, is the site's carbon-intensity signal in
	// gCO₂eq/kWh (same sample contract as capplan.FromSignal: first at
	// t = 0, strictly ascending). It prices the site's energy in the
	// merged result and steers the carbon-min split policy.
	Carbon []capplan.Sample
	// Faults optionally injects the site's failure/repair processes.
	Faults *faults.Plan
}

// Config describes one federated run.
type Config struct {
	// Sites lists the federated clusters; at least one.
	Sites []Site
	// Budget is the global power budget timeline the per-site caps are
	// carved from. Σ site caps ≤ Budget at every instant (exactly, up
	// to float rounding of the share arithmetic).
	Budget *capplan.Plan
	// Split divides each budget window across sites (default
	// StaticShare).
	Split SplitPolicy
	// Route assigns jobs to sites (default RouteEE). Route policies may
	// carry per-run state; pass a fresh instance per Run.
	Route RoutePolicy
	// GuaranteeFrac (λ, 0 < λ ≤ 1, default 0.5) is the fraction of
	// every window divided by static shares regardless of policy — each
	// site's guaranteed floor, which must cover its idle power draw.
	// The remaining 1−λ is the policy's discretionary share.
	GuaranteeFrac float64
	// Policy and Seed configure every site's scheduler exactly as in
	// sched.Config (the same seed at every site keeps a 1-site
	// federation byte-identical to the bare scheduler).
	Policy sched.Policy
	Seed   int64
	// Telemetry, when non-nil, receives the frontend's EvRoute stream
	// (stamped with job arrival times). Per-site schedulers run
	// concurrently and are deliberately not wired to it — use
	// SiteTelemetry for per-decision site traces.
	Telemetry *telemetry.Recorder
	// SiteTelemetry, when non-nil, is called once per site (in Sites
	// order, before any simulation starts) and may return a recorder
	// for that site's scheduler. Each site runs on its own goroutine
	// with its own kernel, so a recorder must not be shared across
	// sites; wrap sinks in telemetry.WithSite so merged streams
	// (traceq merge) stay keyed by site. Nil results disable tracing
	// for that site.
	SiteTelemetry func(site string) *telemetry.Recorder
	// SiteObs, when non-nil, likewise returns a per-site host-side
	// observability collector (or nil). Same ownership rule: one
	// obs.Host per site, never shared — Hosts are single-goroutine.
	SiteObs func(site string) *obs.Host
}

const defaultGuaranteeFrac = 0.5

// siteRun is the per-site execution state.
type siteRun struct {
	site        Site
	ranks       int // the site's static budget share weight
	largestPool int
	cache       []*opcache.Cache // per pool: the router's evaluators, shared by equal ladder tables
	idleFloor   units.Watts
	intensity   []float64 // gCO₂/kWh per grid segment; nil without a signal
	plan        *capplan.Plan
	sched       *sched.Scheduler
	jobs        []sched.Job
}

// Federation is one assembled run: a validated configuration with every
// site's plan carved and scheduler built, ready to Run once.
type Federation struct {
	cfg    Config
	lambda float64
	sites  []*siteRun

	// The negotiation grid: cuts are the segment starts of every
	// per-site plan — the union of the global budget's breakpoints,
	// every site's local-plan breakpoints and every site's carbon
	// sample times — so shares are constant within a segment and Σ site
	// caps tracks the global budget exactly. global, gwin and shares
	// are per-segment budget, global-window index and per-site static
	// shares.
	cuts   []units.Seconds
	global []units.Watts
	gwin   []int
	shares []float64

	// dynamic marks the re-negotiated path: revisable plans, and an
	// epoch end at every global breakpoint but the last, where the
	// window after next is divided. Static policies (and 1-site or
	// ≤2-window runs, where nothing is left to re-negotiate) divide
	// every window at construction and run one epoch.
	dynamic bool
	nGlobal int

	decisions []RouteDecision
	spills    int
	// rows, offers, widths and quoted are the router's per-job buffers
	// (quotes), grown once and reused for every later job.
	rows   []pricedRow
	offers []offer
	widths []int
	quoted []Quote
}

// Run executes the federated schedule: route every job to a site, run
// all site schedulers concurrently, and merge. The result is
// bit-identical per (seed, sites, plans, jobs) regardless of goroutine
// interleaving or GOMAXPROCS. It is the composition New then Run.
func Run(cfg Config, jobs []sched.Job) (Result, error) {
	f, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return f.Run(jobs)
}

// Run routes the jobs and runs the sites in lockstep epochs; a
// Federation runs once. On the dynamic path an epoch ends where each
// global window w ≥ 1 but the last starts, and window w+1 is divided
// there, one ahead (windows 0 and 1 were divided at construction); the
// final epoch runs to +∞.
func (f *Federation) Run(jobs []sched.Job) (Result, error) {
	if err := f.route(jobs); err != nil {
		return Result{}, err
	}
	for _, sr := range f.sites {
		if err := sr.sched.Arm(sr.jobs); err != nil {
			return Result{}, fmt.Errorf("fed: site %q: %w", sr.site.Name, err)
		}
	}
	var ends []units.Seconds
	if f.dynamic {
		ends = f.cfg.Budget.Breakpoints()[:f.nGlobal-2]
	}
	for j, t := range ends {
		if err := f.advance(t); err != nil {
			return Result{}, err
		}
		if err := f.negotiate(j + 2); err != nil {
			return Result{}, err
		}
	}
	if err := f.advance(units.Seconds(math.Inf(1))); err != nil {
		return Result{}, err
	}
	return f.merge(), nil
}

// New validates the configuration, assembles the negotiation grid,
// carves every site's initial cap timeline and builds its scheduler —
// the same construct-then-run seam sched.New gives a single cluster.
// Whatever it rejects is configuration; only Run's errors are failures
// of a running site.
func New(cfg Config) (*Federation, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("fed: no sites")
	}
	if cfg.Budget == nil {
		return nil, fmt.Errorf("fed: no global budget plan")
	}
	if err := cfg.Budget.Validate(); err != nil {
		return nil, fmt.Errorf("fed: global budget: %w", err)
	}
	if cfg.Split == nil {
		cfg.Split = StaticShare()
	}
	if cfg.Route == nil {
		cfg.Route = RouteEE()
	}
	if !(cfg.GuaranteeFrac >= 0 && cfg.GuaranteeFrac <= 1) { // NaN fails too
		return nil, fmt.Errorf("fed: GuaranteeFrac %g outside (0, 1]", cfg.GuaranteeFrac)
	}
	f := &Federation{cfg: cfg, lambda: cfg.GuaranteeFrac}
	if f.lambda == 0 {
		f.lambda = defaultGuaranteeFrac
	}
	f.quoted = make([]Quote, len(cfg.Sites))

	var routers []*opcache.Cache // one per distinct ladder table
	for i, site := range cfg.Sites {
		if site.Name == "" {
			return nil, fmt.Errorf("fed: site %d has no name", i)
		}
		for _, prev := range cfg.Sites[:i] {
			if prev.Name == site.Name {
				return nil, fmt.Errorf("fed: duplicate site name %q", site.Name)
			}
		}
		if err := site.Platform.Validate(); err != nil {
			return nil, fmt.Errorf("fed: site %q: %w", site.Name, err)
		}
		if site.Local != nil {
			if err := site.Local.Validate(); err != nil {
				return nil, fmt.Errorf("fed: site %q local plan: %w", site.Name, err)
			}
		}
		if len(site.Carbon) > 0 {
			if err := capplan.ValidateSignal(site.Carbon); err != nil {
				return nil, fmt.Errorf("fed: site %q carbon signal: %w", site.Name, err)
			}
			for si, s := range site.Carbon {
				if s.Value < 0 {
					return nil, fmt.Errorf("fed: site %q carbon sample %d: negative intensity %g", site.Name, si, s.Value)
				}
			}
		}
		sr := &siteRun{site: site}
		for pi, np := range site.Platform.Pools {
			c, err := opcache.New(np.Spec)
			if err != nil {
				return nil, fmt.Errorf("fed: site %q: pool %d (%s): %w", site.Name, pi, np.PoolName(), err)
			}
			if k := slices.IndexFunc(routers, c.SameLadder); k >= 0 {
				c = routers[k]
			} else {
				routers = append(routers, c)
			}
			sr.cache = append(sr.cache, c)
			sr.idleFloor += units.Watts(float64(np.Ranks()) * float64(c.ParamsAt(0).PsysIdle))
			sr.ranks += np.Ranks()
			if np.Ranks() > sr.largestPool {
				sr.largestPool = np.Ranks()
			}
		}
		f.sites = append(f.sites, sr)
	}

	var wsum float64
	for _, sr := range f.sites {
		wsum += float64(sr.ranks)
	}
	f.shares = make([]float64, len(f.sites))
	for i, sr := range f.sites {
		f.shares[i] = float64(sr.ranks) / wsum
	}

	f.buildGrid()
	f.nGlobal = len(cfg.Budget.Segments())
	f.dynamic = !cfg.Split.Static() && len(f.sites) > 1 && f.nGlobal > 2 && f.lambda < 1

	for _, step := range []func() error{f.buildPlans, f.checkFloors, f.buildSchedulers} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// buildGrid assembles the common segment grid every per-site plan is
// built on: the union of the global budget's breakpoints, every site's
// local-plan breakpoints, and every site's carbon sample times. Within
// one grid segment the global budget, every local ceiling and every
// intensity are constant, so one share division prices the whole
// segment.
func (f *Federation) buildGrid() {
	cuts := []units.Seconds{0}
	cuts = append(cuts, f.cfg.Budget.Breakpoints()...)
	for _, sr := range f.sites {
		if sr.site.Local != nil {
			cuts = append(cuts, sr.site.Local.Breakpoints()...)
		}
		for _, s := range sr.site.Carbon {
			if s.T > 0 {
				cuts = append(cuts, s.T)
			}
		}
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	dedup := cuts[:1]
	for _, c := range cuts[1:] {
		if c != dedup[len(dedup)-1] {
			dedup = append(dedup, c)
		}
	}
	f.cuts = dedup

	f.global = make([]units.Watts, len(f.cuts))
	f.gwin = make([]int, len(f.cuts))
	for g, c := range f.cuts {
		f.global[g] = f.cfg.Budget.CapAt(c)
		f.gwin[g], _ = f.cfg.Budget.WindowAt(c)
	}
	for _, sr := range f.sites {
		if len(sr.site.Carbon) == 0 {
			continue
		}
		sr.intensity = make([]float64, len(f.cuts))
		for g, c := range f.cuts {
			// Step lookup: the last sample at or before the cut (every
			// sample time is itself a cut, so this is exact).
			v := sr.site.Carbon[0].Value
			for _, s := range sr.site.Carbon {
				if s.T > c {
					break
				}
				v = s.Value
			}
			sr.intensity[g] = v
		}
	}
}

// segEnd returns the exclusive end of grid segment g.
func (f *Federation) segEnd(g int) units.Seconds {
	if g+1 < len(f.cuts) {
		return f.cuts[g+1]
	}
	return units.Seconds(math.Inf(1))
}

// localCap returns site i's local ceiling over segment g, or 0 when
// the site has none.
func (f *Federation) localCap(i, g int) units.Watts {
	if f.sites[i].site.Local == nil {
		return 0
	}
	return f.sites[i].site.Local.CapAt(f.cuts[g])
}

// floorFor is site i's guaranteed cap over segment g: λ of its static
// share of the global budget, clamped to any local ceiling. Floors are
// what un-negotiated windows of a revisable plan carry, so every
// admission decision against them is conservative.
func (f *Federation) floorFor(i, g int) units.Watts {
	c := units.Watts(float64(f.global[g]) * f.lambda * f.shares[i])
	if loc := f.localCap(i, g); loc > 0 && loc < c {
		c = loc
	}
	return c
}

// capFor is site i's negotiated cap over segment g given normalised
// discretionary shares d: the guaranteed floor plus the policy's
// discretionary award, clamped to any local ceiling. Always ≥
// floorFor (the discretionary term is non-negative and float addition
// of a non-negative term is monotone), which is what makes SetCaps'
// raise-only rule hold unconditionally.
func (f *Federation) capFor(i, g int, d []float64) units.Watts {
	c := units.Watts(float64(f.global[g]) * (f.lambda*f.shares[i] + (1-f.lambda)*d[i]))
	if loc := f.localCap(i, g); loc > 0 && loc < c {
		c = loc
	}
	return c
}

// discretionary asks the split policy to divide segment g and
// normalises the answer: negatives clamp to zero, and a degenerate
// division (wrong length, all-zero) falls back to the static shares.
func (f *Federation) discretionary(g int, mixEE []float64) []float64 {
	ctx := SplitContext{Sites: make([]SiteFacts, len(f.sites)), MixEE: mixEE}
	for i, sr := range f.sites {
		ctx.Sites[i] = SiteFacts{Weight: float64(sr.ranks), HasCarbon: sr.intensity != nil}
		if sr.intensity != nil {
			ctx.Sites[i].Intensity = sr.intensity[g]
		}
	}
	d := f.cfg.Split.Shares(ctx)
	if len(d) != len(f.sites) {
		return append([]float64(nil), f.shares...)
	}
	var sum float64
	for i := range d {
		if d[i] < 0 || math.IsNaN(d[i]) || math.IsInf(d[i], 0) {
			d[i] = 0
		}
		sum += d[i]
	}
	if sum <= 0 {
		return append([]float64(nil), f.shares...)
	}
	out := make([]float64, len(d))
	for i := range d {
		out[i] = d[i] / sum
	}
	return out
}

// checkFloors rejects configurations whose share timeline cannot even
// park a site: a cap below the idle power draw guarantees violations
// while that window is in force (sched.New enforces the same bound,
// but this error names the federated knobs that fix it). On the
// dynamic path the built plan carries the guaranteed floors, so this
// is exactly the "λ of the static share must cover idle" contract; on
// the static path it checks the actual negotiated caps.
func (f *Federation) checkFloors() error {
	for _, sr := range f.sites {
		for g := range f.cuts {
			if cap := sr.plan.CapAt(f.cuts[g]); cap < sr.idleFloor {
				return fmt.Errorf("fed: site %q share bottoms at %.1f W over window [%v, %v), below its idle floor %.1f W — raise the global budget, the site's weight, or GuaranteeFrac",
					sr.site.Name, float64(cap), f.cuts[g], f.segEnd(g), float64(sr.idleFloor))
			}
		}
	}
	return nil
}

// buildPlans derives every site's initial cap timeline. Static runs
// negotiate every segment now; dynamic runs negotiate the first two
// global windows (the scheduler's pre-drop edges and control-cap
// lookahead read one window ahead, so window w must be final before
// any site enters window w−1) and floor the rest, to be raised at the
// epoch ends.
func (f *Federation) buildPlans() error {
	segs := make([][]capplan.Segment, len(f.sites))
	for i := range f.sites {
		segs[i] = make([]capplan.Segment, len(f.cuts))
	}
	for g := range f.cuts {
		if !f.dynamic || f.gwin[g] <= 1 {
			d := f.discretionary(g, nil)
			for i := range f.sites {
				segs[i][g] = capplan.Segment{Start: f.cuts[g], Cap: f.capFor(i, g, d)}
			}
		} else {
			for i := range f.sites {
				segs[i][g] = capplan.Segment{Start: f.cuts[g], Cap: f.floorFor(i, g)}
			}
		}
	}
	for i, sr := range f.sites {
		var err error
		if f.dynamic {
			sr.plan, err = capplan.Revisable(segs[i]...)
		} else {
			sr.plan, err = capplan.Steps(segs[i]...)
		}
		if err != nil {
			return fmt.Errorf("fed: site %q plan: %w", sr.site.Name, err)
		}
	}
	return nil
}

// buildSchedulers constructs every site's scheduler.
func (f *Federation) buildSchedulers() error {
	for _, sr := range f.sites {
		scfg := sched.Config{
			Platform: sr.site.Platform,
			Plan:     sr.plan,
			Faults:   sr.site.Faults,
			Policy:   f.cfg.Policy,
			Seed:     f.cfg.Seed,
		}
		if f.cfg.SiteTelemetry != nil {
			scfg.Telemetry = f.cfg.SiteTelemetry(sr.site.Name)
		}
		if f.cfg.SiteObs != nil {
			scfg.Obs = f.cfg.SiteObs(sr.site.Name)
		}
		s, err := sched.New(scfg)
		if err != nil {
			return fmt.Errorf("fed: site %q: %w", sr.site.Name, err)
		}
		sr.sched = s
	}
	return nil
}

// advance runs every site's own kernel up to, but excluding, sim time
// t, one goroutine per site. Nothing is shared while they run, so the
// schedules cannot depend on the interleaving; the first site in site
// order whose Advance errs names the error.
func (f *Federation) advance(t units.Seconds) error {
	errs := make([]error, len(f.sites))
	var wg sync.WaitGroup
	for i, sr := range f.sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sr.sched.Advance(t)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fed: site %q: %w", f.sites[i].site.Name, err)
		}
	}
	return nil
}

// negotiate divides global window w from the sites' live operating
// mixes and raises each site's floored segments to the negotiated caps.
// It runs between epochs with every site paused, so no site reads a
// plan while it is revised, and its inputs are sim-time state only.
func (f *Federation) negotiate(w int) error {
	mixEE := make([]float64, len(f.sites))
	for i, sr := range f.sites {
		mixEE[i] = sr.sched.MixEE()
	}
	for g := range f.cuts {
		if f.gwin[g] != w {
			continue
		}
		d := f.discretionary(g, mixEE)
		for i, sr := range f.sites {
			// Unreachable by construction: a negotiated cap is at
			// least the floor, and the bounds are grid-aligned.
			if err := sr.plan.SetCaps(f.cuts[g], f.segEnd(g), f.capFor(i, g, d)); err != nil {
				return fmt.Errorf("fed: renegotiating site %q window %d: %w", sr.site.Name, w, err)
			}
		}
	}
	return nil
}
