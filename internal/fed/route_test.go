package fed

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/capplan"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/units"
)

// referenceQuotes is the memo-backed router the buffered quotes
// replaced: every row is fetched through opcache.Row, once for the
// reference runtime and again to price. The caller forgets the job's
// rows afterwards, as the old route loop did.
func (f *Federation) referenceQuotes(j sched.Job, work []units.Seconds, now units.Seconds) ([]Quote, bool) {
	var ref units.Seconds
	found := false
	for _, sr := range f.sites {
		for pi, pc := range sr.cache {
			for _, p := range j.Widths(nil, sr.site.Platform.Pools[pi].Ranks()) {
				row, err := pc.Row(j.ID, j.Vector, j.N, p)
				if err != nil {
					continue
				}
				if ft := row.FastestTp(); !found || ft < ref {
					ref, found = ft, true
				}
			}
		}
	}
	if !found {
		return nil, false
	}
	maxTp := units.Seconds(float64(ref) * f.slack)

	quotes := make([]Quote, len(f.sites))
	refHead := f.maxHeadroom(now)
	for si, sr := range f.sites {
		drain := f.headroom(si, now) / refHead
		q := Quote{Site: si, Backlog: units.Seconds(float64(work[si]) / drain)}
		headW := float64(sr.plan.CapAt(now)) - float64(sr.idleFloor)
		for pi, pc := range sr.cache {
			pool := sr.site.Platform.Pools[pi]
			idleRank := float64(pc.ParamsAt(0).PsysIdle)
			for _, p := range j.Widths(nil, pool.Ranks()) {
				row, err := pc.Row(j.ID, j.Vector, j.N, p)
				if err != nil {
					continue
				}
				budget := headW + float64(p)*idleRank
				var ft units.Seconds
				feasible := false
				for fi := range row.Pred {
					if float64(row.Draw[fi]) > budget {
						continue
					}
					if !feasible || row.Pred[fi].Tp < ft {
						ft, feasible = row.Pred[fi].Tp, true
					}
				}
				if !feasible || ft > maxTp {
					continue
				}
				if !q.OK || ft < q.Fastest {
					q.Fastest = ft
				}
				for fi := range row.Pred {
					if float64(row.Draw[fi]) > budget {
						continue
					}
					if !q.OK || row.Pred[fi].EE > q.EE {
						q.OK = true
						q.EE = row.Pred[fi].EE
						q.Tp = row.Pred[fi].Tp
						q.P = p
					}
				}
			}
		}
		quotes[si] = q
	}
	return quotes, true
}

// benchSites is the fed_sites benchmark's pair: a homogeneous SystemG
// site and a mixed SystemG/Dori site under opposite-phase carbon and a
// 16-window stepped budget.
func benchSites(t *testing.T) Config {
	t.Helper()
	const span = 80.0
	segs := make([]capplan.Segment, 16)
	for i := range segs {
		segs[i] = capplan.Segment{Start: units.Seconds(span * float64(i) / 16), Cap: 3200}
		if i%2 == 1 {
			segs[i].Cap = 2600
		}
	}
	budget, err := capplan.Steps(segs...)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Sites: []Site{
			{Name: "east", Platform: mustPlatform(t, "systemg:32"),
				Carbon: []capplan.Sample{{T: 0, Value: 200}, {T: span / 2, Value: 500}}},
			{Name: "west", Platform: mustPlatform(t, "systemg:16,dori:16"),
				Carbon: []capplan.Sample{{T: 0, Value: 500}, {T: span / 2, Value: 200}}},
		},
		Budget:        budget,
		Split:         GreedyEE(),
		GuaranteeFrac: 0.8,
		Policy:        sched.Backfill(sched.EEMax()),
		Seed:          1,
	}
}

// TestQuotesMatchMemoReference differentially checks the buffered
// router against the memo-backed reference: every Quote and the any
// flag must be identical across three site sets, seeded traces, several
// decision times and backlog vectors, plus the two edge cases (a job too
// wide for every pool, and a vector the model rejects at some widths).
func TestQuotesMatchMemoReference(t *testing.T) {
	hetero := Config{
		Sites: []Site{
			{Name: "a", Platform: mustPlatform(t, "systemg:16")},
			{Name: "b", Platform: mustPlatform(t, "systemg:8,dori:8")},
			{Name: "c", Platform: mustPlatform(t, "dori:16")},
		},
		Budget: mustPlan(t, "0:2400,1:1900,2.5:2400"),
		// No slack: the eligible runtime bound is exactly the fastest
		// row's, so the bound's boundary is priced on every job.
		PerfSlack: 1,
		Seed:      2,
	}
	squeezed := identicalSites(t, RouteEE(), 0)
	squeezed.Sites[1].Local = capplan.Constant(400) // just above its ~389 W idle floor
	sets := []struct {
		name     string
		cfg      Config
		squeezed int // site index no point fits at, or -1
	}{
		{"bench", benchSites(t), -1},
		{"hetero", hetero, -1},
		{"squeezed", squeezed, 1},
	}

	// bad is CG with a negative message count at p = 4: its rows fail in
	// the middle of every pool's width ladder.
	cg := app.CG(11, 15)
	bad := cg
	bad.Name = "cg-fails-at-4"
	bad.M = func(n float64, p int) float64 {
		if p == 4 {
			return -1
		}
		return cg.M(n, p)
	}

	var noWidths, failedMid, squeezedOut, compared int
	for _, set := range sets {
		f, err := New(set.cfg)
		if err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 200, Seed: 17, MaxWidth: 16})
		trace[3].MinWidth = 1 << 20
		trace[7].Vector = bad
		trace[7].MinWidth, trace[7].MaxWidth = 1, 16
		works := [][]units.Seconds{make([]units.Seconds, len(f.sites)), make([]units.Seconds, len(f.sites))}
		for i := range works[1] {
			works[1][i] = units.Seconds(0.4 * float64(i+1))
		}
		for _, now := range []units.Seconds{0, 0.5, 1.2, 2.7, 45} {
			for wi, work := range works {
				for _, j := range trace {
					want, wantAny := f.referenceQuotes(j, work, now)
					for _, sr := range f.sites {
						for _, c := range sr.cache {
							c.Forget(j.ID)
						}
					}
					got, gotAny := f.quotes(j, work, now)
					ctx := fmt.Sprintf("%s now=%v work#%d job %d", set.name, now, wi, j.ID)
					if gotAny != wantAny || len(got) != len(want) {
						t.Fatalf("%s: any=%v len=%d, reference any=%v len=%d", ctx, gotAny, len(got), wantAny, len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s site %d:\n got %+v\nwant %+v", ctx, i, got[i], want[i])
						}
					}
					compared++
					if !gotAny && j.MinWidth > 1<<10 {
						noWidths++
					}
					if j.Vector.Name == bad.Name && gotAny && f.bufferFailsMidway() {
						failedMid++
					}
					if set.squeezed >= 0 && gotAny && !got[set.squeezed].OK {
						squeezedOut++
					}
				}
			}
		}
	}
	if noWidths == 0 || failedMid == 0 || squeezedOut == 0 {
		t.Fatalf("edge cases not exercised: %d no-width jobs, %d mid-buffer failures, %d squeezed-out quotes (of %d)",
			noWidths, failedMid, squeezedOut, compared)
	}
}

// bufferFailsMidway reports whether the row buffer holds a failed row
// between two evaluated rows of the same pool — called right after
// quotes, whose rows form the buffer's prefix.
func (f *Federation) bufferFailsMidway() bool {
	for k := 1; k+1 < len(f.rows); k++ {
		a, b, c := f.rows[k-1], f.rows[k], f.rows[k+1]
		if !b.ok && a.ok && c.ok && a.site == c.site && a.pool == c.pool {
			return true
		}
	}
	return false
}

// TestQuotesAllocatesOnlyTheQuoteSlice pins the router's steady state:
// once the row buffer has grown, pricing a job allocates only the
// returned []Quote (a RoutePolicy may keep ctx.Quotes).
func TestQuotesAllocatesOnlyTheQuoteSlice(t *testing.T) {
	f, err := New(benchSites(t))
	if err != nil {
		t.Fatal(err)
	}
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 16, Seed: 4, MaxWidth: 16})
	work := make([]units.Seconds, len(f.sites))
	for _, j := range trace {
		f.quotes(j, work, 0)
	}
	j := trace[5]
	if allocs := testing.AllocsPerRun(100, func() { f.quotes(j, work, 1) }); allocs > 1 {
		t.Fatalf("quotes allocates %.1f times per job, want ≤ 1", allocs)
	}
}

// TestTwoSiteRunRaceFree runs the benchmark's two sites concurrently
// with per-site host collectors reading their schedulers' caches; under
// go test -race it proves no opcache Cache is shared across goroutines.
func TestTwoSiteRunRaceFree(t *testing.T) {
	cfg := benchSites(t)
	hosts := map[string]*obs.Host{"east": obs.NewHost(), "west": obs.NewHost()}
	cfg.SiteObs = func(site string) *obs.Host { return hosts[site] }
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 64, Seed: 6, MeanInterarrival: 0.05, MaxWidth: 16})
	res, err := Run(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapViolations != 0 || res.JobsLost != 0 || res.Completed+res.Rejected != len(trace) {
		t.Fatalf("%d violations, %d lost, %d+%d of %d jobs", res.CapViolations, res.JobsLost, res.Completed, res.Rejected, len(trace))
	}
	for name, h := range hosts {
		if h.Snapshot().Opcache.Misses == 0 {
			t.Errorf("site %s: its scheduler priced nothing through its cache", name)
		}
	}
}
