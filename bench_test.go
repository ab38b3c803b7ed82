package repro_test

// The bench harness regenerates every table and figure of the paper's
// evaluation (one benchmark per figure; see DESIGN.md §4) plus the
// ablation studies of DESIGN.md §5 and micro-benchmarks of the substrate.
//
// Figures print their rendered body once per `go test -bench` run and
// report their headline quantity through b.ReportMetric, so the bench
// output doubles as the experimental record (EXPERIMENTS.md is produced
// from it).

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/npb"
	"repro/internal/npb/ft"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// benchOptions selects full paper-scale sweeps by default and reduced
// sizes under -short.
func benchOptions() figures.Options {
	return figures.Options{Seed: 42, Quick: testing.Short()}
}

// runFigure executes a figure generator b.N times (expensive generators
// naturally run once under the default benchtime) and prints the last
// rendering.
func runFigure(b *testing.B, id string) figures.Figure {
	b.Helper()
	g, err := figures.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	benchOpts := benchOptions()
	var fig figures.Figure
	for i := 0; i < b.N; i++ {
		fig, err = g.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "\n%s\n", fig)
	return fig
}

// csvColumn extracts a named float column from a figure CSV.
func csvColumn(b *testing.B, csv, name string) []float64 {
	b.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	header := strings.Split(lines[0], ",")
	col := -1
	for i, h := range header {
		if h == name {
			col = i
		}
	}
	if col < 0 {
		b.Fatalf("column %q not in %q", name, lines[0])
	}
	var out []float64
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		if len(parts) <= col {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(parts[col], &v); err != nil {
			continue
		}
		out = append(out, v)
	}
	return out
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// --- one benchmark per paper figure ---

func BenchmarkFigure2aFTEfficiency(b *testing.B) {
	fig := runFigure(b, "2a")
	ee := csvColumn(b, fig.CSV, "energy_eff")
	b.ReportMetric(ee[len(ee)-1], "EE@maxP")
}

func BenchmarkFigure2bCGEfficiency(b *testing.B) {
	fig := runFigure(b, "2b")
	ee := csvColumn(b, fig.CSV, "energy_eff")
	b.ReportMetric(ee[len(ee)-1], "EE@maxP")
}

func BenchmarkFigure3DoriValidation(b *testing.B) {
	fig := runFigure(b, "3")
	errs := csvColumn(b, fig.CSV, "rel_error")
	worst := 0.0
	for _, e := range errs {
		if e > worst {
			worst = e
		}
	}
	b.ReportMetric(worst*100, "worst-err-%")
	b.ReportMetric(mean(errs)*100, "avg-err-%")
}

func BenchmarkFigure4SystemGErrorRate(b *testing.B) {
	fig := runFigure(b, "4")
	errs := csvColumn(b, fig.CSV, "rel_error")
	b.ReportMetric(mean(errs)*100, "avg-err-%")
}

func BenchmarkFigure5FTSurfacePF(b *testing.B) {
	fig := runFigure(b, "5")
	ee := csvColumn(b, fig.CSV, "ee")
	b.ReportMetric(ee[len(ee)-1], "EE@maxP-maxF")
}

func BenchmarkFigure6FTSurfacePN(b *testing.B) {
	fig := runFigure(b, "6")
	ee := csvColumn(b, fig.CSV, "ee")
	b.ReportMetric(ee[len(ee)-1], "EE@maxP-maxN")
}

func BenchmarkFigure7EPSurfacePF(b *testing.B) {
	fig := runFigure(b, "7")
	ee := csvColumn(b, fig.CSV, "ee")
	min := 1.0
	for _, v := range ee {
		if v < min {
			min = v
		}
	}
	b.ReportMetric(min, "min-EE")
}

func BenchmarkFigure8SurfacePN(b *testing.B) {
	fig := runFigure(b, "8")
	ee := csvColumn(b, fig.CSV, "ee")
	b.ReportMetric(mean(ee), "mean-EE")
}

func BenchmarkFigure9CGSurfacePF(b *testing.B) {
	fig := runFigure(b, "9")
	ee := csvColumn(b, fig.CSV, "ee")
	b.ReportMetric(ee[len(ee)-1], "EE@maxP-2.8GHz")
}

func BenchmarkFigure10PowerProfile(b *testing.B) {
	fig := runFigure(b, "10")
	total := csvColumn(b, fig.CSV, "total_w")
	peak := 0.0
	for _, v := range total {
		if v > peak {
			peak = v
		}
	}
	b.ReportMetric(peak, "peak-W")
}

// BenchmarkDiscussionFactors quantifies §V.B.4–7: the EE sensitivity of
// each benchmark to p, n and f.
func BenchmarkDiscussionFactors(b *testing.B) {
	mpHigh := machine.SystemG().MustBase()
	mpLow, err := machine.SystemG().AtFrequency(2.0 * units.GHz)
	if err != nil {
		b.Fatal(err)
	}
	type row struct {
		name       string
		v          app.Vector
		n          float64
		dP, dN, dF float64
	}
	vectors := []row{
		{name: "FT", v: app.FT(20), n: 1 << 21},
		{name: "EP", v: app.EP(), n: 1e8},
		{name: "CG", v: app.CG(11, 15), n: 75000},
	}
	ee := func(mp machine.Params, v app.Vector, n float64, p int) float64 {
		pr, err := core.Model{Machine: mp, App: v.At(n, p)}.Predict()
		if err != nil {
			b.Fatal(err)
		}
		return pr.EE
	}
	for i := 0; i < b.N; i++ {
		for j := range vectors {
			r := &vectors[j]
			r.dP = ee(mpHigh, r.v, r.n, 64) - ee(mpHigh, r.v, r.n, 4)
			r.dN = ee(mpHigh, r.v, r.n*8, 16) - ee(mpHigh, r.v, r.n/8, 16)
			r.dF = ee(mpHigh, r.v, r.n, 16) - ee(mpLow, r.v, r.n, 16)
		}
	}
	fmt.Fprintf(os.Stderr, "\n== §V.B discussion: ΔEE when scaling p (4→64), n (÷8→×8), f (2.0→2.8GHz) ==\n")
	for _, r := range vectors {
		fmt.Fprintf(os.Stderr, "%4s ΔEE(p)=%+.4f ΔEE(n)=%+.4f ΔEE(f)=%+.4f\n", r.name, r.dP, r.dN, r.dF)
	}
	b.ReportMetric(vectors[2].dF, "CG-dEE-df")
}

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblationOverlap: ignoring computational overlap (α=1) inflates
// predicted times and energies — the reason the paper introduces α.
func BenchmarkAblationOverlap(b *testing.B) {
	mp := machine.SystemG().MustBase()
	w := app.FT(20).At(1<<21, 16)
	var inflation float64
	for i := 0; i < b.N; i++ {
		withAlpha, err := (core.Model{Machine: mp, App: w}).Predict()
		if err != nil {
			b.Fatal(err)
		}
		w1 := w
		w1.Alpha = 1
		noAlpha, err := (core.Model{Machine: mp, App: w1}).Predict()
		if err != nil {
			b.Fatal(err)
		}
		inflation = float64(noAlpha.Ep)/float64(withAlpha.Ep) - 1
	}
	fmt.Fprintf(os.Stderr, "\n== ablation: dropping α inflates predicted FT energy by %.1f%% ==\n", inflation*100)
	b.ReportMetric(inflation*100, "Ep-inflation-%")
}

// BenchmarkAblationNetModel: the same FT run priced by Hockney, LogGP and
// a zero-cost network — how much of FT's energy is communication.
func BenchmarkAblationNetModel(b *testing.B) {
	nets := []netmodel.Model{
		netmodel.InfiniBand40G(),
		netmodel.LogGP{L: 1.3 * units.Microsecond, O: 1.3 * units.Microsecond, G: 0.2 * units.Nanosecond},
		netmodel.Zero{},
	}
	var energies []units.Joules
	for i := 0; i < b.N; i++ {
		energies = energies[:0]
		for _, nm := range nets {
			k, err := ft.New(ft.Config{NX: 32, NY: 32, NZ: 32, Iters: 2})
			if err != nil {
				b.Fatal(err)
			}
			cl, err := cluster.New(cluster.Config{
				Spec: machine.SystemG(), Ranks: 8, Alpha: k.Alpha(), Net: nm, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := npb.Run(cl, k)
			if err != nil {
				b.Fatal(err)
			}
			energies = append(energies, rep.True.Total)
		}
	}
	fmt.Fprintf(os.Stderr, "\n== ablation: FT p=8 energy — hockney %v, loggp %v, zero-net %v ==\n",
		energies[0], energies[1], energies[2])
	b.ReportMetric(float64(energies[0]-energies[2])/float64(energies[0])*100, "comm-share-%")
}

// BenchmarkAblationGamma: EE sensitivity to the power-frequency exponent.
func BenchmarkAblationGamma(b *testing.B) {
	var out []float64
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, gamma := range []float64{1, 2, 3} {
			spec := machine.SystemG()
			spec.Gamma = gamma
			mp, err := spec.AtFrequency(2.0 * units.GHz)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := (core.Model{Machine: mp, App: app.CG(11, 15).At(75000, 16)}).Predict()
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, pr.EE)
		}
	}
	fmt.Fprintf(os.Stderr, "\n== ablation: CG EE at 2.0GHz for γ=1,2,3: %.4f %.4f %.4f ==\n", out[0], out[1], out[2])
	b.ReportMetric(out[2]-out[0], "EE-gamma-span")
}

// BenchmarkAblationIdleShare: EE sensitivity to the idle-power share —
// the dominant term in Eo (§V.B.5 rewrite of Eq. 16).
func BenchmarkAblationIdleShare(b *testing.B) {
	var out []float64
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, scale := range []float64{0.5, 1.0, 2.0} {
			mp := machine.SystemG().MustBase()
			mp.PcIdle = units.Watts(float64(mp.PcIdle) * scale)
			mp.PmIdle = units.Watts(float64(mp.PmIdle) * scale)
			mp.PioIdle = units.Watts(float64(mp.PioIdle) * scale)
			mp.Pother = units.Watts(float64(mp.Pother) * scale)
			mp.PsysIdle = mp.PcIdle + mp.PmIdle + mp.PioIdle + mp.Pother
			pr, err := (core.Model{Machine: mp, App: app.FT(20).At(1<<21, 16)}).Predict()
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, pr.EE)
		}
	}
	fmt.Fprintf(os.Stderr, "\n== ablation: FT EE at idle-power ×0.5/×1/×2: %.4f %.4f %.4f ==\n", out[0], out[1], out[2])
	b.ReportMetric(out[0]-out[2], "EE-idle-span")
}

// BenchmarkAblationAlltoallAlgorithm compares the pairwise-exchange
// all-to-all (the paper's assumption) against a naive rooted gather/
// broadcast emulation priced by the model: M and B of pairwise vs
// sequential per-pair sends through a root.
func BenchmarkAblationAlltoallAlgorithm(b *testing.B) {
	mp := machine.SystemG().MustBase()
	p := 32
	blockBytes := 64.0 * 1024
	var pairwise, naive units.Seconds
	for i := 0; i < b.N; i++ {
		// Pairwise: p−1 full-duplex rounds.
		pairwise = units.Seconds(float64(p-1) * (float64(mp.Ts) + blockBytes*float64(mp.Tb)))
		// Naive: every pair routed through rank 0 sequentially:
		// 2·p·(p−1) messages on one NIC.
		naive = units.Seconds(float64(2*p*(p-1)) * (float64(mp.Ts) + blockBytes*float64(mp.Tb)))
	}
	fmt.Fprintf(os.Stderr, "\n== ablation: alltoall p=%d, 64KiB blocks — pairwise %v vs rooted %v (%.0f×) ==\n",
		p, pairwise, naive, float64(naive)/float64(pairwise))
	b.ReportMetric(float64(naive)/float64(pairwise), "slowdown-x")
}

// --- scheduler benchmarks ---

// BenchmarkSchedule runs the schedrun default trace (64 jobs on 64
// SystemG ranks) under three cap levels so future PRs can track
// scheduler throughput and the energy/makespan frontier. The reported
// metrics are virtual: makespan seconds, completed jobs per virtual
// second, and mean energy per completed job. The backfill variant adds
// the tail-wait metric EASY reservations exist to bound. The jobs1k and
// jobs4k tiers stretch the same burst trace: their host-side ns/job and
// B/job against the 64-job rows are the scheduler's scaling slope.
func BenchmarkSchedule(b *testing.B) {
	bfEEMax := func() sched.Policy { return sched.Backfill(sched.EEMax()) }
	run := func(name string, jobs int, cap units.Watts, pol func() sched.Policy) {
		b.Run(name, func(b *testing.B) {
			trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: jobs, Seed: 1})
			var res sched.Result
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := sched.New(sched.Config{
					Platform: machine.Homogeneous(machine.SystemG()),
					Ranks:    64,
					Cap:      cap,
					Policy:   pol(),
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err = s.Run(trace)
				if err != nil {
					b.Fatal(err)
				}
				if res.CapViolations != 0 {
					b.Fatalf("cap violated %d times", res.CapViolations)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perJob := float64(b.N * jobs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perJob, "ns/job")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perJob, "B/job")
			b.ReportMetric(float64(res.Makespan), "vmakespan-s")
			b.ReportMetric(res.Throughput, "jobs/vs")
			b.ReportMetric(float64(res.EnergyPerJob), "J/job")
			b.ReportMetric(float64(res.MaxWait), "maxwait-vs")
			// Rejections matter at tight caps: FIFO's rigid full-width
			// points can be unrunnable where moldable policies fit.
			b.ReportMetric(float64(res.Completed), "done")
		})
	}
	for _, cap := range []units.Watts{2000, 2500, 3000} {
		run(fmt.Sprintf("cap%dW/fifo", int(cap)), 64, cap, sched.FIFO)
		run(fmt.Sprintf("cap%dW/ee-max", int(cap)), 64, cap, sched.EEMax)
		run(fmt.Sprintf("cap%dW/bf-ee-max", int(cap)), 64, cap, bfEEMax)
	}
	run("jobs1k/bf-ee-max", 1024, 2500, bfEEMax)
	run("jobs4k/bf-ee-max", 4096, 2500, bfEEMax)
}

// BenchmarkScheduleTelemetry prices the observers per sink (ROADMAP 5d)
// at the 1k-job tier of BenchmarkSchedule: "off" is the scheduler's
// normal disabled-telemetry path (every emit site short-circuits on one
// nil test; DESIGN.md §9), each other variant the same schedule with
// that exporter streaming to io.Discard. ns/job, B/job and allocs/job
// against the "off" row are what a schedrun -events/-rollup user pays
// for looking (chrometrace prices the sink traceq chrome folds the
// stream through); the events metric is the stream's length.
func BenchmarkScheduleTelemetry(b *testing.B) {
	const jobs = 1024
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: jobs, Seed: 1})
	ndjson := func() telemetry.Sink { return telemetry.NewNDJSONSink(io.Discard) }
	rollup := func() telemetry.Sink {
		s, err := telemetry.NewRollupSink(io.Discard, 1)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	chrometrace := func() telemetry.Sink { return telemetry.NewChromeTraceSink(io.Discard) }
	for _, v := range []struct {
		name  string
		sinks []func() telemetry.Sink
	}{
		{"off", nil},
		{"ndjson", []func() telemetry.Sink{ndjson}},
		{"rollup", []func() telemetry.Sink{rollup}},
		{"chrometrace", []func() telemetry.Sink{chrometrace}},
		{"ndjson+rollup", []func() telemetry.Sink{ndjson, rollup}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var events eventTally
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rec *telemetry.Recorder
				if v.sinks != nil {
					events = 0
					rec = telemetry.New(&events)
					for _, mk := range v.sinks {
						rec.AddSink(mk())
					}
				}
				s, err := sched.New(sched.Config{
					Platform:  machine.Homogeneous(machine.SystemG()),
					Ranks:     64,
					Cap:       2500,
					Policy:    sched.Backfill(sched.EEMax()),
					Seed:      1,
					Telemetry: rec,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(trace); err != nil {
					b.Fatal(err)
				}
				if err := rec.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perJob := float64(b.N * jobs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perJob, "ns/job")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perJob, "B/job")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perJob, "allocs/job")
			b.ReportMetric(float64(events), "events")
		})
	}
}

// eventTally counts the events of a run; it costs one increment each.
type eventTally int

func (n *eventTally) Write(telemetry.Event) error { *n++; return nil }
func (n *eventTally) Close() error                { return nil }

// --- substrate micro-benchmarks ---

func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.NewKernel(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1e-6, tick)
		}
	}
	k.After(1e-6, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMPIAllreduce64Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl, err := cluster.New(cluster.Config{Spec: machine.SystemG(), Ranks: 64, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rt := mpi.New(cl)
		err = rt.Run(func(r *mpi.Rank) {
			mpi.Allreduce(r, float64(r.Rank()), 8, func(a, c float64) float64 { return a + c })
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT3D32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k, err := ft.New(ft.Config{NX: 32, NY: 32, NZ: 32, Iters: 1})
		if err != nil {
			b.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{Spec: machine.SystemG(), Ranks: 4, Alpha: k.Alpha(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := npb.Run(cl, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	mp := machine.SystemG().MustBase()
	w := app.CG(11, 15).At(75000, 64)
	for i := 0; i < b.N; i++ {
		if _, err := (core.Model{Machine: mp, App: w}).Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsoEnergySolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := analysis.IsoEnergyN(machine.SystemG(), app.FT(20), 2.8*units.GHz, 16, 0.75, 1<<10, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchHarnessSmoke keeps `go test ./...` exercising the figure
// plumbing without -bench: every generator must produce sane CSV columns
// in quick mode.
func TestBenchHarnessSmoke(t *testing.T) {
	for _, g := range figures.All() {
		fig, err := g.Run(figures.Options{Quick: true, Seed: 7})
		if err != nil {
			t.Fatalf("figure %s: %v", g.ID, err)
		}
		if !strings.Contains(fig.CSV, ",") {
			t.Fatalf("figure %s: no CSV", g.ID)
		}
	}
	// The EE identity must hold on measured data too: Figure 2a's
	// energy_eff equals E1/Ep by construction; sanity-check bounds.
	fig, err := figures.Fig2a(figures.Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(fig.CSV), "\n")[1:] {
		parts := strings.Split(line, ",")
		var ee float64
		if _, err := fmt.Sscan(parts[4], &ee); err != nil {
			t.Fatal(err)
		}
		if ee <= 0 || ee > 1.2 || math.IsNaN(ee) {
			t.Fatalf("implausible measured EE %g in %q", ee, line)
		}
	}
}
