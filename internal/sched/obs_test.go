package sched

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opcache"
	"repro/internal/telemetry"
)

func runWithObs(t *testing.T, host *obs.Host) Result {
	t.Helper()
	trace := SyntheticTrace(TraceConfig{Jobs: 48, Seed: 7})
	s, err := New(Config{
		Platform: machine.Homogeneous(machine.SystemG()),
		Ranks:    64,
		Cap:      2500,
		Policy:   Backfill(EEMax()),
		Seed:     7,
		Obs:      host,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The tentpole's disabled-path contract: attaching a host observer
// must not perturb the schedule by a single byte — obs reads the wall
// clock but never feeds back into a decision.
func TestObsOnOffByteIdentical(t *testing.T) {
	off := goldenDump(runWithObs(t, nil))
	on := goldenDump(runWithObs(t, obs.NewHost()))
	if off != on {
		t.Fatal("schedule with obs attached diverges from the bare run")
	}
}

// The enabled host actually observes the run: phase counters track the
// scheduler's hot paths and the gauge sources stay live after Run.
func TestObsObservesRun(t *testing.T) {
	host := obs.NewHost()
	res := runWithObs(t, host)
	snap := host.Snapshot()
	phases := map[string]obs.PhaseSnapshot{}
	for _, p := range snap.Phases {
		phases[p.Phase] = p
	}
	if phases["drain"].Count != 1 {
		t.Fatalf("drain count = %d, want exactly 1 (the whole kernel Run)", phases["drain"].Count)
	}
	if phases["admission"].Count == 0 {
		t.Fatal("admission passes were not counted")
	}
	if phases["backfill"].Count == 0 {
		t.Fatal("backfill shadow walks were not counted (policy is backfill+ee-max)")
	}
	if snap.Kernel.Events == 0 || snap.Kernel.HeapMax == 0 || snap.Kernel.DrainMax == 0 {
		t.Fatalf("kernel gauges empty: %+v", snap.Kernel)
	}
	if snap.Opcache.Hits+snap.Opcache.Misses == 0 {
		t.Fatal("opcache gauges empty")
	}
	if len(snap.Pools) != 1 || snap.Pools[0].Name == "" {
		t.Fatalf("per-pool gauges = %+v", snap.Pools)
	}
	if snap.WallSeconds <= 0 {
		t.Fatalf("wall time %g not captured", snap.WallSeconds)
	}
	if res.Completed != 48 {
		t.Fatalf("observed run completed %d of 48 jobs", res.Completed)
	}
}

// The admission work counts are deterministic per (trace, config) and
// count admission only: a telemetry run, whose edges replay every
// blocked job's search for its block reason, counts the same work as a
// bare one. Every Best call is refused by the floor, searched, or
// unpriced, and a search reads at least one row.
func TestAdmissionWorkCounts(t *testing.T) {
	work := func(rec *telemetry.Recorder) obs.AdmissionWork {
		host := obs.NewHost()
		s, err := New(Config{
			Platform: machine.Homogeneous(machine.SystemG()), Ranks: 64, Cap: 2500, Policy: Backfill(EEMax()), Seed: 7,
			Obs: host, Telemetry: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 96, Seed: 7})); err != nil {
			t.Fatal(err)
		}
		return host.Snapshot().Admission
	}
	bare := work(nil)
	if traced := work(telemetry.New(telemetry.NewMemorySink())); traced != bare {
		t.Fatalf("a traced run counts %+v, the bare run %+v", traced, bare)
	}
	w := bare
	if w.FloorFit == 0 || w.FloorReserved == 0 || w.Searches == 0 || w.Rows < w.Searches ||
		w.Best < w.FloorFit+w.FloorReserved+w.Searches {
		t.Fatalf("admission work %+v: want both floor refusals, searches reading rows, and Best covering them", w)
	}
}

// With two pools the host reports each pool's op-cache counters under
// the pool's own name, and they sum to the aggregate it reports.
func TestObsPoolsSumToAggregate(t *testing.T) {
	pl, err := machine.ParsePlatform("systemg:32,dori:32")
	if err != nil {
		t.Fatal(err)
	}
	host := obs.NewHost()
	s, err := New(Config{Platform: pl, Cap: 2500, Policy: Backfill(EEMax()), Seed: 7, Obs: host})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 48, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	snap := host.Snapshot()
	if len(snap.Pools) != 2 || snap.Pools[0].Name == "" || snap.Pools[0].Name == snap.Pools[1].Name {
		t.Fatalf("per-pool gauges = %+v, want two distinctly named pools", snap.Pools)
	}
	var sum opcache.Stats
	for _, p := range snap.Pools {
		sum.Add(p.Stats)
	}
	if sum != snap.Opcache || sum.Misses == 0 {
		t.Fatalf("pools sum to %+v, the aggregate is %+v", sum, snap.Opcache)
	}
}

// The rollup stream is part of the deterministic output surface: the
// same schedule rolled up under different GOMAXPROCS values must be
// byte-identical (seeded reservoir, tie-broken top-K).
func TestRollupDeterministicAcrossGOMAXPROCS(t *testing.T) {
	render := func(procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		var buf bytes.Buffer
		sink, err := telemetry.NewRollupSink(&buf, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.New(sink)
		trace := SyntheticTrace(TraceConfig{Jobs: 48, Seed: 7})
		s, err := New(Config{
			Platform:  machine.Homogeneous(machine.SystemG()),
			Ranks:     64,
			Cap:       2500,
			Policy:    Backfill(EEMax()),
			Seed:      7,
			Telemetry: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(trace); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := render(1)
	four := render(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("rollup output differs between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
	}
	if len(one) == 0 || !bytes.Contains(one, []byte("# totals:")) {
		t.Fatalf("rollup output incomplete:\n%s", one)
	}
}

// BenchmarkScheduleObs measures the host-observability overhead: the
// off variant is the PR 9 hot path, the on variant adds the phase
// timers and gauge plumbing.
func BenchmarkScheduleObs(b *testing.B) {
	trace := SyntheticTrace(TraceConfig{Jobs: 64, Seed: 1})
	run := func(b *testing.B, host *obs.Host) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := New(Config{
				Platform: machine.Homogeneous(machine.SystemG()),
				Ranks:    64,
				Cap:      2500,
				Policy:   Backfill(EEMax()),
				Seed:     1,
				Obs:      host,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(trace); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, obs.NewHost()) })
}
