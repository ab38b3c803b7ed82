package cluster

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
)

// presetPlatform is SystemG and Dori side by side: two real ladders that
// differ in range, step and γ.
func presetPlatform() machine.Platform {
	return machine.Platform{Pools: []machine.NodePool{
		{Spec: machine.SystemG(), Nodes: 4},
		{Spec: machine.Dori(), Nodes: 4},
	}}
}

// The three accessors ReadMeter replaced, kept here as its reference:
// each takes its own busy snapshot and works on copies of the rank's
// vector and bank, exactly as they did.
func oldRetuneCount(c *Cluster, r int) int64 { return c.retunes[r] }

func oldEnergySince(c *Cluster, r int, since units.Seconds, base ComponentBusy) (idle, cpu, mem, io units.Joules, cur ComponentBusy) {
	cur = c.rankBusy(r)
	mp := c.params[r]
	idle = units.Energy(mp.PsysIdle, c.kernel.Now()-since)
	cpu = units.Energy(mp.DeltaPc, cur.Compute-base.Compute)
	mem = units.Energy(mp.DeltaPm, cur.Memory-base.Memory)
	io = units.Energy(mp.DeltaPio, cur.IO-base.IO)
	return idle, cpu, mem, io, cur
}

func oldComponentEnergyTotals(c *Cluster, r int) (idle, cpu, mem, io units.Joules) {
	bk := c.banks[r]
	ti, tc, tm, tio, _ := oldEnergySince(c, r, bk.tBase, bk.busyBase)
	return bk.idle + ti, bk.cpu + tc, bk.mem + tm, bk.io + tio
}

// checkMeter compares one reading of every rank, and an EnergySince from
// an arbitrary earlier banking point, against the reference — with ==,
// not a tolerance: the claim is bit-identity.
func checkMeter(t *testing.T, c *Cluster, at string) {
	t.Helper()
	for r := 0; r < c.Ranks(); r++ {
		got := c.ReadMeter(r)
		idle, cpu, mem, io := oldComponentEnergyTotals(c, r)
		want := MeterReading{
			Busy: c.rankBusy(r), Retunes: oldRetuneCount(c, r),
			Idle: idle, CPU: cpu, Memory: mem, IO: io,
		}
		if got != want {
			t.Errorf("%s: rank %d: ReadMeter = %+v, three accessors = %+v", at, r, got, want)
		}
		base := ComponentBusy{Compute: 1e-7, Memory: 2e-7, IO: 3e-7}
		e, cur := c.EnergySince(r, 1e-7, base)
		oi, oc, om, oio, ocur := oldEnergySince(c, r, 1e-7, base)
		if e != oi+oc+om+oio || cur != ocur {
			t.Errorf("%s: rank %d: EnergySince = (%v, %+v), reference (%v, %+v)", at, r, e, cur, oi+oc+om+oio, ocur)
		}
	}
}

// A scripted run over both pools that reads the meter mid-operation,
// across two retunes inside one reading window (one of them off the
// ladder), after an abort and after completion.
func TestReadMeterEqualsThreeAccessors(t *testing.T) {
	c := mustNew(t, Config{Platform: presetPlatform(), Ranks: 8, Alpha: 0.9})
	k := c.Kernel()
	retune := func(r int, f units.Hertz) {
		t.Helper()
		if err := c.SetRankFrequency(r, f); err != nil {
			t.Fatal(err)
		}
	}
	checkMeter(t, c, "provisioned")

	wall := c.StartCompute(0, 3e6, 7e4, 0.9)   // SystemG pool
	wall4 := c.StartCompute(4, 1e6, 2e4, 0.75) // Dori pool
	c.StartComm(1, 3*units.Millisecond, 1)
	comm := c.StartComm(5, 2*units.Millisecond, 0.9)
	k.After(wall/3, func() {
		checkMeter(t, c, "mid-op")
		// Two retunes of one rank inside one window, mid-operation: the
		// first onto the ladder, the second off it.
		retune(0, 2.2*units.GHz)
		retune(4, 1.4*units.GHz)
	})
	k.After(wall/2, func() {
		retune(0, 2.5*units.GHz)
		retune(4, 1.1*units.GHz)
		checkMeter(t, c, "two retunes in the window")
	})
	k.After(wall4, func() { c.CompleteOp(4) })
	k.After(comm, func() { c.CompleteOp(5) })
	k.After(2*wall/3, func() {
		c.AbortOp(0)
		c.AbortOp(1)
		checkMeter(t, c, "after abort")
		w := c.StartCompute(0, 1e5, 1e3, 1)
		k.After(w/2, func() { checkMeter(t, c, "second op in flight") })
		k.After(w, func() {
			c.CompleteOp(0)
			retune(0, 2.8*units.GHz)
			checkMeter(t, c, "completed and retuned")
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	checkMeter(t, c, "drained")
	if got := c.ReadMeter(0).Retunes; got != 3 {
		t.Fatalf("rank 0 absorbed %d retunes, want 3", got)
	}
}

// The ladder table is a cache of Spec.AtFrequency, not a restriction:
// every ladder frequency of every pool, and an off-ladder one, retunes a
// rank to exactly the vector AtFrequency returns.
func TestLadderTableMatchesAtFrequency(t *testing.T) {
	for _, pl := range []machine.Platform{presetPlatform(), testPlatform(), machine.Homogeneous(testSpec())} {
		c := mustNew(t, Config{Platform: pl, Ranks: pl.TotalRanks()})
		r := 0 // the pool's first rank
		for pi, np := range pl.Pools {
			ladder := np.Spec.Frequencies
			offLadder := (ladder[0] + ladder[len(ladder)-1]) / 2 * 1.0123
			// Walk down, then up, so every on-ladder call is effective.
			freqs := append([]units.Hertz{offLadder}, ladder...)
			for i := len(ladder) - 1; i >= 0; i-- {
				freqs = append(freqs, ladder[i])
			}
			for _, f := range freqs {
				want, err := np.Spec.AtFrequency(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SetRankFrequency(r, f); err != nil {
					t.Fatalf("%s: SetRankFrequency(%d, %v): %v", np.PoolName(), r, f, err)
				}
				if got := c.Params(r); got != want {
					t.Errorf("%s at %v: rank vector %+v, AtFrequency %+v", np.PoolName(), f, got, want)
				}
			}
			// An on-ladder frequency is served from the table itself.
			for i, f := range ladder {
				mp, err := paramsAt(&np.Spec, c.ladders[pi], f)
				if err != nil || mp != &c.ladders[pi][i] {
					t.Errorf("%s: paramsAt(%v) = %p, %v; want table entry %d", np.PoolName(), f, mp, err, i)
				}
			}
			if err := c.SetRankFrequency(r, -1); err == nil {
				t.Errorf("%s: negative frequency must still fail", np.PoolName())
			}
			r += np.Ranks()
		}
	}
}

// The per-event paths allocate nothing once a rank's counters exist.
func TestRankPlaneDoesNotAllocate(t *testing.T) {
	c := mustNew(t, Config{Spec: machine.SystemG(), Ranks: 64, Alpha: 0.9})
	ladder := machine.SystemG().Frequencies
	for r := 0; r < c.Ranks(); r++ {
		c.Counters().Rank(r) // first touch allocates the rank's counters
	}
	i := 0
	var sink float64
	var base ComponentBusy
	for name, fn := range map[string]func(){
		"StartCompute+CompleteOp": func() {
			sink += float64(c.StartCompute(i%64, 1e6, 1e4, 0.9))
			c.CompleteOp(i % 64)
		},
		"StartComm+CompleteOp": func() {
			sink += float64(c.StartComm(i%64, units.Millisecond, 0.9))
			c.CompleteOp(i % 64)
		},
		"effective SetRankFrequency": func() {
			if err := c.SetRankFrequency(i%64, ladder[(i/64)%2]); err != nil {
				t.Fatal(err)
			}
		},
		"EnergySince": func() {
			var e units.Joules
			e, base = c.EnergySince(i%64, 0, base)
			sink += float64(e)
		},
		"ReadMeter": func() { sink += float64(c.ReadMeter(i % 64).Idle) },
	} {
		if got := testing.AllocsPerRun(200, func() { fn(); i++ }); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, got)
		}
	}
	if got := c.ReadMeter(0).Retunes; got == 0 {
		t.Fatal("the retune case never changed a frequency")
	}
}

// BenchmarkOpPair is one StartCompute + CompleteOp on a 64-rank SystemG
// cluster — the scheduler's per-slice cost in this layer.
func BenchmarkOpPair(b *testing.B) {
	c, err := New(Config{Spec: machine.SystemG(), Ranks: 64, Alpha: 0.9, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var sink units.Seconds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += c.StartCompute(i%64, 1e6, 1e4, 0.9)
		c.CompleteOp(i % 64)
	}
	_ = sink
}

// BenchmarkRetune is one effective SetRankFrequency: each rank alternates
// between the ladder's two lowest steps, so every call banks and switches.
func BenchmarkRetune(b *testing.B) {
	c, err := New(Config{Spec: machine.SystemG(), Ranks: 64, Alpha: 0.9, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ladder := machine.SystemG().Frequencies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SetRankFrequency(i%64, ladder[(i/64)%2]); err != nil {
			b.Fatal(err)
		}
	}
}
