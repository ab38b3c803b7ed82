package cluster

import (
	"fmt"
	"math/rand"
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

// MeterReading is one full reading of a rank's meter, everything derived
// from a single busy snapshot taken at the current virtual time:
// cumulative busy time, the retune count, and the cumulative energy
// decomposition from provisioning to now, piecewise-exact across DVFS
// retunes (Idle is the lumped Psys-idle integral).
type MeterReading struct {
	Busy              ComponentBusy
	Retunes           int64
	Idle, CPU, Memory units.Joules
}

// ReadMeter is the full reading StepMeter replaced, kept here as the
// step's reference: differencing two readings is what a step must return.
func (c *Cluster) ReadMeter(rank int) MeterReading {
	r := c.checkRank(rank)
	bk := &c.banks[r]
	idle, cpu, mem, cur := c.componentEnergySince(r, bk.tBase, bk.busyBase)
	return MeterReading{
		Busy:    cur,
		Retunes: c.retunes[r],
		Idle:    bk.idle + idle,
		CPU:     bk.cpu + cpu,
		Memory:  bk.mem + mem,
	}
}

// The three accessors ReadMeter replaced, kept here as its reference:
// each takes its own busy snapshot and works on copies of the rank's
// vector and bank, exactly as they did.
func oldRetuneCount(c *Cluster, r int) int64 { return c.retunes[r] }

func oldEnergySince(c *Cluster, r int, since units.Seconds, base ComponentBusy) (idle, cpu, mem units.Joules, cur ComponentBusy) {
	cur = c.rankBusy(r)
	mp := c.params[r]
	idle = units.Energy(mp.PsysIdle, c.kernel.Now()-since)
	cpu = units.Energy(mp.DeltaPc, cur.Compute-base.Compute)
	mem = units.Energy(mp.DeltaPm, cur.Memory-base.Memory)
	return idle, cpu, mem, cur
}

func oldComponentEnergyTotals(c *Cluster, r int) (idle, cpu, mem units.Joules) {
	bk := c.banks[r]
	ti, tc, tm, _ := oldEnergySince(c, r, bk.tBase, bk.busyBase)
	return bk.idle + ti, bk.cpu + tc, bk.mem + tm
}

// checkMeter compares one reading of every rank, and an EnergySince from
// an arbitrary earlier banking point, against the reference — with ==,
// not a tolerance: the claim is bit-identity.
func checkMeter(t *testing.T, c *Cluster, at string) {
	t.Helper()
	for r := 0; r < c.Ranks(); r++ {
		got := c.ReadMeter(r)
		idle, cpu, mem := oldComponentEnergyTotals(c, r)
		want := MeterReading{
			Busy: c.rankBusy(r), Retunes: oldRetuneCount(c, r),
			Idle: idle, CPU: cpu, Memory: mem,
		}
		if got != want {
			t.Errorf("%s: rank %d: ReadMeter = %+v, three accessors = %+v", at, r, got, want)
		}
		base := ComponentBusy{Compute: 1e-7, Memory: 2e-7}
		e, cur := c.EnergySince(r, 1e-7, base)
		oi, oc, om, ocur := oldEnergySince(c, r, 1e-7, base)
		if e != oi+oc+om || cur != ocur {
			t.Errorf("%s: rank %d: EnergySince = (%v, %+v), reference (%v, %+v)", at, r, e, cur, oi+oc+om, ocur)
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

// meterScript drives rank r through a random script of the five meter
// mutators until the given time: compute and transfer operations
// completed at their end or held past it (as a slice's compute op is
// through its comm time) or aborted part-way, and bursts of retunes
// (ineffective ones included), with gaps that leave whole sampling
// windows quiet and others that pack several retunes into one.
func meterScript(c *Cluster, r int, rng *rand.Rand, interval, until units.Seconds) {
	k := c.Kernel()
	ladder := c.platform.Pools[c.rankPool[r]].Spec.Frequencies
	var end units.Seconds // the in-flight operation's end
	var act func()
	next := func(gap units.Seconds) {
		if k.Now()+gap < until {
			k.After(gap, act)
		}
	}
	act = func() {
		gap := units.Seconds(rng.ExpFloat64()*0.5) * interval
		switch x := rng.Intn(10); {
		case x < 2: // a retune burst
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if err := c.SetRankFrequency(r, ladder[rng.Intn(len(ladder))]); err != nil {
					panic(err)
				}
			}
			gap /= 4
		case x < 4: // a quiet stretch of several windows
			gap = units.Seconds(2+rng.Intn(4)) * interval
		case c.opActive[r] && x < 7:
			gap = max(end-k.Now(), 0)
			if rng.Intn(2) == 0 {
				gap += units.Seconds(rng.Float64()) * interval
			}
			k.After(gap, func() { c.CompleteOp(r) })
		case c.opActive[r]:
			c.AbortOp(r)
		case x < 7:
			end = k.Now() + c.StartCompute(r, rng.Float64()*5e6, rng.Float64()*5e3, 0.5+rng.Float64()/2)
		default:
			end = k.Now() + c.StartComm(r, units.Seconds(3*rng.Float64())*interval, 0.5+rng.Float64()/2)
		}
		next(gap)
	}
	next(units.Seconds(rng.Float64()) * interval)
}

// Over random per-rank scripts of the five mutators, every StepMeter
// equals differencing two ReadMeter readings bit for bit: a quiet step
// only where the full reading did not move, a retuned one exactly where
// the retune count did, and the step's own reading the full one.
func TestStepMeterMatchesReadMeter(t *testing.T) {
	const clusters, interval, horizon = 40, units.Millisecond, 40 * units.Millisecond
	var kinds [3]int
	multi := 0 // windows spanning two or more effective retunes
	for seed := range int64(clusters) {
		c := mustNew(t, Config{Platform: presetPlatform(), Ranks: 8, Alpha: 0.9, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < c.Ranks(); r++ {
			meterScript(c, r, rng, interval, horizon)
		}
		meters := make([]Meter, c.Ranks())
		prev := make([]MeterReading, c.Ranks())
		var sample func()
		sample = func() {
			for r := range meters {
				m, p := &meters[r], &prev[r]
				got, cur := c.StepMeter(r, m), c.ReadMeter(r)
				kinds[got]++
				if cur.Retunes-p.Retunes >= 2 {
					multi++
				}
				want := MeterSteady
				if cur.Retunes != p.Retunes {
					want = MeterRetuned
				}
				at := fmt.Sprintf("seed %d rank %d at %v", seed, r, c.Kernel().Now())
				switch {
				case got == MeterQuiet:
					if moved := (MeterReading{Busy: cur.Busy, Retunes: cur.Retunes, Idle: p.Idle, CPU: cur.CPU, Memory: cur.Memory}); moved != *p {
						t.Fatalf("%s: quiet step, but the reading moved from %+v to %+v", at, *p, cur)
					}
				case got != want:
					t.Fatalf("%s: step %d, want %d (retunes %d → %d)", at, got, want, p.Retunes, cur.Retunes)
				case m.Busy != cur.Busy.BusySince(p.Busy) || m.Idle != cur.Idle-p.Idle || m.CPU != cur.CPU-p.CPU ||
					m.Memory != cur.Memory-p.Memory:
					t.Fatalf("%s: window %+v, readings differ by busy %+v, energies %v %v %v", at, *m,
						cur.Busy.BusySince(p.Busy), cur.Idle-p.Idle, cur.CPU-p.CPU, cur.Memory-p.Memory)
				}
				if own := (MeterReading{Busy: m.busy, Retunes: m.retunes, Idle: m.idle, CPU: m.cpu, Memory: m.mem}); own != cur {
					t.Fatalf("%s: the step's reading %+v, ReadMeter %+v", at, own, cur)
				}
				*p = cur
			}
			if c.Kernel().Now() < horizon+4*interval {
				c.Kernel().After(interval, sample)
			}
		}
		sample() // a zero Meter reads from provisioning
		if err := c.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
	}
	if kinds[MeterQuiet] == 0 || kinds[MeterSteady] == 0 || kinds[MeterRetuned] == 0 || multi == 0 {
		t.Fatalf("the scripts missed a case: %d quiet, %d steady, %d retuned steps, %d multi-retune windows",
			kinds[MeterQuiet], kinds[MeterSteady], kinds[MeterRetuned], multi)
	}
	t.Logf("%d scripts: %d quiet, %d steady, %d retuned steps, %d multi-retune windows",
		clusters*8, kinds[MeterQuiet], kinds[MeterSteady], kinds[MeterRetuned], multi)
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

// The per-event paths allocate nothing.
func TestRankPlaneDoesNotAllocate(t *testing.T) {
	c := mustNew(t, Config{Spec: machine.SystemG(), Ranks: 64, Alpha: 0.9})
	ladder := machine.SystemG().Frequencies
	i := 0
	var sink float64
	var base ComponentBusy
	meters := make([]Meter, c.Ranks())
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
		"StepMeter": func() { sink += float64(c.StepMeter(i%64, &meters[i%64])) },
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

// heldReading is one reading a held-op script takes of a rank: a
// StepMeter step, the full ReadMeter and an EnergySince from the rank's
// previous reading.
type heldReading struct {
	rank              int
	at                units.Seconds
	step              MeterStep
	busy              ComponentBusy
	idle, cpu, memory units.Joules
	full              MeterReading
	since             units.Joules
	cur               ComponentBusy
}

// heldScript runs every rank of c through slices compute ops, each
// followed by d of network time at its op's α, as the scheduler once did
// (held false: CompleteOp at the op's end, then StartComm(d) and its
// CompleteOp) or does now (held: one CompleteOp at end + α·d). Reads,
// retunes and aborts land at random in each slice's span [start, end +
// α·d], the exact ends included, and each rank's next slice starts a gap
// after its last one completed or was aborted. Each rank draws its script
// from its own stream, in its own events only, so both forms run the
// same script. It returns every reading, the tail hits (reads, retunes,
// aborts inside a comm time) and the drained cluster's energy and wall.
func heldScript(c *Cluster, seed int64, slices int, held bool) (reads []heldReading, tail [3]int, rep EnergyReport) {
	k := c.Kernel()
	for r := 0; r < c.Ranks(); r++ {
		rng := rand.New(rand.NewSource(seed*int64(c.Ranks()) + int64(r)))
		ladder := c.platform.Pools[c.rankPool[r]].Spec.Frequencies
		var m Meter
		var since units.Seconds
		var base ComponentBusy
		gen, left := 0, slices
		var start func()
		finish := func() {
			gen++
			if left--; left > 0 {
				k.After(units.Seconds(rng.Intn(3))*units.Seconds(rng.Float64())*units.Millisecond, start)
			}
		}
		start = func() {
			mine, t0 := gen, k.Now()
			alpha := 0.5 + rng.Float64()/2
			end := t0 + c.StartCompute(r, rng.Float64()*2e6, rng.Float64()*2e3, alpha)
			var d units.Seconds
			if rng.Intn(4) > 0 {
				d = units.Seconds(rng.Float64()) * units.Millisecond
			}
			span := end
			if d > 0 {
				span += units.Seconds(alpha * float64(d))
			}
			inTail := func() int {
				if now := k.Now(); now > end && now < span {
					return 1
				}
				return 0
			}
			for n := rng.Intn(6); n > 0; n-- {
				at := min(t0+units.Seconds(rng.Float64())*(span-t0), span)
				switch rng.Intn(4) {
				case 0:
					at = end
				case 1:
					at = span
				}
				switch x, f := rng.Intn(6), ladder[rng.Intn(len(ladder))]; {
				case x < 3:
					k.Schedule(at, func() {
						step := c.StepMeter(r, &m)
						e, cur := c.EnergySince(r, since, base)
						reads = append(reads, heldReading{r, k.Now(), step, m.Busy, m.Idle, m.CPU, m.Memory, c.ReadMeter(r), e, cur})
						since, base = k.Now(), cur
						tail[0] += inTail()
					})
				case x < 5:
					k.Schedule(at, func() {
						if err := c.SetRankFrequency(r, f); err != nil {
							panic(err)
						}
						tail[1] += inTail()
					})
				default:
					k.Schedule(at, func() {
						if gen == mine {
							tail[2] += inTail()
							c.AbortOp(r)
							finish()
						}
					})
				}
			}
			done := func() {
				if gen == mine {
					c.CompleteOp(r)
					finish()
				}
			}
			switch {
			case held || d == 0:
				k.Schedule(span, done)
			default:
				k.Schedule(end, func() {
					if gen == mine {
						c.CompleteOp(r)
						k.After(c.StartComm(r, d, alpha), done)
					}
				})
			}
		}
		k.After(units.Seconds(rng.Float64())*units.Millisecond, start)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return reads, tail, c.TrueEnergy()
}

// Holding a slice's compute op in flight through the comm time after it
// reads exactly as completing it at its end and running the comm time as
// a StartComm transfer: over random scripts on both preset pools, under
// execution noise, every StepMeter step, full reading and EnergySince
// is ==, and so are the drained cluster's energy and makespan. The
// makespan is compared drained only: mid-tail, the two-op form has
// already noted the compute end.
func TestHeldOpMatchesCompleteThenComm(t *testing.T) {
	var hits [3]int
	for seed := range int64(20) {
		cfg := Config{Platform: presetPlatform(), Ranks: 8, Alpha: 0.9, Noise: DefaultNoise(), Seed: seed}
		was, _, wasRep := heldScript(mustNew(t, cfg), seed, 12, false)
		got, tail, gotRep := heldScript(mustNew(t, cfg), seed, 12, true)
		if len(got) != len(was) {
			t.Fatalf("seed %d: %d readings held, %d completed then transferred", seed, len(got), len(was))
		}
		for i := range got {
			if got[i] != was[i] {
				t.Fatalf("seed %d: reading %d held %+v, completed then transferred %+v", seed, i, got[i], was[i])
			}
		}
		if gotRep != wasRep {
			t.Fatalf("seed %d: drained energy held %v, completed then transferred %v", seed, gotRep, wasRep)
		}
		for i := range hits {
			hits[i] += tail[i]
		}
	}
	if hits[0] == 0 || hits[1] == 0 || hits[2] == 0 {
		t.Fatalf("the scripts missed the comm time: %d reads, %d retunes, %d aborts inside it", hits[0], hits[1], hits[2])
	}
	t.Logf("inside a comm time: %d reads, %d retunes, %d aborts", hits[0], hits[1], hits[2])
}
