package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/units"
)

// testSpec returns a small machine with round numbers so timing and
// energy can be checked by hand:
// tc = 1ns (CPI 2 @ 2GHz), tm = 100ns, Ts = 10µs, Tb = 1ns/B,
// ΔPc = 20W, ΔPm = 10W, Psys-idle = 100W.
func testSpec() machine.Spec {
	return machine.Spec{
		Name:             "test",
		CPI:              2,
		BaseFreq:         2 * units.GHz,
		Frequencies:      []units.Hertz{1 * units.GHz, 2 * units.GHz},
		Gamma:            2,
		Tm:               100 * units.Nanosecond,
		Ts:               10 * units.Microsecond,
		Tb:               1 * units.Nanosecond,
		DeltaPcBase:      20,
		DeltaPm:          10,
		PcIdle:           40,
		PmIdle:           20,
		PioIdle:          10,
		Pother:           30,
		IdleFreqFraction: 0,
		CoresPerNode:     4,
		Nodes:            16,
	}
}

func mustNew(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Spec: testSpec(), Ranks: 0}); err == nil {
		t.Error("ranks=0 must fail")
	}
	if _, err := New(Config{Spec: testSpec(), Ranks: 1, Alpha: 1.5}); err == nil {
		t.Error("alpha>1 must fail")
	}
	if _, err := New(Config{Spec: testSpec(), Ranks: 1, Alpha: -0.1}); err == nil {
		t.Error("alpha<0 must fail")
	}
	// One rank per node: at most as many ranks as nodes.
	if _, err := New(Config{Spec: testSpec(), Ranks: 17}); err == nil {
		t.Error("17 ranks on 16 nodes must fail")
	}
	// PoolFreqs length mismatch.
	if _, err := New(Config{Spec: testSpec(), Ranks: 1, PoolFreqs: []units.Hertz{1 * units.GHz, 2 * units.GHz}}); err == nil {
		t.Error("PoolFreqs length mismatch must fail")
	}
}

// testPlatform is a two-pool layout over the hand-checkable test spec: a
// "fast" pool of 4 nodes and a "slow" 1 GHz-capped pool of 4 nodes.
func testPlatform() machine.Platform {
	slow := testSpec()
	slow.Name = "slowtest"
	slow.BaseFreq = 1 * units.GHz
	slow.Frequencies = []units.Hertz{1 * units.GHz}
	return machine.Platform{Pools: []machine.NodePool{
		{Name: "fast", Spec: testSpec(), Nodes: 4},
		{Name: "slow", Spec: slow, Nodes: 4},
	}}
}

// A uniform Config.Freq cannot name an operating point on several pool
// ladders; multi-pool platforms must use PoolFreqs, and mixing the two
// is an explicit configuration error.
func TestFreqConflictsWithPlatform(t *testing.T) {
	_, err := New(Config{Platform: testPlatform(), Ranks: 8, Freq: 1 * units.GHz})
	if err == nil {
		t.Fatal("uniform Freq on a multi-pool platform must be rejected")
	}
	if !strings.Contains(err.Error(), "PoolFreqs") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := New(Config{Spec: testSpec(), Ranks: 1, Freq: 1 * units.GHz,
		PoolFreqs: []units.Hertz{1 * units.GHz}}); err == nil {
		t.Fatal("Freq alongside PoolFreqs must be rejected")
	}
	// PoolFreqs alone works; zero entries mean the pool's BaseFreq.
	c := mustNew(t, Config{Platform: testPlatform(), Ranks: 8,
		PoolFreqs: []units.Hertz{1 * units.GHz, 0}})
	if got := c.Params(0).Freq; got != 1*units.GHz {
		t.Fatalf("pool 0 frequency %v, want 1 GHz", got)
	}
	if got := c.Params(4).Freq; got != 1*units.GHz {
		t.Fatalf("pool 1 frequency %v, want its 1 GHz base", got)
	}
}

// comm occupies rank 0's network for busy time d at overlap alpha:
// StartComm, a sleep through the returned wall time, CompleteOp.
func comm(c *Cluster, d units.Seconds, alpha float64) {
	c.Kernel().Spawn("comm", func(p *sim.Proc) {
		p.Sleep(c.StartComm(0, d, alpha))
		c.CompleteOp(0)
	})
}

// A StartComm transfer holds the rank for α·d of wall time and prices
// no active delta: the rank's busy time stays zero through the transfer
// and its energy is idle power over the makespan it extends.
func TestStartCommHoldsRankWithoutBusyTime(t *testing.T) {
	for _, alpha := range []float64{1, 0.5} {
		c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
		comm(c, 2, alpha) // 2 s of network time
		var mid MeterReading
		c.Kernel().After(units.Seconds(alpha), func() {
			mid = c.ReadMeter(0)
			defer func() {
				if recover() == nil {
					t.Errorf("α=%g: a second operation mid-transfer must panic", alpha)
				}
			}()
			c.StartCompute(0, 1, 0, 1)
		})
		if err := c.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		if mid.Busy != (ComponentBusy{}) || mid.CPU != 0 || mid.Memory != 0 {
			t.Fatalf("α=%g: mid-transfer reading %+v, want no busy time or active energy", alpha, mid)
		}
		if math.Abs(float64(c.Wall())-2*alpha) > 1e-12 {
			t.Fatalf("α=%g: wall = %v, want %gs (α-scaled)", alpha, c.Wall(), 2*alpha)
		}
		if e := c.TrueEnergy(); e.Total != e.Idle || e.Idle != units.Energy(c.Params(0).PsysIdle, c.Wall()) {
			t.Fatalf("α=%g: energy %v, want idle power over the wall", alpha, e)
		}
	}
}

func TestComputeTiming(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	c.Kernel().Spawn("r0", func(p *sim.Proc) {
		// 1000 on-chip ops at 1ns + 10 memory accesses at 100ns
		// = 1µs + 1µs = 2µs (α=1, no noise).
		c.Compute(p, 0, 1000, 10)
	})
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	want := 2 * units.Microsecond
	if math.Abs(float64(c.Wall()-want)) > 1e-15 {
		t.Fatalf("wall = %v, want %v", c.Wall(), want)
	}
	if ctr := c.Counters()[0]; ctr.OnChipOps != 1000 || ctr.OffChipAccesses != 10 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestComputeOverlapAlpha(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1, Alpha: 0.5})
	c.Kernel().Spawn("r0", func(p *sim.Proc) {
		c.Compute(p, 0, 1000, 10) // un-overlapped 2µs
	})
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	// Wall time is α-scaled…
	want := 1 * units.Microsecond
	if math.Abs(float64(c.Wall()-want)) > 1e-15 {
		t.Fatalf("wall = %v, want %v", c.Wall(), want)
	}
	// …but busy-time attribution is not (Eq. 9 uses full Won·tc).
	b := c.busy[0]
	if math.Abs(float64(b.Compute-1*units.Microsecond)) > 1e-15 {
		t.Fatalf("compute busy = %v, want 1µs", b.Compute)
	}
	if math.Abs(float64(b.Memory-1*units.Microsecond)) > 1e-15 {
		t.Fatalf("memory busy = %v, want 1µs", b.Memory)
	}
}

func TestEnergyEquation(t *testing.T) {
	// Single rank: E = Psys-idle·αT + ΔPc·Wc·tc + ΔPm·Wm·tm (Eq. 13).
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	c.Kernel().Spawn("r0", func(p *sim.Proc) {
		c.Compute(p, 0, 1e9, 1e6) // 1s CPU + 0.1s memory
	})
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	rep := c.TrueEnergy()
	wantWall := units.Seconds(1.1)
	if math.Abs(float64(rep.Wall-wantWall)) > 1e-12 {
		t.Fatalf("wall = %v, want %v", rep.Wall, wantWall)
	}
	wantIdle := 100.0 * 1.1 // Psys-idle=100W
	wantCPU := 20.0 * 1.0
	wantMem := 10.0 * 0.1
	if math.Abs(float64(rep.Idle)-wantIdle) > 1e-9 ||
		math.Abs(float64(rep.CPU)-wantCPU) > 1e-9 ||
		math.Abs(float64(rep.Memory)-wantMem) > 1e-9 {
		t.Fatalf("report %v, want idle=%g cpu=%g mem=%g", rep, wantIdle, wantCPU, wantMem)
	}
	wantTotal := wantIdle + wantCPU + wantMem
	if math.Abs(float64(rep.Total)-wantTotal) > 1e-9 {
		t.Fatalf("total = %v, want %g", rep.Total, wantTotal)
	}
}

func TestParallelIdleEnergyScalesWithRanks(t *testing.T) {
	// Eq. 15: every provisioned processor burns idle power for the whole
	// parallel wall time.
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 4})
	for r := 0; r < 4; r++ {
		r := r
		c.Kernel().Spawn("rank", func(p *sim.Proc) {
			c.Compute(p, r, 1e9, 0) // each busy 1s
		})
	}
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	rep := c.TrueEnergy()
	wantIdle := 4 * 100.0 * 1.0
	if math.Abs(float64(rep.Idle)-wantIdle) > 1e-9 {
		t.Fatalf("idle = %v, want %g", rep.Idle, wantIdle)
	}
	wantCPU := 4 * 20.0
	if math.Abs(float64(rep.CPU)-wantCPU) > 1e-9 {
		t.Fatalf("cpu = %v, want %g", rep.CPU, wantCPU)
	}
}

func TestMessageTimeSelfCopyAndInterconnect(t *testing.T) {
	// Every rank has its own node: a message between two ranks costs the
	// Hockney time, a self-copy half a shared-memory transfer.
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 8})
	want := netmodel.Hockney{Ts: 10 * units.Microsecond, Tb: 1 * units.Nanosecond}.MessageTime(1000)
	for _, dst := range []int{1, 4, 7} {
		if got := c.MessageTime(0, dst, 1000); math.Abs(float64(got-want)) > 1e-15 {
			t.Fatalf("0→%d time %v, want %v", dst, got, want)
		}
	}
	self := c.MessageTime(3, 3, 1000)
	shm := netmodel.Hockney{Ts: 1 * units.Microsecond, Tb: 0.1 * units.Nanosecond}.MessageTime(1000)
	if math.Abs(float64(self-shm/2)) > 1e-15 {
		t.Fatalf("self-copy %v, want %v", self, shm/2)
	}
	if self >= want {
		t.Fatalf("self-copy (%v) should beat the interconnect (%v)", self, want)
	}
}

func TestMessageTimePerPool(t *testing.T) {
	// Ranks 0–1 are SystemG, 2–3 Dori: a message is priced with its
	// endpoints' pool vectors, the slower of each when they differ.
	pf, err := machine.ParsePlatform("systemg:2,dori:2")
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{Platform: pf, Ranks: 4})
	sg, dori := machine.SystemG(), machine.Dori()
	if sg.Ts >= dori.Ts || sg.Tb >= dori.Tb {
		t.Fatalf("presets changed: SystemG (%v, %v) is no longer faster than Dori (%v, %v)", sg.Ts, sg.Tb, dori.Ts, dori.Tb)
	}
	hockney := func(ts, tb units.Seconds) units.Seconds {
		return netmodel.Hockney{Ts: ts, Tb: tb}.MessageTime(1000)
	}
	for _, tc := range []struct {
		name     string
		src, dst int
		want     units.Seconds
	}{
		{"SystemG↔SystemG", 0, 1, hockney(sg.Ts, sg.Tb)},
		{"Dori↔Dori", 2, 3, hockney(dori.Ts, dori.Tb)},
		{"SystemG→Dori", 1, 2, hockney(max(sg.Ts, dori.Ts), max(sg.Tb, dori.Tb))},
		{"Dori→SystemG", 3, 0, hockney(max(sg.Ts, dori.Ts), max(sg.Tb, dori.Tb))},
		{"SystemG self-copy", 1, 1, hockney(sg.Ts/10, sg.Tb/10) / 2},
		{"Dori self-copy", 2, 2, hockney(dori.Ts/10, dori.Tb/10) / 2},
	} {
		if got := c.MessageTime(tc.src, tc.dst, 1000); got != tc.want {
			t.Errorf("%s (%d→%d): %v, want %v", tc.name, tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestNICSerialisesReceiver(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 8})
	// sendAll starts one message per (src, dst) pair at t=0 and returns
	// when each one ends.
	sendAll := func(pairs [][2]int) []units.Seconds {
		c := mustNew(t, Config{Spec: testSpec(), Ranks: 8})
		ends := make([]units.Seconds, len(pairs))
		for i, sd := range pairs {
			i, src, dst := i, sd[0], sd[1]
			c.Kernel().Spawn("sender", func(p *sim.Proc) {
				d := c.MessageTime(src, dst, 1000)
				_, end := c.ReserveLink(p.Now(), src, dst, d)
				p.SleepUntil(end)
				ends[i] = p.Now()
			})
		}
		if err := c.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	d := c.MessageTime(0, 4, 1000)
	// Two ranks sending to one receiver serialise on its rx channel.
	if ends := sendAll([][2]int{{0, 4}, {1, 4}}); math.Max(float64(ends[0]), float64(ends[1])) != float64(2*d) {
		t.Fatalf("sends into one receiver end at %v, want one at %v", ends, 2*d)
	}
	// One sender to two receivers serialises on its tx channel.
	if ends := sendAll([][2]int{{0, 4}, {0, 5}}); math.Max(float64(ends[0]), float64(ends[1])) != float64(2*d) {
		t.Fatalf("two sends from one rank end at %v, want one at %v", ends, 2*d)
	}
	// Distinct senders to distinct receivers proceed in parallel: ranks
	// do not share a NIC.
	if ends := sendAll([][2]int{{0, 4}, {1, 5}}); ends[0] != d || ends[1] != d {
		t.Fatalf("disjoint sends end at %v, want both at %v", ends, d)
	}
	// NICs are full duplex: an exchange does not wait on itself.
	if ends := sendAll([][2]int{{0, 4}, {4, 0}}); ends[0] != d || ends[1] != d {
		t.Fatalf("exchange ends at %v, want both at %v", ends, d)
	}
}

// Two transfers booked at once on one link serialise: the second starts
// when the first ends.
func TestNICSerialises(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 2})
	for i, want := range []units.Seconds{10, 20} {
		if start, end := c.ReserveLink(0, 0, 1, 10); start != want-10 || end != want {
			t.Fatalf("transfer %d = [%v,%v], want [%v,%v]", i, start, end, want-10, want)
		}
	}
	// A self message never occupies the NIC.
	if start, end := c.ReserveLink(0, 1, 1, 5); start != 0 || end != 5 {
		t.Fatalf("self message = [%v,%v], want [0,5]", start, end)
	}
}

// A link idle since its last transfer starts the next one at once.
func TestNICIdleGap(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 2})
	c.ReserveLink(0, 0, 1, 5) // [0,5], then idle [5,15]
	if start, end := c.ReserveLink(15, 0, 1, 5); start != 15 || end != 20 {
		t.Fatalf("second transfer = [%v,%v], want [15,20]", start, end)
	}
}

// Property: over any sequence of transfers between random ranks, each
// starts at the first instant both its channels are free and no earlier
// than now, lasts exactly its duration, and no channel carries two
// transfers at once — so a channel's busy time is the sum of its
// transfers' durations.
func TestNICReservationProperty(t *testing.T) {
	const ranks = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mustNew(t, Config{Spec: testSpec(), Ranks: ranks})
		var txEnd, rxEnd, txBusy, rxBusy, txSum, rxSum [ranks]units.Seconds
		now := units.Seconds(0)
		for i := 0; i < 50; i++ {
			src, dst := rng.Intn(ranks), rng.Intn(ranks)
			if src == dst {
				continue
			}
			d := units.Seconds(rng.Float64() * 3)
			now += units.Seconds(rng.Float64()) // time advances between calls
			start, end := c.ReserveLink(now, src, dst, d)
			if start != max(now, txEnd[src], rxEnd[dst]) || end != start+d {
				return false
			}
			txEnd[src], rxEnd[dst] = end, end
			txBusy[src] += end - start
			rxBusy[dst] += end - start
			txSum[src] += d
			rxSum[dst] += d
		}
		for r := range ranks {
			if math.Abs(float64(txBusy[r]-txSum[r])) > 1e-9 || math.Abs(float64(rxBusy[r]-rxSum[r])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseDeterminism(t *testing.T) {
	run := func(seed int64) units.Joules {
		c := mustNew(t, Config{Spec: testSpec(), Ranks: 2, Noise: DefaultNoise(), Seed: seed})
		for r := 0; r < 2; r++ {
			r := r
			c.Kernel().Spawn("rank", func(p *sim.Proc) {
				c.Compute(p, r, 1e7, 1e4)
			})
		}
		if err := c.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		return c.MeasuredEnergy().Total
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different measured energy: %v vs %v", a, b)
	}
	if c := run(8); c == a {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestMeasuredVsTrueEnergyNoiseMagnitude(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1, Noise: DefaultNoise(), Seed: 3})
	c.Kernel().Spawn("r0", func(p *sim.Proc) {
		c.Compute(p, 0, 1e8, 1e5)
	})
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	truth := c.TrueEnergy().Total
	meas := c.MeasuredEnergy().Total
	rel := math.Abs(float64(meas-truth)) / float64(truth)
	if rel > 0.15 {
		t.Fatalf("meter noise %.1f%% implausibly large", rel*100)
	}
	// Repeated measurements differ (fresh meter noise) but stay close.
	again := c.MeasuredEnergy().Total
	if again == meas {
		t.Fatal("repeated measurements should draw fresh noise")
	}
}

// Each rank's meter reads its own busy time and its own idle power.
func TestMeterBusyAndIdlePowerPerRank(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 2})
	c.Kernel().Spawn("r0", func(p *sim.Proc) { c.Compute(p, 0, 1e6, 0) })
	c.Kernel().Spawn("r1", func(p *sim.Proc) { c.Compute(p, 1, 0, 1e4) })
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	b0, b1 := c.ReadMeter(0).Busy, c.ReadMeter(1).Busy
	if math.Abs(float64(b0.Compute-1*units.Millisecond)) > 1e-12 {
		t.Fatalf("rank 0 compute busy = %v, want 1ms", b0.Compute)
	}
	if b0.Memory != 0 {
		t.Fatalf("rank 0 memory busy = %v, want 0", b0.Memory)
	}
	delta := b1.BusySince(b0)
	if math.Abs(float64(delta.Memory-1*units.Millisecond)) > 1e-12 {
		t.Fatalf("delta memory = %v", delta.Memory)
	}
	if got := c.Params(0).PsysIdle + c.Params(1).PsysIdle; got != 200 {
		t.Fatalf("idle power = %v, want 200 W", got)
	}
	if got := c.Params(0).PsysIdle; got != 100 {
		t.Fatalf("idle power rank0 = %v, want 100 W", got)
	}
}

func TestHeterogeneousPlatform(t *testing.T) {
	c := mustNew(t, Config{Platform: testPlatform(), Ranks: 8})
	// Global rank numbering: ranks 0–3 are the fast pool, 4–7 the slow.
	if c.PoolOf(0) != 0 || c.PoolOf(3) != 0 || c.PoolOf(4) != 1 || c.PoolOf(7) != 1 {
		t.Fatalf("rank→pool map wrong: %d %d %d %d", c.PoolOf(0), c.PoolOf(3), c.PoolOf(4), c.PoolOf(7))
	}
	if a, b := c.platform.Pools[c.PoolOf(0)].Spec.Name, c.platform.Pools[c.PoolOf(4)].Spec.Name; a != "test" || b != "slowtest" {
		t.Fatalf("rank specs: %s, %s", a, b)
	}
	var endFast, endSlow units.Seconds
	c.Kernel().Spawn("fast", func(p *sim.Proc) {
		c.Compute(p, 0, 1e6, 0)
		endFast = p.Now()
	})
	c.Kernel().Spawn("slow", func(p *sim.Proc) {
		c.Compute(p, 4, 1e6, 0)
		endSlow = p.Now()
	})
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	if !(endSlow > endFast) {
		t.Fatalf("slow rank (%v) should finish after fast rank (%v)", endSlow, endFast)
	}
	if math.Abs(float64(endSlow)/float64(endFast)-2) > 1e-9 {
		t.Fatalf("1GHz pool should take 2× as long as the 2GHz pool: %v vs %v", endSlow, endFast)
	}
}

func TestNegativeWorkloadPanics(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	c.Kernel().Spawn("bad", func(p *sim.Proc) { c.Compute(p, 0, -1, 0) })
	if err := c.Kernel().Run(); err == nil {
		t.Fatal("negative workload must abort the run")
	}
}

func TestRankOutOfRangePanics(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	c.Kernel().Spawn("bad", func(p *sim.Proc) { c.Compute(p, 5, 1, 0) })
	if err := c.Kernel().Run(); err == nil {
		t.Fatal("out-of-range rank must abort the run")
	}
}

// Mid-run DVFS: energy banked at the outgoing operating point must price
// each phase at the parameters it executed under.
func TestSetRankFrequencyMidRunEnergy(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	c.Kernel().Spawn("dvfs", func(p *sim.Proc) {
		c.Compute(p, 0, 1e6, 0) // 1 ms at 2 GHz, ΔPc = 20 W
		if err := c.SetRankFrequency(0, 1*units.GHz); err != nil {
			t.Error(err)
		}
		c.Compute(p, 0, 1e6, 0) // 2 ms at 1 GHz, ΔPc = 5 W
	})
	if err := c.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	rep := c.TrueEnergy()
	wantWall := 3 * units.Millisecond
	if math.Abs(float64(rep.Wall-wantWall)) > 1e-12 {
		t.Fatalf("wall %v, want %v", rep.Wall, wantWall)
	}
	// CPU: 20 W × 1 ms + 5 W × 2 ms = 0.03 J (a single-operating-point
	// accounting would misprice the first phase at the final ΔPc).
	if got, want := float64(rep.CPU), 0.03; math.Abs(got-want) > 1e-9 {
		t.Fatalf("piecewise CPU energy %g J, want %g J", got, want)
	}
	// Idle is frequency-flat on the test spec: 100 W × 3 ms.
	if got, want := float64(rep.Idle), 0.3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("idle energy %g J, want %g J", got, want)
	}
	if c.Params(0).Freq != 1*units.GHz {
		t.Fatalf("rank frequency not updated: %v", c.Params(0).Freq)
	}
}

func TestSetRankFrequencyValidation(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	if err := c.SetRankFrequency(0, -1); err == nil {
		t.Error("negative frequency must fail")
	}
	// Same-frequency call is a no-op, not an error.
	if err := c.SetRankFrequency(0, testSpec().BaseFreq); err != nil {
		t.Error(err)
	}
}

// SetRankFrequency retunes a rank against its own pool's Spec: the same
// target frequency yields pool-specific vectors (γ and base frequency
// differ per pool), and energy banking keeps heterogeneous accounting
// exact.
func TestSetRankFrequencyPerPool(t *testing.T) {
	c := mustNew(t, Config{Platform: testPlatform(), Ranks: 8})
	// Fast pool retunes down its own ladder: ΔPc = 20·(1/2)² = 5 W.
	if err := c.SetRankFrequency(0, 1*units.GHz); err != nil {
		t.Fatal(err)
	}
	if got := float64(c.Params(0).DeltaPc); math.Abs(got-5) > 1e-12 {
		t.Fatalf("fast-pool ΔPc at 1 GHz = %g W, want 5 W", got)
	}
	// Slow pool's base IS 1 GHz: the same frequency is its full ΔPc.
	if got := float64(c.Params(4).DeltaPc); math.Abs(got-20) > 1e-12 {
		t.Fatalf("slow-pool ΔPc at its 1 GHz base = %g W, want 20 W", got)
	}
	// Retuning the slow rank to its own base is a no-op; to the fast
	// pool's 2 GHz it re-evaluates against the slow spec (ΔPc = 20·2²).
	if err := c.SetRankFrequency(4, 2*units.GHz); err != nil {
		t.Fatal(err)
	}
	if got := float64(c.Params(4).DeltaPc); math.Abs(got-80) > 1e-12 {
		t.Fatalf("slow-pool ΔPc at 2 GHz = %g W, want 80 W (its own γ=2 law)", got)
	}
}

func TestComputeAlphaValidation(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	c.Kernel().Spawn("bad", func(p *sim.Proc) { c.StartCompute(0, 1, 0, 1.5) })
	if err := c.Kernel().Run(); err == nil {
		t.Fatal("α outside (0,1] must abort the run")
	}
}

func TestAbortOpProRata(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	k := c.Kernel()
	// 1000 on-chip ops + 10 memory accesses = 1µs + 1µs busy, 2µs wall.
	wall := c.StartCompute(0, 1000, 10, 1)
	if math.Abs(float64(wall-2*units.Microsecond)) > 1e-15 {
		t.Fatalf("wall = %v, want 2µs", wall)
	}
	// Abort half-way: half of each busy component must be credited.
	k.After(wall/2, func() { c.AbortOp(0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	b := c.busy[0]
	if math.Abs(float64(b.Compute-500*units.Nanosecond)) > 1e-15 {
		t.Fatalf("compute busy = %v, want 500ns", b.Compute)
	}
	if math.Abs(float64(b.Memory-500*units.Nanosecond)) > 1e-15 {
		t.Fatalf("memory busy = %v, want 500ns", b.Memory)
	}
	// The issued instruction counts stay whole — that work was lost, not
	// unissued.
	if ctr := c.Counters()[0]; ctr.OnChipOps != 1000 || ctr.OffChipAccesses != 10 {
		t.Fatalf("counters = %+v", ctr)
	}
	// Makespan advanced to the abort time.
	if math.Abs(float64(c.Wall()-1*units.Microsecond)) > 1e-15 {
		t.Fatalf("wall = %v, want 1µs", c.Wall())
	}
}

func TestAbortOpRankReusable(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	k := c.Kernel()
	wall := c.StartCompute(0, 1000, 10, 1)
	k.After(wall/4, func() {
		c.AbortOp(0)
		// The rank must accept a fresh op immediately after an abort.
		w2 := c.StartCompute(0, 100, 0, 1)
		k.After(w2, func() { c.CompleteOp(0) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 25% of (1µs + 1µs) + full 100ns compute.
	if got := c.busy[0].Compute; math.Abs(float64(got-350*units.Nanosecond)) > 1e-15 {
		t.Fatalf("compute busy = %v, want 350ns", got)
	}
}

func TestAbortOpIdleRankNoop(t *testing.T) {
	c := mustNew(t, Config{Spec: testSpec(), Ranks: 1})
	c.AbortOp(0) // nothing in flight: must not panic
	if b := c.busy[0]; b != (ComponentBusy{}) {
		t.Fatalf("busy ledger changed on idle abort: %+v", b)
	}
}
