package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/app"
	"repro/internal/capplan"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/npb"
	"repro/internal/npb/cg"
	"repro/internal/npb/ep"
	"repro/internal/npb/ft"
	"repro/internal/npb/is"
	"repro/internal/npb/mg"
	"repro/internal/opcache"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// A layerBench times one layer from outside, through its public
// functions only: build the state (untimed), then run a fixed number of
// operations. Fixed counts, not fixed time, so two commits do the same
// work and the number is time per operation.
type layerBench struct {
	// name is the metric; its suffix (_ns, _us, _ms, _ns_per_job) names
	// the unit one operation's time is reported in.
	name string
	// per converts nanoseconds per operation into that unit.
	per float64
	// ops is the operation count per repetition; the smoke size runs
	// smokeOps. Sized so one repetition takes 5-30 ms here.
	ops, smokeOps int
	// allocs, when set, names the metric for heap allocations per
	// operation (deterministic, so a change there is a diff).
	allocs string
	// setup builds fresh state and returns the timed call, which must
	// perform exactly ops operations.
	setup func(ops int) func()
}

const (
	perNs = 1
	perUs = 1e-3
	perMs = 1e-6
	// layerReps repetitions per micro-timing; the median is reported.
	layerReps = 5
)

// sink keeps results alive so the compiler cannot drop a timed call.
var sink float64

// must turns a set-up error into a panic: every input here is a fixed
// literal, so a failure is a bug in the benchmark or a broken layer, and
// runLayers reports it with the layer's name.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// systemGCluster provisions the scheduler's 64-rank noise-free cluster.
func systemGCluster(ranks int, alpha float64) *cluster.Cluster {
	return must(cluster.New(cluster.Config{Spec: machine.SystemG(), Ranks: ranks, Alpha: alpha, Seed: 1}))
}

// sampleRanks is shared so a sink's allocations per write are its own.
var sampleRanks = []int{0, 1, 2, 3, 4, 5, 6, 7}

// sampleEvent is a representative admission event: the kind with the
// most populated fields, rank set included.
func sampleEvent(i int) telemetry.Event {
	kind := telemetry.EvAdmit
	if i%2 == 1 {
		kind = telemetry.EvFinish // alternate so span-building sinks open and close
	}
	return telemetry.Event{
		T: units.Seconds(float64(i/2) * 1e-3), Kind: kind, Job: i / 2, App: "CG", Pool: "systemg",
		P: 8, Ranks: sampleRanks, Freq: 2.4 * units.GHz, Watts: 310, Cap: 2500,
		Headroom: 420, Wait: 12 * units.Millisecond, Dur: 1500 * units.Millisecond, EE: 0.83, Queue: 3, Free: 24,
	}
}

// sinkBench times one telemetry sink's Write on sampleEvent.
func sinkBench(name string, mk func() telemetry.Sink) layerBench {
	return layerBench{
		name: "telemetry." + name + "_write_ns", per: perNs, ops: 20000, smokeOps: 200,
		allocs: "telemetry." + name + "_write_allocs",
		setup: func(ops int) func() {
			s := mk()
			return func() {
				for i := 0; i < ops; i++ {
					check(s.Write(sampleEvent(i)))
				}
			}
		},
	}
}

// npbBench times one whole npb.Run on 16 SystemG ranks.
func npbBench(name string, mk func() (npb.Kernel, error)) layerBench {
	return layerBench{
		name: "npb." + name + "_ms", per: perMs, ops: 1, smokeOps: 1,
		setup: func(int) func() {
			k := must(mk())
			cl := systemGCluster(16, k.Alpha())
			return func() { sink += float64(must(npb.Run(cl, k)).True.Total) }
		},
	}
}

const heapDepth = 4096 // pending timers in sim.heap4k_push_pop_ns

var layerBenches = []layerBench{
	{
		name: "sim.callback_event_ns", per: perNs, ops: 400000, smokeOps: 2000,
		setup: func(ops int) func() {
			k := sim.NewKernel(1)
			n := 0
			var tick func()
			tick = func() {
				if n++; n < ops {
					k.After(units.Microsecond, tick)
				}
			}
			k.After(units.Microsecond, tick)
			return func() { check(k.RunCallback()) }
		},
	},
	{
		name: "sim.heap4k_push_pop_ns", per: perNs, ops: 100000, smokeOps: 2 * heapDepth,
		setup: func(ops int) func() {
			k := sim.NewKernel(1)
			rng := rand.New(rand.NewSource(1))
			scheduled := 0
			var fire func()
			arm := func() {
				if scheduled < ops {
					scheduled++
					k.After(units.Seconds(rng.Float64()), fire)
				}
			}
			fire = arm // every pop pushes a replacement, holding the depth
			for i := 0; i < heapDepth; i++ {
				arm()
			}
			return func() { check(k.RunCallback()) }
		},
	},
	{
		name: "sim.proc_switch_ns", per: perNs, ops: 32000, smokeOps: 320,
		setup: func(ops int) func() {
			const procs = 16
			k := sim.NewKernel(1)
			for p := 0; p < procs; p++ {
				k.Spawn(fmt.Sprintf("p%d", p), func(p *sim.Proc) {
					for i := 0; i < ops/procs; i++ {
						p.Sleep(units.Microsecond)
					}
				})
			}
			return func() { check(k.Run()) }
		},
	},
	{
		name: "cluster.op_pair_ns", per: perNs, ops: 200000, smokeOps: 1000,
		setup: func(ops int) func() {
			cl := systemGCluster(64, 0.9)
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(cl.StartCompute(i%64, 1e6, 1e4, 0.9))
					cl.CompleteOp(i % 64)
				}
			}
		},
	},
	{
		name: "cluster.comm_pair_ns", per: perNs, ops: 200000, smokeOps: 1000,
		setup: func(ops int) func() {
			cl := systemGCluster(64, 0.9)
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(cl.StartComm(i%64, units.Millisecond, 0.9))
					cl.CompleteOp(i % 64)
				}
			}
		},
	},
	{
		name: "cluster.retune_ns", per: perNs, ops: 50000, smokeOps: 500,
		setup: func(ops int) func() {
			cl := systemGCluster(64, 0.9)
			ladder := machine.SystemG().Frequencies
			return func() {
				for i := 0; i < ops; i++ {
					// Each rank alternates between the ladder's two
					// lowest steps, so every call is an effective retune.
					check(cl.SetRankFrequency(i%64, ladder[(i/64)%2]))
				}
			}
		},
	},
	{
		// AbortOp needs an operation in flight, so the pair is timed.
		name: "cluster.abort_ns", per: perNs, ops: 200000, smokeOps: 1000,
		setup: func(ops int) func() {
			cl := systemGCluster(64, 0.9)
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(cl.StartCompute(i%64, 1e6, 1e4, 0.9))
					cl.AbortOp(i % 64)
				}
			}
		},
	},
	{
		name: "power.sample_ns", per: perNs, ops: 4000, smokeOps: 100,
		setup: func(ops int) func() {
			cl := systemGCluster(64, 0.9)
			prof := must(power.Attach(cl, 25*units.Millisecond, false))
			n := 0
			prof.OnSample(func(s power.Sample) { n++; sink += float64(s.Total) })
			prof.KeepSampling(func() bool { return n < ops })
			return func() { check(cl.Kernel().RunCallback()) }
		},
	},
	{
		name: "opcache.row_hit_ns", per: perNs, ops: 400000, smokeOps: 1000,
		setup: func(ops int) func() {
			c, v := must(opcache.New(machine.SystemG())), app.CG(11, 3)
			owner := new(int)
			must(c.Row(owner, v, 75000, 16))
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(must(c.Row(owner, v, 75000, 16)).Draw[0])
				}
			}
		},
	},
	{
		// A fresh (n, p) per call: the whole ladder row is built.
		name: "opcache.row_miss_ns", per: perNs, ops: 4000, smokeOps: 100,
		setup: func(ops int) func() {
			c, v := must(opcache.New(machine.SystemG())), app.CG(11, 3)
			owner := new(int)
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(must(c.Row(owner, v, float64(20000+i), 16)).Draw[0])
				}
			}
		},
	},
	{
		name: "opcache.forget_ns", per: perNs, ops: 20000, smokeOps: 100,
		setup: func(ops int) func() {
			c, v := must(opcache.New(machine.SystemG())), app.CG(11, 3)
			owners := make([]int, ops)
			for i := range owners {
				must(c.Row(&owners[i], v, 75000, 16))
			}
			return func() {
				for i := range owners {
					c.Forget(&owners[i])
				}
			}
		},
	},
	{
		name: "opcache.point_ns", per: perNs, ops: 400000, smokeOps: 1000,
		setup: func(ops int) func() {
			c, v := must(opcache.New(machine.SystemG())), app.CG(11, 3)
			owner := new(int)
			steps := len(c.Ladder())
			return func() {
				for i := 0; i < ops; i++ {
					_, w, err := c.Point(owner, v, 75000, 16, i%steps)
					check(err)
					sink += float64(w)
				}
			}
		},
	},
	{
		name: "core.predict_ns", per: perNs, ops: 100000, smokeOps: 1000,
		setup: func(ops int) func() {
			m := core.Model{Machine: machine.SystemG().MustBase(), App: app.CG(11, 15).At(75000, 64)}
			return func() {
				for i := 0; i < ops; i++ {
					sink += must(m.Predict()).EE
				}
			}
		},
	},
	{
		// One operation is one (pool, p, f) point of the sweep.
		name: "analysis.operating_point_ns", per: perNs, ops: 20000, smokeOps: 200,
		setup: func(ops int) func() {
			pl := must(machine.ParsePlatform("systemg:128,dori:8"))
			v := app.FT(20)
			return func() {
				for done := 0; done < ops; {
					check(analysis.ForEachOperatingPoint(pl, v, 1<<21, nil, func(p analysis.Point) {
						if done < ops {
							done++
							sink += p.EE
						}
					}))
				}
			}
		},
	},
	{
		name: "analysis.isoenergy_solve_us", per: perUs, ops: 1000, smokeOps: 5,
		setup: func(ops int) func() {
			return func() {
				for i := 0; i < ops; i++ {
					sink += must(analysis.IsoEnergyN(machine.SystemG(), app.FT(20), 2.8*units.GHz, 16, 0.75, 1<<10, 1<<30))
				}
			}
		},
	},
	{
		name: "capplan.cap_at_ns", per: perNs, ops: 400000, smokeOps: 1000,
		setup: func(ops int) func() {
			plan := plan64()
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(plan.CapAt(units.Seconds(i % 6400)))
				}
			}
		},
	},
	{
		name: "capplan.min_over_ns", per: perNs, ops: 400000, smokeOps: 1000,
		setup: func(ops int) func() {
			plan := plan64()
			return func() {
				for i := 0; i < ops; i++ {
					t := units.Seconds(i % 6400)
					sink += float64(plan.MinOver(t, t+250)) // spans two or three windows
				}
			}
		},
	},
	{
		// The disabled recorder: what every emit site costs sched_steady.
		name: "telemetry.nil_emit_ns", per: perNs, ops: 1000000, smokeOps: 1000,
		allocs: "telemetry.nil_emit_allocs",
		setup: func(ops int) func() {
			var rec *telemetry.Recorder
			ev := sampleEvent(0)
			return func() {
				for i := 0; i < ops; i++ {
					if rec.Enabled() {
						rec.Emit(ev)
					}
				}
			}
		},
	},
	sinkBench("ndjson", func() telemetry.Sink { return telemetry.NewNDJSONSink(io.Discard) }),
	sinkBench("rollup", func() telemetry.Sink {
		return must(telemetry.NewRollupSink(io.Discard, rollupBucket))
	}),
	sinkBench("chrometrace", func() telemetry.Sink { return telemetry.NewChromeTraceSink(io.Discard) }),
	{
		name: "telemetry.metrics_sample_ns", per: perNs, ops: 20000, smokeOps: 200,
		allocs: "telemetry.metrics_sample_allocs",
		setup: func(ops int) func() {
			m := telemetry.NewMetrics()
			admits, queue, waits := m.RateCounter("admits"), m.Gauge("queue"), m.Histogram("wait_s", 0.1, 1, 10)
			m.StreamCSV(io.Discard)
			return func() {
				for i := 0; i < ops; i++ {
					admits.Inc()
					queue.Set(float64(i % 7))
					waits.Observe(float64(i%13) / 4)
					m.Sample(units.Seconds(float64(i) * 1e-3))
				}
				check(m.Err())
			}
		},
	},
	{
		name: "mpi.allreduce64_us", per: perUs, ops: 20, smokeOps: 2,
		setup: func(ops int) func() {
			rt := mpi.New(systemGCluster(64, 1))
			return func() {
				check(rt.Run(func(r *mpi.Rank) {
					for i := 0; i < ops; i++ {
						mpi.Allreduce(r, float64(r.Rank()), 8, func(a, c float64) float64 { return a + c })
					}
				}))
			}
		},
	},
	{
		name: "mpi.alltoall16_us", per: perUs, ops: 20, smokeOps: 2,
		setup: func(ops int) func() {
			rt := mpi.New(systemGCluster(16, 1))
			return func() {
				check(rt.Run(func(r *mpi.Rank) {
					send := make([]int, r.Size())
					for i := 0; i < ops; i++ {
						mpi.Alltoall(r, send, 64*units.KB)
					}
				}))
			}
		},
	},
	// Fixed NPB configurations: FT as in the root BenchmarkAblationNetModel,
	// the rest each kernel's smallest class that divides over 16 ranks
	// ("T"; MG needs two planes per rank, so "S").
	npbBench("ft", func() (npb.Kernel, error) { return ft.New(ft.Config{NX: 32, NY: 32, NZ: 32, Iters: 2}) }),
	npbBench("cg", func() (npb.Kernel, error) { return cg.New(cg.Classes()["T"]) }),
	npbBench("ep", func() (npb.Kernel, error) { return ep.New(ep.Classes()["T"]) }),
	npbBench("is", func() (npb.Kernel, error) { return is.New(is.Classes()["T"]) }),
	npbBench("mg", func() (npb.Kernel, error) { return mg.New(mg.Classes()["S"]) }),
	{
		name: "netmodel.message_time_ns", per: perNs, ops: 1000000, smokeOps: 1000,
		setup: func(ops int) func() {
			var net netmodel.Model = netmodel.InfiniBand40G()
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(net.MessageTime(units.Bytes(i % 65536)))
				}
			}
		},
	},
	{
		name: "sched.synthetic_trace_ns_per_job", per: perNs, ops: 16384, smokeOps: 256,
		setup: func(ops int) func() {
			return func() {
				sink += float64(len(sched.SyntheticTrace(sched.TraceConfig{Jobs: ops, Seed: 1, MeanInterarrival: steadyInterarrival})))
			}
		},
	},
	{
		name: "machine.parse_platform_us", per: perUs, ops: 5000, smokeOps: 20,
		setup: func(ops int) func() {
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(must(machine.ParsePlatform("systemg:32,dori:32")).TotalRanks())
				}
			}
		},
	},
	{
		name: "faults.parse_plan_us", per: perUs, ops: 10000, smokeOps: 20,
		setup: func(ops int) func() {
			return func() {
				for i := 0; i < ops; i++ {
					sink += float64(must(faults.ParsePlan("fail=3@10,repair=3@60,mtbf=*:900,mttr=*:120,retries=6,ckpt=0.5,restart=0.02")).MaxRetries)
				}
			}
		},
	},
}

// plan64 is a 64-window cap timeline, 100 s per window.
func plan64() *capplan.Plan {
	segs := make([]capplan.Segment, 64)
	for i := range segs {
		segs[i] = capplan.Segment{Start: units.Seconds(100 * i), Cap: units.Watts(2400 + 10*(i%7))}
	}
	return must(capplan.Steps(segs...))
}

// runLayers runs every outside micro-timing and returns metric → value.
func runLayers(smoke bool) map[string]float64 {
	out := map[string]float64{}
	for _, b := range layerBenches {
		ns, allocs := b.measure(smoke)
		out[b.name] = ns * b.per
		if b.allocs != "" {
			out[b.allocs] = allocs
		}
	}
	return out
}

// measure returns the median nanoseconds and heap allocations per
// operation over layerReps repetitions, each on fresh state.
func (b layerBench) measure(smoke bool) (ns, allocs float64) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("layer %s: %v", b.name, r))
		}
	}()
	ops := b.ops
	if smoke {
		ops = b.smokeOps
	}
	var times, mallocs []float64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < layerReps; rep++ {
		run := b.setup(ops)
		runtime.ReadMemStats(&m0)
		t0 := time.Now() //lint:wallclock host-side micro-timing
		run()
		d := time.Since(t0) //lint:wallclock host-side micro-timing
		runtime.ReadMemStats(&m1)
		times = append(times, float64(d.Nanoseconds())/float64(ops))
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return median(times), median(mallocs)
}
