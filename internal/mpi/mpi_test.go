package mpi

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/units"
)

// testSpec: tc=1ns, tm=100ns, Ts=10µs, Tb=1ns/B — round numbers for
// hand-checked timing.
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
		Nodes:            64,
	}
}

func newRuntime(t *testing.T, ranks int) *Runtime {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return New(cl)
}

// mu guards cross-rank assertion state in tests (ranks run one at a time,
// but the guard documents intent and keeps `go test -race` quiet if the
// kernel ever changes).
var mu sync.Mutex

func TestSendRecvData(t *testing.T) {
	rt := newRuntime(t, 2)
	var got []float64
	err := rt.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, []float64{1, 2, 3}, 24)
		} else {
			msg := r.Recv(0, 7)
			mu.Lock()
			got = msg.Data.([]float64)
			mu.Unlock()
			if msg.Src != 0 || msg.Tag != 7 || msg.Bytes != 24 {
				t.Errorf("msg meta = %+v", msg)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("payload = %v", got)
	}
}

func TestSendTiming(t *testing.T) {
	rt := newRuntime(t, 2)
	var sendEnd units.Seconds
	err := rt.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, nil, 1000)
			mu.Lock()
			sendEnd = r.Now()
			mu.Unlock()
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hockney: 10µs + 1000 B × 1 ns = 11µs.
	want := 11 * units.Microsecond
	if math.Abs(float64(sendEnd-want)) > 1e-15 {
		t.Fatalf("send completed at %v, want %v", sendEnd, want)
	}
}

func TestRecvBlocksUntilArrival(t *testing.T) {
	rt := newRuntime(t, 2)
	var recvAt units.Seconds
	err := rt.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(10000, 0) // 10µs of work before sending
			r.Send(1, 0, 42, 100)
		} else {
			msg := r.Recv(0, 0)
			mu.Lock()
			recvAt = r.Now()
			mu.Unlock()
			if msg.Data.(int) != 42 {
				t.Errorf("data = %v", msg.Data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10µs compute + 10µs Ts + 100ns = 20.1µs.
	want := units.Seconds(20.1 * 1e-6)
	if math.Abs(float64(recvAt-want)) > 1e-12 {
		t.Fatalf("recv at %v, want %v", recvAt, want)
	}
}

func TestRecvAnySource(t *testing.T) {
	rt := newRuntime(t, 3)
	srcs := map[int]bool{}
	err := rt.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 2; i++ {
				msg := r.Recv(AnySource, 5)
				mu.Lock()
				srcs[msg.Src] = true
				mu.Unlock()
			}
		} else {
			r.Send(0, 5, r.Rank(), 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !srcs[1] || !srcs[2] {
		t.Fatalf("sources seen: %v", srcs)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	rt := newRuntime(t, 2)
	var order []int
	err := rt.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 3, i, 8)
			}
		} else {
			for i := 0; i < 5; i++ {
				msg := r.Recv(0, 3)
				mu.Lock()
				order = append(order, msg.Data.(int))
				mu.Unlock()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("non-FIFO delivery: %v", order)
		}
	}
}

func TestDeadlockReportNamesRanks(t *testing.T) {
	rt := newRuntime(t, 2)
	err := rt.Run(func(r *Rank) {
		r.Recv(1-r.Rank(), 9) // both wait, nobody sends
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
}

// TestDeadlockReportNamesTheReceive: a receive that is never matched
// ends Run with a *sim.DeadlockError whose entry names the rank and
// the (src, tag) it waits on, formatted when the report is built.
func TestDeadlockReportNamesTheReceive(t *testing.T) {
	rt := newRuntime(t, 2)
	err := rt.Run(func(r *Rank) {
		if r.Rank() == 1 {
			r.Recv(0, 7)
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want *sim.DeadlockError, got %v", err)
	}
	if want := []string{"rank1: Recv(src=0, tag=7)"}; !reflect.DeepEqual(dl.Parked, want) {
		t.Fatalf("parked %q, want %q", dl.Parked, want)
	}
}

// TestSendRecvAllocatesPerRunNotPerMessage: a message in flight is a
// pooled delivery and a blocked receive formats nothing, so a 2-rank
// nil-payload ping-pong allocates the same at 10 and 1010 rounds.
func TestSendRecvAllocatesPerRunNotPerMessage(t *testing.T) {
	mallocs := func(rounds int) uint64 {
		rt := newRuntime(t, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := rt.Run(func(r *Rank) {
			peer := 1 - r.Rank()
			for range rounds {
				r.SendRecv(peer, 3, nil, 8, peer, 3)
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocs(10), mallocs(1010)
	if long > short+10 {
		t.Fatalf("1000 more rounds allocate %d more times, want ≤ 10 (per run, not per message)", long-short)
	}
}

// TestAllreduceSynchronises pins the contract mpi.Message's buffer reuse
// relies on: no rank leaves an allreduce before every rank has entered it.
func TestAllreduceSynchronises(t *testing.T) {
	sum := func(a, b float64) float64 { return a + b }
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			rt := newRuntime(t, p)
			after := make([]units.Seconds, p)
			err := rt.Run(func(r *Rank) {
				// Stagger arrival: rank i works i·10µs.
				r.Compute(float64(r.Rank())*10000, 0)
				Allreduce(r, 1.0, 8, sum)
				after[r.Rank()] = r.Now()
			})
			if err != nil {
				t.Fatal(err)
			}
			// Nobody may leave the allreduce before the slowest arrival.
			slowest := units.Seconds(float64(p-1) * 10e-6)
			for i, ts := range after {
				if ts < slowest {
					t.Errorf("rank %d left allreduce at %v before slowest arrival %v", i, ts, slowest)
				}
			}
		})
	}
}

func TestAllreduceSumAllRanksAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
		rt := newRuntime(t, p)
		got := make([]float64, p)
		err := rt.Run(func(r *Rank) {
			v := Allreduce(r, float64(r.Rank()+1), 8, func(a, b float64) float64 { return a + b })
			got[r.Rank()] = v
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		want := float64(p*(p+1)) / 2
		for i, v := range got {
			if v != want {
				t.Fatalf("p=%d rank=%d: %g, want %g", p, i, v, want)
			}
		}
	}
}

func TestAllreduceVector(t *testing.T) {
	p := 5
	rt := newRuntime(t, p)
	// combine must be pure: fresh storage, no mutation of either input.
	combine := func(dst, src []float64) []float64 {
		out := make([]float64, len(dst))
		for i := range dst {
			out[i] = dst[i] + src[i]
		}
		return out
	}
	var result []float64
	err := rt.Run(func(r *Rank) {
		vec := []float64{float64(r.Rank()), 1}
		out := Allreduce(r, vec, 16, combine)
		if r.Rank() == 0 {
			mu.Lock()
			result = out
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if result[0] != 10 || result[1] != 5 { // 0+1+2+3+4 and 5×1
		t.Fatalf("vector allreduce = %v", result)
	}
}

func TestAlltoallData(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8} {
		rt := newRuntime(t, p)
		results := make([][]int, p)
		err := rt.Run(func(r *Rank) {
			send := make([]int, p)
			for i := range send {
				send[i] = r.Rank()*1000 + i // value encodes (from, to)
			}
			results[r.Rank()] = Alltoall(r, send, 8)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for rank, res := range results {
			for from, v := range res {
				if want := from*1000 + rank; v != want {
					t.Fatalf("p=%d rank=%d from=%d: got %d want %d", p, rank, from, v, want)
				}
			}
		}
	}
}

func TestAlltoallPairwiseTiming(t *testing.T) {
	// On a noiseless cluster with one rank per node, pairwise exchange of
	// m-byte blocks among p ranks costs (p−1)(Ts + m·Tb) plus the local
	// self-copy — the cost the paper assumes for FT (§V.B.1).
	p := 8
	m := units.Bytes(4096)
	rt := newRuntime(t, p)
	err := rt.Run(func(r *Rank) {
		send := make([]int, p)
		Alltoall(r, send, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	per := float64(spec.Ts) + float64(m)*float64(spec.Tb)
	selfCopy := (float64(spec.Ts)/10 + float64(m)*float64(spec.Tb)/10) / 2
	want := float64(p-1)*per + selfCopy
	got := float64(rt.Makespan())
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("alltoall makespan = %gs, want %gs", got, want)
	}
}

func TestAlltoallvData(t *testing.T) {
	p := 4
	rt := newRuntime(t, p)
	results := make([][][]int, p)
	err := rt.Run(func(r *Rank) {
		send := make([][]int, p)
		sizes := make([]units.Bytes, p)
		for i := range send {
			send[i] = make([]int, r.Rank()+1) // rank r sends blocks of size r+1
			for j := range send[i] {
				send[i][j] = r.Rank()
			}
			sizes[i] = units.Bytes(8 * (r.Rank() + 1))
		}
		results[r.Rank()] = Alltoallv(r, send, sizes)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, res := range results {
		for from, block := range res {
			if len(block) != from+1 {
				t.Fatalf("rank=%d from=%d block len %d, want %d", rank, from, len(block), from+1)
			}
			for _, v := range block {
				if v != from {
					t.Fatalf("rank=%d from=%d: bad content %v", rank, from, block)
				}
			}
		}
	}
}

func TestTracerCountsMessages(t *testing.T) {
	p := 4
	rt := newRuntime(t, p)
	err := rt.Run(func(r *Rank) {
		send := make([]int, p)
		Alltoall(r, send, 100)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise exchange: each rank sends p−1 blocks of 100 B.
	total := rt.cl.Counters().Total()
	wantM := int64(p * (p - 1))
	if got := total.Messages; got != wantM {
		t.Fatalf("M = %d, want %d", got, wantM)
	}
	wantB := float64(p*(p-1)) * 100
	if got := total.BytesSent; got != wantB {
		t.Fatalf("B = %g, want %g", got, wantB)
	}
}

func TestCountersMatchTracer(t *testing.T) {
	p := 4
	rt := newRuntime(t, p)
	err := rt.Run(func(r *Rank) {
		r.Compute(1000, 10)
		Allreduce(r, 1.0, 8, func(a, b float64) float64 { return a + b })
	})
	if err != nil {
		t.Fatal(err)
	}
	total := rt.cl.Counters().Total()
	if total.OnChipOps != float64(p)*1000 {
		t.Fatalf("on-chip total %g", total.OnChipOps)
	}
}

func TestRuntimeRunTwiceFails(t *testing.T) {
	rt := newRuntime(t, 1)
	if err := rt.Run(func(r *Rank) {}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(r *Rank) {}); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestFinishTimesAndMakespan(t *testing.T) {
	rt := newRuntime(t, 3)
	err := rt.Run(func(r *Rank) {
		r.Compute(float64(r.Rank()+1)*1e6, 0) // 1ms, 2ms, 3ms
	})
	if err != nil {
		t.Fatal(err)
	}
	ft := rt.FinishTimes()
	if !(ft[0] < ft[1] && ft[1] < ft[2]) {
		t.Fatalf("finish times not increasing: %v", ft)
	}
	if rt.Makespan() != ft[2] {
		t.Fatalf("makespan %v != slowest rank %v", rt.Makespan(), ft[2])
	}
	if w := rt.cl.Wall(); math.Abs(float64(w-ft[2])) > 1e-15 {
		t.Fatalf("cluster wall %v != makespan %v", w, ft[2])
	}
}

func TestPhaseTracing(t *testing.T) {
	rt := newRuntime(t, 2)
	err := rt.Run(func(r *Rank) {
		r.PhaseEnter("compute")
		r.Compute(1e6, 0)
		r.PhaseExit("compute")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank spends 1ms in "compute"; phase time sums over ranks and
	// the phase was entered twice.
	sum := rt.cl.Tracer().Summary()
	if got := strings.Fields(strings.Split(sum, "\n")[1]); len(got) != 3 || got[0] != "compute" || got[1] != "2ms" || got[2] != "2" {
		t.Fatalf("phase row = %q, want compute 2ms 2:\n%s", got, sum)
	}
}

func TestSendToInvalidRankAborts(t *testing.T) {
	rt := newRuntime(t, 2)
	err := rt.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(5, 0, nil, 0)
		}
	})
	if err == nil {
		t.Fatal("send to invalid rank must abort the run")
	}
}

func TestCollectivesBackToBackIsolation(t *testing.T) {
	// Two consecutive allreduces must not cross-match messages.
	p := 6
	rt := newRuntime(t, p)
	sum := func(a, b float64) float64 { return a + b }
	err := rt.Run(func(r *Rank) {
		a := Allreduce(r, 1.0, 8, sum)
		b := Allreduce(r, 2.0, 8, sum)
		if a != float64(p) || b != float64(2*p) {
			t.Errorf("rank %d: a=%g b=%g", r.Rank(), a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesOfDifferentKindsBackToBack(t *testing.T) {
	// Allreduce → Alltoall → Alltoallv → Allreduce at a non-power-of-two
	// p, each call with its own payloads: a message matched by the wrong
	// call would show up as a wrong value on some rank.
	p := 6
	rt := newRuntime(t, p)
	sum := func(a, b float64) float64 { return a + b }
	err := rt.Run(func(r *Rank) {
		me := r.Rank()
		if got, want := Allreduce(r, float64(me+1), 8, sum), float64(p*(p+1)/2); got != want {
			t.Errorf("rank %d: first allreduce = %g, want %g", me, got, want)
		}
		send := make([]int, p)
		for i := range send {
			send[i] = 1000 + me*10 + i
		}
		for from, v := range Alltoall(r, send, 8) {
			if want := 1000 + from*10 + me; v != want {
				t.Errorf("rank %d: alltoall block from %d = %d, want %d", me, from, v, want)
			}
		}
		blocks := make([][]int, p)
		sizes := make([]units.Bytes, p)
		for i := range blocks {
			blocks[i] = make([]int, i+1)
			for j := range blocks[i] {
				blocks[i][j] = 2000 + me*10 + i
			}
			sizes[i] = units.Bytes(8 * (i + 1))
		}
		for from, b := range Alltoallv(r, blocks, sizes) {
			want := 2000 + from*10 + me
			if len(b) != me+1 || b[0] != want || b[len(b)-1] != want {
				t.Errorf("rank %d: alltoallv block from %d = %v, want %d × %d", me, from, b, me+1, want)
			}
		}
		if got, want := Allreduce(r, float64(100*me), 8, sum), float64(100*p*(p-1)/2); got != want {
			t.Errorf("rank %d: last allreduce = %g, want %g", me, got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// perRankCall returns how many more mallocs a p-rank run of 1010 calls
// of call makes than a run of 10, per rank and call: what a run
// allocates once cancels out.
func perRankCall(t *testing.T, p int, call func(r *Rank)) float64 {
	t.Helper()
	mallocs := func(calls int) uint64 {
		rt := newRuntime(t, p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := rt.Run(func(r *Rank) {
			for range calls {
				call(r)
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	return (float64(mallocs(1010)) - float64(mallocs(10))) / float64(1000*p)
}

// TestCollectivesSendPointersNotBoxedPayloads: a collective sends
// pointers to storage it already owns, so an allreduce allocates its
// cells once per call and an alltoall its result slice, not a boxed
// payload per message (about log2 p and p per rank per call). The
// bound leaves 1 % for the Go runtime's own mallocs.
func TestCollectivesSendPointersNotBoxedPayloads(t *testing.T) {
	const slack = 1.01
	sum := func(a, b float64) float64 { return a + b }
	for _, p := range []int{2, 6, 8} {
		if got := perRankCall(t, p, func(r *Rank) { Allreduce(r, float64(r.Rank()+1), 8, sum) }); got > slack {
			t.Errorf("p=%d: Allreduce[float64] allocates %.2f times per rank per call, want ≤ 1", p, got)
		}
	}
	const p = 4
	blocks := make([][][]complex128, p)
	for i := range blocks {
		blocks[i] = make([][]complex128, p)
		for j := range blocks[i] {
			blocks[i][j] = []complex128{complex(float64(i), float64(j))}
		}
	}
	if got := perRankCall(t, p, func(r *Rank) { Alltoall(r, blocks[r.Rank()], 16) }); got > slack {
		t.Errorf("p=%d: Alltoall[[]complex128] allocates %.2f times per rank per call, want ≤ 1", p, got)
	}
}

// noisyRuntime is newRuntime with the default execution and network
// noise, so ranks drift apart by different amounts on every call.
func noisyRuntime(t *testing.T, ranks int) *Runtime {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Spec: testSpec(), Ranks: ranks, Noise: cluster.DefaultNoise(), Seed: int64(ranks)})
	if err != nil {
		t.Fatal(err)
	}
	return New(cl)
}

// TestPointerPayloadsSurviveSkewedRanks pins the contract the pointer
// payloads rely on. Back-to-back allreduces with rank-dependent work
// between them must each see exactly the partials of their own call.
// And an alltoall send slot rewritten by a fast rank after the
// following allreduce must reach every receiver as the old block in
// the first round and as the new block in the second.
func TestPointerPayloadsSurviveSkewedRanks(t *testing.T) {
	sum := func(a, b float64) float64 { return a + b }
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		rt := noisyRuntime(t, p)
		err := rt.Run(func(r *Rank) {
			me := r.Rank()
			for call := range 50 {
				r.Compute(float64((me*7+call)%5)*1e4, float64(me%3)*10)
				got := Allreduce(r, float64((me+1)*(call+1)), 8, sum)
				if want := float64((call + 1) * p * (p + 1) / 2); got != want {
					t.Errorf("p=%d rank %d call %d: allreduce = %g, want %g", p, me, call, got, want)
				}
			}
			send := make([][]int, p)
			for i := range send {
				send[i] = []int{100*me + i}
			}
			for round := range 2 {
				if me != 0 {
					r.Compute(float64(me)*1e5, 0) // rank 0 runs ahead
				}
				for from, b := range Alltoall(r, send, 8) {
					want := 100*from + me
					if from == 0 && round == 1 {
						want = 5000 + me
					}
					if len(b) != 1 || b[0] != want {
						t.Errorf("p=%d round %d rank %d: block from %d = %v, want [%d]", p, round+1, me, from, b, want)
					}
				}
				Allreduce(r, 1.0, 8, sum)
				if me == 0 {
					for i := range send {
						send[i] = []int{5000 + i} // a new block in the slot
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}
