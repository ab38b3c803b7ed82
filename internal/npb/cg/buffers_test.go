package cg

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/npb"
)

// run executes k on a fresh p-rank SystemG cluster with fixed noise.
func run(t *testing.T, k npb.Kernel, p int) npb.Report {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Spec: machine.SystemG(), Ranks: p, Alpha: k.Alpha(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := npb.Run(cl, k)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunMatchesReference pins the buffer rewrite to the kernel it
// replaced: square and 1×2 process grids, the self-partner transpose of
// diagonal ranks, and two orders give the same report, ζ sequence and
// residual to the last bit.
func TestRunMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{N: 512, Nonzer: 4, NIter: 3},
		{N: 1024, Nonzer: 7, NIter: 2},
	} {
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			ref, err := newRef(cfg)
			if err != nil {
				t.Fatal(err)
			}
			k, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, got := run(t, ref, p), run(t, k, p)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v p=%d: report\n got %+v\nwant %+v", cfg, p, got, want)
			}
			if !reflect.DeepEqual(k.Zetas, ref.Zetas) || k.FinalResidual != ref.FinalResidual || k.initialRho != ref.initialRho {
				t.Errorf("%+v p=%d: ζ %v, residual %g, ρ0 %g; want %v, %g, %g", cfg, p,
					k.Zetas, k.FinalResidual, k.initialRho, ref.Zetas, ref.FinalResidual, ref.initialRho)
			}
		}
	}
}

const order = 16384

// perIteration returns the bytes and the mallocs a p-rank run allocates
// per outer iteration beyond the first, for kernels made by mk.
func perIteration(t *testing.T, mk func(Config) (npb.Kernel, error), p int) (bytes, mallocs uint64) {
	t.Helper()
	allocated := func(iters int) (bytes, mallocs uint64) {
		k, err := mk(Config{N: order, Nonzer: 4, NIter: iters})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, k, p)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	per := func(short, long uint64) uint64 {
		if long < short {
			return 0
		}
		return (long - short) / 4
	}
	b1, m1 := allocated(1)
	b5, m5 := allocated(5)
	return per(b1, b5), per(m1, m5)
}

// TestRunAllocatesVectorsOncePerRun: the CG vectors and the matvec's
// partial sums and segments are allocated when the run starts, so an
// outer iteration's 26 products cost messages, not vectors, and a
// message costs no malloc. The reference kernel allocates at least one
// order-length vector per product, which shows the probe can tell the
// two apart.
func TestRunAllocatesVectorsOncePerRun(t *testing.T) {
	const vector = 8 * order
	const allreduces = 2*cgInnerSteps + 4 // dot products and the residual norm
	mk := func(cfg Config) (npb.Kernel, error) { return New(cfg) }
	mkRef := func(cfg Config) (npb.Kernel, error) { return newRef(cfg) }
	got, mallocs := perIteration(t, mk, 4)
	if got > 4*vector {
		t.Errorf("an outer iteration allocates %d B, want ≤ %d (four %d B vectors)", got, 4*vector, vector)
	}
	// Messages carry pointers, so what is left per rank is each
	// allreduce's cells, plus one of slack.
	if want := uint64(4 * (allreduces + 1)); mallocs > want {
		t.Errorf("an outer iteration allocates %d times, want ≤ %d (one per rank and allreduce)", mallocs, want)
	}
	if got, _ := perIteration(t, mkRef, 4); got < (cgInnerSteps+1)*vector {
		t.Errorf("reference outer iteration allocates %d B, want ≥ %d", got, (cgInnerSteps+1)*vector)
	}
}
