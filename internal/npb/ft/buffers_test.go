package ft

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

// TestRunMatchesReference pins the slab rewrite to the kernel it
// replaced: the same numerics, charges and messages give the same
// report, Parseval energies and checksums to the last bit.
func TestRunMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{NX: 16, NY: 16, NZ: 16, Iters: 2},
		{NX: 32, NY: 8, NZ: 16, Iters: 3, Seed: 314159265},
	} {
		for _, p := range []int{1, 2, 4, 8, 16} {
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
			if k.SpatialEnergy != ref.SpatialEnergy || k.FreqEnergy != ref.FreqEnergy {
				t.Errorf("%+v p=%d: energies %g/%g, want %g/%g", cfg, p,
					k.SpatialEnergy, k.FreqEnergy, ref.SpatialEnergy, ref.FreqEnergy)
			}
			if !reflect.DeepEqual(k.Checksums, ref.Checksums) {
				t.Errorf("%+v p=%d: checksums %v, want %v", cfg, p, k.Checksums, ref.Checksums)
			}
		}
	}
}

// allocated returns the bytes and the mallocs one p-rank run of the
// given length allocates on an n³ grid, for a kernel made by mk.
func allocated(t *testing.T, mk func(Config) (npb.Kernel, error), n, p, iters int) (bytes, mallocs uint64) {
	t.Helper()
	k, err := mk(Config{NX: n, NY: n, NZ: n, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(t, k, p)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// perIteration returns the bytes and the mallocs a p-rank run on a 32³
// grid allocates per iteration beyond the first, for kernels made by mk.
func perIteration(t *testing.T, mk func(Config) (npb.Kernel, error), p int) (bytes, mallocs uint64) {
	t.Helper()
	per := func(short, long uint64) uint64 {
		if long < short {
			return 0
		}
		return (long - short) / 8
	}
	b1, m1 := allocated(t, mk, 32, p, 1)
	b9, m9 := allocated(t, mk, 32, p, 9)
	return per(b1, b9), per(m1, m9)
}

// TestRunAllocatesGridOncePerRun: each rank's slab is allocated when
// the run starts, so an extra iteration costs messages, not grids, and
// a whole run allocates the spatial grid, the frequency state and the
// transpose blocks — three grids. The whole-run bound is taken on the
// growth from a 16³ to a 32³ run, so what the cluster, the runtime and
// the messages allocate whatever the grid size cancels out. The
// reference kernel, which allocates three grids' worth per iteration,
// shows the probe can tell the two apart.
func TestRunAllocatesGridOncePerRun(t *testing.T) {
	const grid = 16 * 32 * 32 * 32
	mk := func(cfg Config) (npb.Kernel, error) { return New(cfg) }
	mkRef := func(cfg Config) (npb.Kernel, error) { return newRef(cfg) }
	got, mallocs := perIteration(t, mk, 4)
	if got > grid/32 {
		t.Errorf("an iteration allocates %d B, want ≤ %d (1/32 of the %d B grid)", got, grid/32, grid)
	}
	// Per rank: the alltoall's result and the checksum's cells, plus one
	// of slack; a block travels as a pointer to its slot.
	if mallocs > 4*3 {
		t.Errorf("an iteration allocates %d times, want ≤ %d (two per rank)", mallocs, 4*3)
	}
	const growth = grid - 16*16*16*16 // bytes one grid gains from 16³ to 32³
	b32, _ := allocated(t, mk, 32, 4, 9)
	b16, _ := allocated(t, mk, 16, 4, 9)
	grown := int64(b32) - int64(b16)
	if grown > 16*growth/5 {
		t.Errorf("a 9-iteration run grows by %d B from 16³ to 32³ (%.2f grids' growth), want ≤ 3.2", grown, float64(grown)/growth)
	}
	if got, _ := perIteration(t, mkRef, 4); got < grid {
		t.Errorf("reference iteration allocates %d B, want ≥ the %d B grid", got, grid)
	}
}
