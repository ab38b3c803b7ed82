package is

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

// TestRunMatchesReference pins the per-run buffers to the body they
// replaced: the same report, key sums, sorted count and per-rank checks
// to the last bit, at power-of-two and odd rank counts.
func TestRunMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{LogKeys: 14, LogMaxKey: 11, Buckets: 256, Iters: 3},
		{LogKeys: 13, LogMaxKey: 10, Buckets: 128, Iters: 2, Seed: 314159265},
	} {
		for _, p := range []int{1, 2, 3, 4, 8, 16} {
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
			if !reflect.DeepEqual(*k, ref.Kernel) {
				t.Errorf("%+v p=%d: results %+v, want %+v", cfg, p, *k, ref.Kernel)
			}
			if err := k.Verify(); err != nil {
				t.Errorf("%+v p=%d: %v", cfg, p, err)
			}
		}
	}
}

const logKeys = 16

// perIteration returns the bytes and the mallocs a p-rank run allocates
// per repetition beyond the first, for kernels made by mk.
func perIteration(t *testing.T, mk func(Config) (npb.Kernel, error), p int) (bytes, mallocs uint64) {
	t.Helper()
	allocated := func(iters int) (bytes, mallocs uint64) {
		k, err := mk(Config{LogKeys: logKeys, LogMaxKey: 14, Buckets: 256, Iters: iters})
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

// TestRunAllocatesKeysOncePerRun: the send blocks are cut from one
// per-run buffer and the sorted range is reused, so an extra repetition
// costs the histogram allreduce and messages, not keys. The reference
// body, which grows its send blocks and allocates its sorted range every
// repetition, shows the probe can tell the two apart.
func TestRunAllocatesKeysOncePerRun(t *testing.T) {
	const keys = 4 << logKeys // int32 keys across all ranks
	mk := func(cfg Config) (npb.Kernel, error) { return New(cfg) }
	mkRef := func(cfg Config) (npb.Kernel, error) { return newRef(cfg) }
	got, mallocs := perIteration(t, mk, 4)
	if got > keys/8 {
		t.Errorf("a repetition allocates %d B, want ≤ %d (1/8 of the %d B of keys)", got, keys/8, keys)
	}
	// Per rank: the histogram, its allreduce's cells and two combined
	// sums, and the alltoallv's result, plus one of slack; a block
	// travels as a pointer to its slot.
	if mallocs > 4*6 {
		t.Errorf("a repetition allocates %d times, want ≤ %d (five per rank)", mallocs, 4*6)
	}
	if got, _ := perIteration(t, mkRef, 4); got < keys {
		t.Errorf("reference repetition allocates %d B, want ≥ the %d B of keys", got, keys)
	}
}
