// Package figures regenerates every table and figure of the paper's
// evaluation (§II, §IV, §V) against the simulated clusters. Each
// generator returns a Figure with rendered text and CSV data; cmd/figures
// prints them and the root bench harness exercises them one per
// testing.B benchmark (see DESIGN.md §4 for the experiment index).
//
// The measured figures (2–4, 10) run one simulated cluster per sweep
// point across Options.Workers; the model surfaces (5–9) are
// analysis.SurfacePF/SurfacePN grids, each cell one direct
// core.Model.Predict — no cache is threaded through the generators.
package figures

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/npb/cg"
	"repro/internal/npb/ep"
	"repro/internal/npb/ft"
	"repro/internal/npb/is"
	"repro/internal/npb/mg"
)

// Options tunes figure generation.
type Options struct {
	// Quick selects reduced problem sizes and rank counts so the whole
	// set regenerates in seconds (used by tests); the default (false)
	// uses the paper-scale sweeps.
	Quick bool
	// Seed drives all simulated measurement noise.
	Seed int64
	// Workers bounds how many sweep points run concurrently; 0 means
	// GOMAXPROCS, 1 forces the sequential reference order. Every sweep
	// point owns an independent simulated cluster seeded per point, so
	// the rendered figures are byte-identical at any worker count — the
	// workers only change wall-clock time.
	Workers int
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parEach runs fn(i) for every index in [0, n) across the configured
// workers and returns the lowest-index error. Each index must be an
// independent unit of work (its own cluster, kernel, and RNGs); callers
// write results into preassigned slots and assemble output sequentially
// afterwards, which is what keeps parallel figures byte-identical to
// sequential ones.
func parEach(o Options, n int, fn func(i int) error) error {
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Figure is one regenerated experiment.
type Figure struct {
	ID    string
	Title string
	Body  string // rendered table / chart
	CSV   string // machine-readable series
	Notes []string
}

// String renders the figure for terminal output.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure %s: %s ==\n%s", f.ID, f.Title, f.Body)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Generator produces one figure.
type Generator struct {
	ID   string
	Name string
	Run  func(Options) (Figure, error)
}

// All returns every generator in paper order.
func All() []Generator {
	return []Generator{
		{"2a", "FT performance vs energy efficiency", Fig2a},
		{"2b", "CG performance vs energy efficiency", Fig2b},
		{"3", "Model validation on Dori (p=4)", Fig3},
		{"4", "Average prediction error on SystemG (p=1..128)", Fig4},
		{"5", "FT EE surface over (p, f)", Fig5},
		{"6", "FT EE surface over (p, n)", Fig6},
		{"7", "EP EE surface over (p, f)", Fig7},
		{"8", "CG and EP EE surfaces over (p, n)", Fig8},
		{"9", "CG EE surface over (p, f)", Fig9},
		{"10", "Component power profile of parallel FFT", Fig10},
	}
}

// ByID returns the generator for a figure id.
func ByID(id string) (Generator, error) {
	for _, g := range All() {
		if g.ID == id {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("figures: unknown figure %q", id)
}

// --- shared measurement helpers ---

// kernelFactory builds a fresh kernel instance per run (kernels are
// single-use).
type kernelFactory struct {
	name string
	mk   func() (npb.Kernel, error)
}

// measured runs the factory's kernel at parallelism p on the given spec
// with hardware-like noise and returns the report.
func (kf kernelFactory) measured(spec machine.Spec, p int, seed int64) (npb.Report, error) {
	k, err := kf.mk()
	if err != nil {
		return npb.Report{}, err
	}
	cl, err := cluster.New(cluster.Config{
		Spec:  spec,
		Ranks: p,
		Alpha: k.Alpha(),
		Noise: cluster.DefaultNoise(),
		Seed:  seed,
	})
	if err != nil {
		return npb.Report{}, err
	}
	return npb.Run(cl, k)
}

// ftFactory returns an FT factory sized for the sweep's largest p.
func ftFactory(o Options, maxP int) kernelFactory {
	cfg := ft.Config{NX: 64, NY: 32, NZ: 64, Iters: 4}
	if o.Quick {
		cfg = ft.Config{NX: 16, NY: 16, NZ: 16, Iters: 2}
	}
	if maxP > cfg.NX {
		cfg.NX = maxP
		cfg.NZ = maxP
	}
	return kernelFactory{
		name: "FT",
		mk:   func() (npb.Kernel, error) { return ft.New(cfg) },
	}
}

func epFactory(o Options) kernelFactory {
	cfg := ep.Config{LogPairs: 20}
	if o.Quick {
		cfg.LogPairs = 14
	}
	return kernelFactory{
		name: "EP",
		mk:   func() (npb.Kernel, error) { return ep.New(cfg) },
	}
}

func cgFactory(o Options) kernelFactory {
	// Class-W order amortises collective latency against per-step memory
	// work; smaller orders leave CG latency-bound and inflate the
	// straggler-driven model error well past the paper's.
	cfg := cg.Config{N: 7040, Nonzer: 6, NIter: 3}
	if o.Quick {
		cfg = cg.Config{N: 512, Nonzer: 4, NIter: 2}
	}
	return kernelFactory{
		name: "CG",
		mk:   func() (npb.Kernel, error) { return cg.New(cfg) },
	}
}

func isFactory(o Options) kernelFactory {
	cfg := is.Config{LogKeys: 18, LogMaxKey: 14, Buckets: 512, Iters: 3}
	if o.Quick {
		cfg = is.Config{LogKeys: 13, LogMaxKey: 10, Buckets: 128, Iters: 2}
	}
	return kernelFactory{
		name: "IS",
		mk:   func() (npb.Kernel, error) { return is.New(cfg) },
	}
}

func mgFactory(o Options, depth int) kernelFactory {
	cfg := mg.Config{Size: 32, Cycles: 3, Depth: depth}
	if o.Quick {
		cfg = mg.Config{Size: 16, Cycles: 2, Depth: depth}
	}
	return kernelFactory{
		name: "MG",
		mk:   func() (npb.Kernel, error) { return mg.New(cfg) },
	}
}
