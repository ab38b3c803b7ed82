// Package suite is the catalogue of the NPB kernels and the one
// procedure that profiles a run of any of them: New resolves the
// (benchmark, class) names npbrun and powerpack take, Profile is the
// PowerPack measurement powerpack and Figure 10 share (DESIGN.md §3, §4).
package suite

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/npb/cg"
	"repro/internal/npb/ep"
	"repro/internal/npb/ft"
	"repro/internal/npb/is"
	"repro/internal/npb/mg"
	"repro/internal/power"
	"repro/internal/units"
)

// catalogue lists the benchmarks in the order a miss names them.
var catalogue = []struct {
	name string
	new  func(bench, class string) (npb.Kernel, error)
}{
	{"ep", entry(ep.Classes, ep.New)},
	{"ft", entry(ft.Classes, ft.New)},
	{"cg", entry(cg.Classes, cg.New)},
	{"is", entry(is.Classes, is.New)},
	{"mg", entry(mg.Classes, mg.New)},
}

// entry adapts one kernel package's Classes/New pair; bench, the row's own name, heads the class-miss message.
func entry[C any, K npb.Kernel](classes func() map[string]C, mk func(C) (K, error)) func(bench, class string) (npb.Kernel, error) {
	return func(bench, class string) (npb.Kernel, error) {
		cfg, ok := classes()[class]
		if !ok {
			return nil, fmt.Errorf("%s: unknown class %q (have %s)", bench, class, strings.Join(slices.Sorted(maps.Keys(classes())), ", "))
		}
		k, err := mk(cfg)
		if err != nil {
			return nil, err // not k: a nil *Kernel in a Kernel is not nil
		}
		return k, nil
	}
}

// New builds a fresh instance of the named benchmark (in any case) at
// the named problem class; a miss on either names what exists.
func New(name, class string) (npb.Kernel, error) {
	var names []string
	for _, b := range catalogue {
		if strings.EqualFold(b.name, name) {
			return b.new(b.name, class)
		}
		names = append(names, b.name)
	}
	return nil, fmt.Errorf("unknown benchmark %q (have %s)", name, strings.Join(names, ", "))
}

// Profile runs a kernel from mk on p noisy ranks of spec under a noisy
// power meter that samples the given ranks (all, if none) every
// interval. An interval of 0 sizes the grid to about 200 samples on a
// noiseless dry run of a second kernel (kernels are single-use), but no
// finer than power.MinInterval.
func Profile(mk func() (npb.Kernel, error), spec machine.Spec, p int, interval units.Seconds, seed int64, ranks ...int) (rep npb.Report, trace power.Profile, err error) {
	provision := func(noise cluster.NoiseConfig) (k npb.Kernel, cl *cluster.Cluster, err error) {
		if k, err = mk(); err == nil {
			cl, err = cluster.New(cluster.Config{Spec: spec, Ranks: p, Alpha: k.Alpha(), Noise: noise, Seed: seed})
		}
		return k, cl, err
	}
	if interval == 0 {
		k, dry, err := provision(cluster.NoiseConfig{})
		if err == nil {
			_, err = npb.Run(dry, k)
		}
		if err != nil {
			return rep, trace, err
		}
		if interval = dry.Wall() / 200; interval <= 0 {
			interval = units.Millisecond
		}
		interval = max(interval, power.MinInterval)
	}
	k, cl, err := provision(cluster.DefaultNoise())
	if err != nil {
		return rep, trace, err
	}
	prof, err := power.Attach(cl, interval, true, ranks...)
	if err != nil {
		return rep, trace, err
	}
	tr := power.Profile{Interval: interval}
	prof.OnSample(func(s power.Sample) { tr.Samples = append(tr.Samples, s) })
	if rep, err = npb.Run(cl, k); err != nil {
		return rep, trace, err
	}
	return rep, tr, nil
}
