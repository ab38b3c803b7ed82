package suite

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/npb/cg"
	"repro/internal/npb/ep"
	"repro/internal/npb/ft"
	"repro/internal/npb/is"
	"repro/internal/npb/mg"
	"repro/internal/units"
)

// classes is every kernel package's class table by benchmark name: what
// the catalogue must cover.
func classes() map[string][]string {
	return map[string][]string{
		"ep": slices.Sorted(maps.Keys(ep.Classes())),
		"ft": slices.Sorted(maps.Keys(ft.Classes())),
		"cg": slices.Sorted(maps.Keys(cg.Classes())),
		"is": slices.Sorted(maps.Keys(is.Classes())),
		"mg": slices.Sorted(maps.Keys(mg.Classes())),
	}
}

// TestAlphaIsTheModels: α has one home, the application vector (paper
// Table 2); every catalogued kernel provisions its cluster with it.
func TestAlphaIsTheModels(t *testing.T) {
	for _, b := range catalogue {
		v, err := app.ByName(b.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range classes()[b.name] {
			k, err := b.new(b.name, class)
			if err != nil {
				t.Fatal(err)
			}
			if k.Alpha() != v.Alpha {
				t.Errorf("%s class %s: kernel α %g, app α %g", b.name, class, k.Alpha(), v.Alpha)
			}
		}
	}
}

// TestNewCoversEveryClass: a class added to a kernel package cannot be
// missing from the catalogue, and every catalogued pair builds.
func TestNewCoversEveryClass(t *testing.T) {
	all := classes()
	if len(all) != len(catalogue) {
		t.Fatalf("catalogue has %d benchmarks, the test knows %d", len(catalogue), len(all))
	}
	for _, bench := range slices.Sorted(maps.Keys(all)) {
		for _, class := range all[bench] {
			for _, name := range []string{bench, strings.ToUpper(bench)} {
				k, err := New(name, class)
				if err != nil {
					t.Fatalf("New(%q, %q): %v", name, class, err)
				}
				if !strings.EqualFold(k.Name(), bench) {
					t.Errorf("New(%q, %q) built a %s", name, class, k.Name())
				}
			}
		}
	}
}

// TestNewNamesWhatExists: a miss on either name lists the alternatives.
func TestNewNamesWhatExists(t *testing.T) {
	for _, tc := range []struct{ bench, class, want string }{
		{"xx", "S", `unknown benchmark "xx" (have ep, ft, cg, is, mg)`},
		{"", "S", `unknown benchmark "" (have ep, ft, cg, is, mg)`},
		{"ft", "Z", `ft: unknown class "Z" (have A, B, S, T, W)`},
		{"FT", "s", `ft: unknown class "s" (have A, B, S, T, W)`},
	} {
		if k, err := New(tc.bench, tc.class); err == nil || k != nil || err.Error() != tc.want {
			t.Errorf("New(%q, %q) = %v, %v; want nil, %q", tc.bench, tc.class, k, err, tc.want)
		}
	}
}

// factory counts how many kernels a Profile call asked for.
func factory(bench string, calls *int) func() (npb.Kernel, error) {
	return func() (npb.Kernel, error) {
		*calls++
		return New(bench, "T")
	}
}

// TestProfileAutoGrid: with interval 0 the grid is sized on the
// noiseless dry run — a second kernel — so the noisy run lands near the
// 200 samples aimed for, whatever the kernel.
func TestProfileAutoGrid(t *testing.T) {
	for _, b := range catalogue {
		calls := 0
		rep, trace, err := Profile(factory(b.name, &calls), machine.SystemG(), 4, 0, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if n := len(trace.Samples); n < 180 || n > 220 {
			t.Errorf("%s: %d samples, want 180–220", b.name, n)
		}
		if calls != 2 || rep.P != 4 || rep.Makespan <= 0 {
			t.Errorf("%s: %d kernels built, report %v", b.name, calls, rep)
		}
	}
}

// TestProfileExplicitGrid: a given interval needs no dry run, so the
// second kernel is never built; one seed gives one profile, another seed
// another.
func TestProfileExplicitGrid(t *testing.T) {
	profile := func(seed int64) string {
		calls := 0
		_, trace, err := Profile(factory("ft", &calls), machine.Dori(), 4, 50*units.Microsecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Errorf("explicit interval built %d kernels, want 1", calls)
		}
		var csv strings.Builder
		if err := trace.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return csv.String()
	}
	a, b, c := profile(7), profile(7), profile(8)
	if a != b {
		t.Error("two profiles from one seed differ")
	}
	if a == c {
		t.Error("seeds 7 and 8 give the same noisy profile")
	}
}

// TestProfileRejects: a rank outside the cluster, a rank count the
// preset cannot host, a negative interval and a failing factory are
// errors, not panics.
func TestProfileRejects(t *testing.T) {
	calls := 0
	mk := factory("ep", &calls)
	for name, err := range map[string]error{
		"rank 4 of 4":    second(Profile(mk, machine.SystemG(), 4, 0, 1, 4)),
		"rank -1":        second(Profile(mk, machine.SystemG(), 4, units.Millisecond, 1, -1)),
		"rank twice":     second(Profile(mk, machine.SystemG(), 4, units.Millisecond, 1, 2, 2)),
		"zero ranks":     second(Profile(mk, machine.SystemG(), 0, 0, 1)),
		"neg. interval":  second(Profile(mk, machine.SystemG(), 4, -1, 1)),
		"unknown kernel": second(Profile(factory("xx", &calls), machine.SystemG(), 4, 0, 1)),
	} {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func second(_ npb.Report, _ any, err error) error { return err }
