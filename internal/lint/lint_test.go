package lint

import (
	"path/filepath"
	"testing"
)

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestDetMapRangeFixtures(t *testing.T) {
	RunFixtures(t, fixtureRoot(t), DetMapRange("sched", "fixme", "fed"),
		"det/sched", "det/other", "det/fixme", "det/fed")
}

func TestSimClockFixtures(t *testing.T) {
	RunFixtures(t, fixtureRoot(t), SimClock(), "clock/a", "clock/frng")
}

func TestTelGuardFixtures(t *testing.T) {
	RunFixtures(t, fixtureRoot(t),
		TelGuard([]string{"tg"}, []string{"telemetry.Recorder", "tg.glue"}),
		"tg", "telemetry")
}

func TestUnitMixFixtures(t *testing.T) {
	RunFixtures(t, fixtureRoot(t), UnitMix("units"),
		"um/use", "um/defs", "um/units")
}

// TestRepoIsClean is the repolint-on-itself smoke: the default suite
// over the whole tree — including internal/lint — must be silent, the
// same property CI pins with `go run ./cmd/repolint ./...`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full tree from source")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand("./...")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected the full tree, loaded only %d packages", len(pkgs))
	}
	diags, err := Run(Default(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", positionString(loader.Fset, d.Pos), d.Analyzer, d.Message)
	}
}
