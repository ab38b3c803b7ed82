// Package lint is the repository's custom static-analysis suite: a set
// of analyzers that machine-check the invariants every simulation
// result in this tree rests on, plus the small framework needed to run
// them.
//
// The invariants are the ones the golden tests can only catch after the
// fact:
//
//   - bit-for-bit determinism per seed — no observable dependence on
//     Go's randomized map iteration order in any package that feeds a
//     schedule, a figure CSV, or a golden dump (analyzer detmaprange);
//   - no wall-clock time or global math/rand state in simulated paths —
//     all time comes from the sim.Clock / kernel virtual clock and all
//     randomness from seeded *rand.Rand instances (analyzer simclock);
//   - the disabled-telemetry path stays allocation-free — every use of
//     the telemetry recorder from the scheduler is dominated by a
//     nil guard, as pinned dynamically by TestNilRecorderIsFreeAndSafe
//     (analyzer telguard);
//   - unit discipline in the energy model — internal/units quantity
//     kinds are never mixed additively, never squared back into
//     themselves, and never fed from bare float literals across package
//     boundaries (analyzer unitmix).
//
// # Why a local framework instead of golang.org/x/tools/go/analysis
//
// The analyzers are written in the style of x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, // want fixture tests) so
// that they can be ported mechanically if that dependency becomes
// available. This module, however, builds offline with a stdlib-only
// dependency set, so the few pieces of the framework the analyzers need
// — a module-aware source loader (load.go), the pass plumbing
// (analysis.go), and an analysistest-style fixture runner
// (analysistest.go) — are implemented here on top of go/ast, go/types
// and go/importer. For the same reason cmd/repolint runs standalone
// rather than as a `go vet -vettool`: the vettool wire protocol needs
// x/tools' unitchecker and export-data loader.
//
// Run the suite with:
//
//	go run ./cmd/repolint ./...
//
// It exits 0 when clean, 1 on any diagnostic, 2 on load errors; see
// cmd/repolint and DESIGN.md §10 for the escape hatches
// (//lint:wallclock, //lint:orderinsensitive) and per-analyzer
// rationale.
package lint
