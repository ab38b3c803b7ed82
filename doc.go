// Package repro is a from-scratch Go reproduction of Song, Su, Ge,
// Vishnu and Cameron, "Iso-energy-efficiency: An approach to
// power-constrained parallel computation" (IPDPS 2011).
//
// The public surface lives in the internal packages (this is a research
// artifact, versioned as a whole):
//
//   - internal/core — the iso-energy-efficiency model (Eq. 1–21)
//   - internal/machine, internal/app — the two parameter vectors
//   - internal/sim, internal/cluster, internal/mpi, internal/power —
//     the simulated power-aware cluster substrate
//   - internal/npb — executable NAS-style kernels (EP, FT, CG, IS, MG)
//   - internal/analysis, internal/figures — scaling studies and the
//     regeneration of every figure in the paper's evaluation
//
// See README.md for a tour and DESIGN.md for the system inventory.
// go run ./cmd/figures regenerates every figure; bash bench/run.sh times
// the paper path and the scheduler.
package repro
