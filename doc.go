// Package repro is a from-scratch Go reproduction of Song, Su, Ge,
// Vishnu and Cameron, "Iso-energy-efficiency: An approach to
// power-constrained parallel computation" (IPDPS 2011).
//
// README.md tours the packages and commands; DESIGN.md describes each
// layer.
package repro
