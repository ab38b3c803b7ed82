package figures

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/npb/ft"
	"repro/internal/npb/suite"
)

// Fig10 reproduces Figure 10: the PowerPack component power profile of a
// parallel FFT run (the paper profiles HPCC MPI_FFT; our FT kernel is the
// same execution-pattern class). The trace shows per-component power of
// one node fluctuating above the idle line across computation,
// communication and idle-wait phases.
func Fig10(o Options) (Figure, error) {
	spec := machine.SystemG()
	cfg := ft.Config{NX: 32, NY: 32, NZ: 32, Iters: 4}
	if o.Quick {
		cfg = ft.Config{NX: 16, NY: 16, NZ: 16, Iters: 2}
	}
	// Sample rank 0's node (the paper plots one node) on the auto-sized
	// grid: a few hundred samples.
	mk := func() (npb.Kernel, error) { return ft.New(cfg) }
	rep, trace, err := suite.Profile(mk, spec, 4, 0, o.Seed+1000, 0)
	if err != nil {
		return Figure{}, err
	}
	idle, err := spec.Base()
	if err != nil {
		return Figure{}, err
	}
	var csv strings.Builder
	_ = trace.WriteCSV(&csv) // a strings.Builder does not fail
	body := trace.Render(96)
	body += fmt.Sprintf("\nrun: %v over %v; node idle line at %v; trace peak %v, mean %v\n",
		rep.Measured.Total, rep.Makespan, idle.PsysIdle, trace.PeakTotal(), trace.MeanTotal())
	return Figure{
		ID:    "10",
		Title: "Component power profile of parallel FFT (one node, PowerPack-style)",
		Body:  body,
		CSV:   csv.String(),
		Notes: []string{
			"paper: component power fluctuates above the idle-state line during execution; CPU carries the activity deltas",
		},
	}, nil
}
