package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestTranscripts pins one transcript per mode — point prediction, both
// surfaces, the iso-energy function, the budget optimiser — byte for
// byte against goldens cut from the parent build.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"default", ""},
		{"cg-surface-pf", "-app cg -n 75000 -surface pf"},
		{"ft-surface-pn", "-app ft -surface pn"},
		{"ft-iso", "-app ft -iso 0.75"},
		{"cg-budget", "-app cg -n 75000 -budget 2000"},
		{"mg-dori", "-app mg -cluster dori -freq 1.8e9 -p 8"},
	} {
		code, stdout, stderr := clitest.Run(t, run, strings.Fields(tc.args)...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.golden, code, stderr)
		}
		clitest.Golden(t, tc.golden, stdout)
	}
}

// TestExitContract is the ladder as a table. The -p 0, -n -1 and -n 0
// rows are regressions: app.Vector.At panics on them, and before this
// table each was a goroutine dump.
func TestExitContract(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-p 0", 2},
		{"-p -4", 2},
		{"-n -1", 2},
		{"-n 0", 2},
		{"-n NaN", 2},
		{"-n Inf", 2},
		{"-n 1e-323 -surface pn", 2}, // n/16 underflows to 0
		{"-freq NaN", 2},
		{"-freq -1", 2},
		{"-surface zz", 2},
		{"-iso 2", 2},
		{"-iso NaN", 2},
		{"-iso -0.5", 2},
		{"-budget -1", 2},
		{"-budget NaN", 2},
		{"-cluster zz", 2},
		{"-app zz", 2},
		{"-nosuchflag", 2},
		{"-budget 1", 1}, // no (p, f) fits under 1 W
		{"-iso 1", 1},    // EE = 1 is unreachable by scaling n
		{"-p 1", 0},
		{"-h", 0},
	} {
		if stdout := clitest.Exit(t, run, tc.code, strings.Fields(tc.args)...); tc.code != 0 && stdout != "" {
			t.Errorf("isoee %s: exit %d wrote to stdout: %q", tc.args, tc.code, stdout)
		}
	}
}
