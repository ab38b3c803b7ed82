package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestTranscripts pins the derived machine vector on both presets, with
// and without noise and the γ sweep, byte for byte against goldens cut
// from the parent build.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"default", ""},
		{"dori-noise", "-cluster dori -noise"},
		{"freq-nogamma-seed", "-freq 2.4e9 -gamma=false -seed 5"},
	} {
		code, stdout, stderr := clitest.Run(t, run, strings.Fields(tc.args)...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.golden, code, stderr)
		}
		clitest.Golden(t, tc.golden, stdout)
	}
}

// TestExitContract is the ladder as a table.
func TestExitContract(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-cluster zz", 2},
		{"-freq NaN", 2},
		{"-freq Inf", 2},
		{"-freq -1", 2},
		{"-nosuchflag", 2},
		{"-seed x", 2},
		{"-cluster DORI -gamma=false", 0}, // the preset name is case-insensitive
		{"-h", 0},
	} {
		if stdout := clitest.Exit(t, run, tc.code, strings.Fields(tc.args)...); tc.code != 0 && stdout != "" {
			t.Errorf("mpptest %s: exit %d wrote to stdout: %q", tc.args, tc.code, stdout)
		}
	}
}
