package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestTranscripts pins the strip chart, the CSV, the whole-cluster
// profile and an explicit sampling grid, byte for byte against goldens
// cut from the parent build.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"default", ""},
		{"cg-csv", "-bench cg -class T -p 4 -csv"},
		{"ep-cluster", "-bench ep -p 2 -rank -1"},
		{"is-interval-rank", "-bench is -p 4 -interval 0.001 -rank 3"},
	} {
		code, stdout, stderr := clitest.Run(t, run, strings.Fields(tc.args)...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.golden, code, stderr)
		}
		clitest.Golden(t, tc.golden, stdout)
	}
}

// TestExitContract is the ladder as a table; the -bench, -class and
// -cluster rows are npbrun's, sentence for sentence (TestSharedSentences).
func TestExitContract(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-bench xx", 2},
		{"-class Z", 2},
		{"-cluster zz", 2},
		{"-p 0", 2},
		{"-rank 99", 2},
		{"-rank 4", 2}, // ranks are [0, p)
		{"-rank -2", 2},
		{"-interval NaN", 2},
		{"-interval Inf", 2},
		{"-interval -1", 2},
		{"-interval 1e-300", 2}, // below power.MinInterval: the grid would not fit in memory
		{"-interval 1e-7", 2},
		{"-nosuchflag", 2},
		{"-bench ft -p 3", 1},    // FT's grid does not divide by 3
		{"-bench ep -p 4096", 1}, // more ranks than the preset has
		{"-bench CG -p 2 -rank 1 -seed 3", 0},
		{"-bench ep -p 16", 0}, // auto-sized interval clamps to power.MinInterval
		{"-h", 0},
	} {
		if stdout := clitest.Exit(t, run, tc.code, strings.Fields(tc.args)...); tc.code != 0 && stdout != "" {
			t.Errorf("powerpack %s: exit %d wrote to stdout: %q", tc.args, tc.code, stdout)
		}
	}
}

// TestSharedSentences: a bad -bench, -class or -cluster reads here as it
// does on npbrun, whose test holds the same three rows — both commands
// resolve them through suite.New and cli.MachineFlags.
func TestSharedSentences(t *testing.T) {
	for _, tc := range []struct{ args, stderr string }{
		{"-bench xx", `unknown benchmark "xx" (have ep, ft, cg, is, mg)`},
		{"-bench ft -class Z", `ft: unknown class "Z" (have A, B, S, T, W)`},
		{"-cluster zz", `-cluster "zz": have dori, systemg`},
	} {
		if code, _, stderr := clitest.Run(t, run, strings.Fields(tc.args)...); code != 2 || stderr != tc.stderr+"\n" {
			t.Errorf("powerpack %s: exit %d, stderr %q; want 2, %q", tc.args, code, stderr, tc.stderr)
		}
	}
}
