package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestTranscripts pins stdout of one run per kernel, every flag used at
// least once, byte for byte against goldens cut from the parent build.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"default", ""},
		{"ft-S", "-bench ft -class S -p 8"},
		{"cg-counters", "-bench cg -p 8 -counters"},
		{"is-noiseless", "-bench is -p 8 -noise=false"},
		{"mg-dori", "-bench mg -p 8 -cluster dori"},
		{"ep-freq-seed", "-bench ep -p 8 -freq 2.4e9 -seed 7"},
	} {
		code, stdout, stderr := clitest.Run(t, run, strings.Fields(tc.args)...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.golden, code, stderr)
		}
		clitest.Golden(t, tc.golden, stdout)
	}
}

// TestExitContract is the ladder as a table: a flag value no run can be
// built from exits 2 with one stderr line and a silent stdout, a run
// that started and failed exits 1 with one line, -h exits 0.
func TestExitContract(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-bench xx", 2},
		{"-class Z", 2},
		{"-bench ft -class s", 2}, // classes are upper-case
		{"-cluster zz", 2},
		{"-p 0", 2},
		{"-p -3", 2},
		{"-freq NaN", 2},
		{"-freq Inf", 2},
		{"-freq -1", 2},
		{"-nosuchflag", 2},
		{"-p many", 2},
		{"-bench ft -p 3", 1},             // FT's grid does not divide by 3
		{"-bench ep -class T -p 4096", 1}, // more ranks than the preset has
		{"-bench EP -class T -p 2", 0},    // the benchmark name is case-insensitive
		{"-h", 0},
	} {
		if stdout := clitest.Exit(t, run, tc.code, strings.Fields(tc.args)...); tc.code != 0 && stdout != "" {
			t.Errorf("npbrun %s: exit %d wrote to stdout: %q", tc.args, tc.code, stdout)
		}
	}
}

// TestSharedSentences: a bad -bench, -class or -cluster reads here as it
// does on powerpack, whose test holds the same three rows — both commands
// resolve them through suite.New and cli.MachineFlags.
func TestSharedSentences(t *testing.T) {
	for _, tc := range []struct{ args, stderr string }{
		{"-bench xx", `unknown benchmark "xx" (have ep, ft, cg, is, mg)`},
		{"-bench ft -class Z", `ft: unknown class "Z" (have A, B, S, T, W)`},
		{"-cluster zz", `-cluster "zz": have dori, systemg`},
	} {
		if code, _, stderr := clitest.Run(t, run, strings.Fields(tc.args)...); code != 2 || stderr != tc.stderr+"\n" {
			t.Errorf("npbrun %s: exit %d, stderr %q; want 2, %q", tc.args, code, stderr, tc.stderr)
		}
	}
}
