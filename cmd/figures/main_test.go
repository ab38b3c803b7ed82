package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestTranscripts pins the whole quick set as tables and as CSV, and one
// figure on one worker, byte for byte against goldens cut from the
// parent build.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"quick", "-quick"},
		{"quick-csv", "-quick -csv"},
		{"quick-fig4-seq", "-quick -fig 4 -workers 1"},
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
		{"-workers -1", 2},
		{"-fig 99", 2},
		{"-fig", 2},
		{"-nosuchflag", 2},
		{"-seed x", 2},
		{"-quick -fig 10 -workers 64", 0}, // more workers than sweep points
		{"-h", 0},
	} {
		if stdout := clitest.Exit(t, run, tc.code, strings.Fields(tc.args)...); tc.code != 0 && stdout != "" {
			t.Errorf("figures %s: exit %d wrote to stdout: %q", tc.args, tc.code, stdout)
		}
	}
}
