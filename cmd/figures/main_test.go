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
		code, stdout, stderr := clitest.Run(t, run, strings.Fields(tc.args)...)
		if code != tc.code {
			t.Errorf("figures %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		switch lines := strings.Count(stderr, "\n"); {
		case strings.Contains(stderr, "goroutine"):
			t.Errorf("figures %s: stderr carries a goroutine dump:\n%s", tc.args, stderr)
		case tc.code == 0:
			if (stderr != "") != (tc.args == "-h") {
				t.Errorf("figures %s: unexpected stderr %q", tc.args, stderr)
			}
		case stdout != "":
			t.Errorf("figures %s: exit %d wrote to stdout: %q", tc.args, tc.code, stdout)
		case lines != 1 && !strings.Contains(stderr, "Usage of"): // the flag package appends its usage text
			t.Errorf("figures %s: want exactly one stderr line, got %d:\n%s", tc.args, lines, stderr)
		}
	}
}
