package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestTranscripts pins stdout and the -json dump ("-json -" appends it
// to stdout) of the fedrun-smoke CI invocations, byte for byte, against
// goldens cut from the parent build.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"sweep", []string{"-jobs", "16", "-sites", "east=systemg:16;west=systemg:16",
			"-budget", "0:1800,1:1500,2.2:1800", "-carbon", "east=0:300,1.5:100;west=0:100,1.5:300",
			"-split", "all", "-route", "all"}},
		{"solo", []string{"-jobs", "24", "-sites", "solo=systemg:16", "-budget", "0:900,1:650,2.2:900",
			"-seed", "42", "-split", "static-share", "-route", "ee"}},
	} {
		code, stdout, stderr := clitest.Run(t, run, append(tc.args, "-json", "-")...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.golden, code, stderr)
		}
		clitest.Golden(t, tc.golden, stdout)
	}
}

// TestFlagsGolden pins every flag's name, type, default and usage: the
// -h text after its "Usage of <argv0>:" line.
func TestFlagsGolden(t *testing.T) {
	code, _, stderr := clitest.Run(t, run, "-h")
	if code != 0 {
		t.Fatalf("-h exits %d", code)
	}
	_, flags, _ := strings.Cut(stderr, "\n")
	clitest.Golden(t, "flags", flags)
}

// TestExitContract is the ladder as a table: configuration no
// federation can be built from — by the flag checks or by fed.New —
// exits 2 with exactly one stderr line; an unwritable file exits 1.
func TestExitContract(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "prefix")
	for _, tc := range []struct {
		args []string
		code int
	}{
		// Contradictory combinations.
		{[]string{"-cap", "1800", "-budget", "0:1800"}, 2},
		{[]string{"-events", filepath.Join(dir, "ev")}, 2},
		{[]string{"-status", "127.0.0.1:0"}, 2},
		{[]string{"-events", filepath.Join(dir, "ev"), "-split", "greedy-ee"}, 2},
		// Unknown names.
		{[]string{"-split", "bogus"}, 2},
		{[]string{"-route", "bogus"}, 2},
		{[]string{"-policy", "bogus"}, 2},
		{[]string{"-policy", "backfill1+ee-max"}, 2}, // Name never prints K = 1
		{[]string{"-policy", "backfill0+fifo"}, 2},
		{[]string{"-carbon", "north=0:100"}, 2},
		{[]string{"-local", "north=0:2000"}, 2},
		// Malformed specs.
		{[]string{"-sites", "east"}, 2},
		{[]string{"-sites", ""}, 2},
		{[]string{"-sites", "east=bogus:16"}, 2},
		{[]string{"-carbon", "east"}, 2},
		{[]string{"-carbon", "east=0"}, 2},
		{[]string{"-carbon", "east=5:100"}, 2},
		{[]string{"-carbon", "east=0:NaN"}, 2},
		{[]string{"-carbon", "east=0:-4"}, 2},
		{[]string{"-local", "west=bogus"}, 2},
		{[]string{"-budget", "bogus"}, 2},
		{[]string{"-budget", "0:NaN"}, 2},
		{[]string{"-jobs", "-1"}, 2},
		{[]string{"-cap", "NaN"}, 2},
		{[]string{"-nosuchflag"}, 2},
		// What fed.New rejects is configuration too.
		{[]string{"-lambda", "2"}, 2},
		{[]string{"-lambda", "-0.5"}, 2},
		{[]string{"-lambda", "NaN"}, 2},
		{[]string{"-cap", "5"}, 2},
		{[]string{"-local", "west=0:5"}, 2},
		{[]string{"-sites", "a=systemg:16;a=systemg:16"}, 2},
		{[]string{"-sites", "=systemg:16"}, 2},
		// Over the platform rank bound: refused before any rank is built.
		{[]string{"-sites", "east=systemg:99999999999", "-cap", "1e15", "-split", "static-share", "-route", "ee", "-jobs", "2"}, 2},
		// Files.
		{[]string{"-split", "greedy-ee", "-route", "ee", "-events", missing}, 1},
		{[]string{"-json", missing}, 1},
		// An empty trace is a run.
		{[]string{"-jobs", "0", "-split", "static-share", "-route", "ee"}, 0},
		// Every name the scheduler prints runs, K reservations included.
		{[]string{"-jobs", "8", "-split", "static-share", "-route", "ee", "-policy", "backfill2+ee-max"}, 0},
	} {
		clitest.Exit(t, run, tc.code, append([]string{"-jobs", "4"}, tc.args...)...)
	}
}
