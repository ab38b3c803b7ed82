package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitLadder pins the contract: usage 2, failure 1, violations 3,
// lost jobs 4, violations winning; verdicts and help are silent, usage
// errors and failures print exactly their one line.
func TestExitLadder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		err    error
		code   int
		stderr string
	}{
		{"success", nil, 0, ""},
		{"failure", errors.New("disk full"), 1, "disk full\n"},
		{"usage", Usagef("-x %d is bad", 3), 2, "-x 3 is bad\n"},
		{"usage of nil", Usage(nil), 0, ""},
		{"wrapped usage", fmt.Errorf("run 2: %w", Usage(errors.New("bad cap"))), 2, "bad cap\n"},
		{"violated", Verdict(true, false), 3, ""},
		{"lost", Verdict(false, true), 4, ""},
		{"violations win", Verdict(true, true), 3, ""},
		{"clean verdict", Verdict(false, false), 0, ""},
	} {
		var errb bytes.Buffer
		if code := Exit(tc.err, &errb); code != tc.code || errb.String() != tc.stderr {
			t.Errorf("%s: exit %d stderr %q, want %d %q", tc.name, code, errb.String(), tc.code, tc.stderr)
		}
	}
}

func TestParseNumericRule(t *testing.T) {
	parse := func(args ...string) (map[string]bool, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Float64("rate", 1, "")
		fs.Int("n", 0, "")
		return Parse(fs, args)
	}
	given, err := parse("-rate", "2", "-n", "-5")
	if err != nil || !given["rate"] || !given["n"] || given["nosuch"] {
		t.Fatalf("valid flags: given %v, err %v", given, err)
	}
	for _, bad := range [][]string{
		{"-rate", "NaN"}, {"-rate", "Inf"}, {"-rate", "-Inf"}, {"-rate", "-1"},
		{"-nosuch"}, {"-n", "x"},
	} {
		if _, err := parse(bad...); Exit(err, io.Discard) != 2 {
			t.Errorf("Parse(%v) = %v, want a usage error", bad, err)
		}
	}
	if _, err := parse("-h"); Exit(err, io.Discard) != 0 || err == nil {
		t.Errorf("-h: %v, want a silent zero exit that still stops the run", err)
	}
}

// TestMachineFlags: -cluster resolves a preset in any case, 0 Hz is its
// nominal frequency, a miss is a usage error naming the presets, and an
// empty freqUsage registers no -freq at all.
func TestMachineFlags(t *testing.T) {
	resolve := func(freqUsage string, args ...string) (string, float64, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		platform := MachineFlags(fs, freqUsage)
		if _, err := Parse(fs, args); err != nil {
			return "", 0, err
		}
		spec, f, err := platform()
		return spec.Name, float64(f), err
	}
	for _, tc := range []struct {
		args string
		name string
		freq float64
	}{
		{"", "SystemG", 2.8e9},
		{"-cluster DORI", "Dori", 2.0e9},
		{"-cluster dori -freq 1e9", "Dori", 1e9},
		{"-freq 0", "SystemG", 2.8e9},
	} {
		if name, f, err := resolve("Hz", strings.Fields(tc.args)...); err != nil || name != tc.name || f != tc.freq {
			t.Errorf("%q = %s, %g, %v; want %s, %g", tc.args, name, f, err, tc.name, tc.freq)
		}
	}
	_, _, err := resolve("Hz", "-cluster", "zz")
	if Exit(err, io.Discard) != 2 || err.Error() != `-cluster "zz": have dori, systemg` {
		t.Errorf("unknown preset: %v", err)
	}
	if _, _, err := resolve("", "-freq", "1e9"); Exit(err, io.Discard) != 2 {
		t.Errorf("-freq without a usage string: %v, want the flag package's usage error", err)
	}
	if name, f, err := resolve(""); err != nil || name != "SystemG" || f != 2.8e9 {
		t.Errorf("no -freq flag = %s, %g, %v; want the nominal frequency", name, f, err)
	}
}

func TestSelect(t *testing.T) {
	reg := map[string]int{"zeta": 1, "base": 2, "alpha": 3}
	if all, err := Select("x", "all", reg, "base"); err != nil || fmt.Sprint(all) != "[2 3 1]" {
		t.Errorf("all = %v, %v; want baseline first, then name order", all, err)
	}
	if one, err := Select("x", "zeta", reg, "base"); err != nil || fmt.Sprint(one) != "[1]" {
		t.Errorf("zeta = %v, %v", one, err)
	}
	_, err := Select("x", "nope", reg, "base")
	if Exit(err, io.Discard) != 2 || !strings.Contains(err.Error(), "have base, alpha, zeta, all") {
		t.Errorf("unknown name: %v", err)
	}
}

func TestBudget(t *testing.T) {
	for _, tc := range []struct {
		args     string
		plan     string
		timeline bool
		code     int
	}{
		{"", "0:2500", false, 0},
		{"-cap 900", "0:900", false, 0},
		{"-plan 0:900,1:650", "0:900,1:650", true, 0},
		{"-cap NaN", "", false, 2},
		{"-cap 0", "", false, 2},
		{"-plan bogus", "", false, 2},
		{"-cap 900 -plan 0:900", "", false, 2},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		b := BudgetFlags(fs, 2500, "cap", "plan", "plan spec")
		given, err := Parse(fs, strings.Fields(tc.args))
		var got string
		var timeline bool
		if err == nil {
			plan, tl, perr := b.Plan(given)
			if err, timeline = perr, tl; perr == nil {
				got = plan.String()
			}
		}
		if code := Exit(err, io.Discard); code != tc.code || got != tc.plan || timeline != tc.timeline {
			t.Errorf("%q: plan %q timeline %v exit %d (%v), want %q %v %d", tc.args, got, timeline, code, err, tc.plan, tc.timeline, tc.code)
		}
	}
}

func TestOutputsFirstError(t *testing.T) {
	dir := t.TempDir()
	var out Outputs
	w := out.Create(filepath.Join(dir, "ok.txt"))
	fmt.Fprint(w, "kept")
	fmt.Fprint(out.Create(filepath.Join(dir, "missing", "a")), "dropped")
	out.Create(filepath.Join(dir, "missing", "b"))
	rec := out.Recorder()
	rec.Metrics().StreamCSV(out.Create(filepath.Join(dir, "m.csv")))
	first := out.Err()
	if first == nil || !strings.Contains(first.Error(), filepath.Join("missing", "a")) {
		t.Fatalf("Err = %v, want the first Create failure", first)
	}
	if err := out.Close(); err != first {
		t.Errorf("Close = %v, want the first error %v", err, first)
	}
	if err := out.Close(); err != first {
		t.Errorf("second Close = %v, want the same error and no double close", err)
	}
	if buf, err := os.ReadFile(filepath.Join(dir, "ok.txt")); err != nil || string(buf) != "kept" {
		t.Errorf("ok.txt = %q, %v", buf, err)
	}
	var clean Outputs
	clean.Create(filepath.Join(dir, "c.txt"))
	if err := clean.Close(); err != nil {
		t.Errorf("clean Close = %v", err)
	}
}

func TestWriteJSON(t *testing.T) {
	var stdout bytes.Buffer
	if err := WriteJSON("", &stdout, 1); err != nil || stdout.Len() != 0 {
		t.Errorf("off: wrote %q, %v", stdout.String(), err)
	}
	if err := WriteJSON("-", &stdout, []int{1}); err != nil || stdout.String() != "[\n  1\n]\n" {
		t.Errorf("stdout: wrote %q, %v", stdout.String(), err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteJSON(path, &stdout, "x"); err != nil {
		t.Fatal(err)
	}
	if buf, _ := os.ReadFile(path); string(buf) != "\"x\"\n" {
		t.Errorf("file: %q", buf)
	}
}
