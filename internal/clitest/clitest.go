// Package clitest drives a cli.Main-style command from `go test`: run
// it in-process with captured streams, map its error through the exit
// ladder, and pin transcripts as golden files.
//
// Goldens are cut from a *parent* build so a refactor is checked against
// the behaviour it replaces, not against itself:
//
//	go build -o /tmp/schedrun.parent ./cmd/schedrun   # in a parent checkout
//	go test ./cmd/schedrun -update -bin /tmp/schedrun.parent
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cli"
)

var (
	update = flag.Bool("update", false, "rewrite testdata/*.golden from the observed output")
	bin    = flag.String("bin", "", "run this built command instead of the in-process run (to cut goldens from a parent build)")
)

// Func is a command's run function.
type Func func(args []string, stdout, stderr io.Writer) error

// Run executes the command and returns its exit code and streams.
func Run(t *testing.T, run Func, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if *bin == "" {
		code = cli.Exit(run(args, &out, &errb), &errb)
		return code, out.String(), errb.String()
	}
	cmd := exec.Command(*bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", *bin, err)
	}
	return code, out.String(), errb.String()
}

// Golden compares got with testdata/<name>.golden, or rewrites the file
// under -update.
func Golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<eof>"
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		if line(g, i) != line(w, i) {
			t.Fatalf("%s differs from %s (cut from the parent build; see package clitest) at line %d:\n got: %q\nwant: %q",
				name, path, i+1, line(g, i), line(w, i))
		}
	}
}

// Exit runs one row of a command's exit table and checks the stream
// rules of the exit ladder: the run exits want and never dumps
// goroutines; on exit 0, 3 or 4 stderr is silent (-h prints its usage
// there instead); on exit 1 or 2 it is exactly one line, unless the flag
// package appended its usage text. It returns stdout for rules of the
// command's own.
func Exit(t *testing.T, run Func, want int, args ...string) (stdout string) {
	t.Helper()
	code, stdout, stderr := Run(t, run, args...)
	if code != want {
		t.Errorf("%q: exit %d, want %d (stderr %q)", args, code, want, stderr)
	}
	switch lines := strings.Count(stderr, "\n"); {
	case strings.Contains(stderr, "goroutine"):
		t.Errorf("%q: stderr carries a goroutine dump:\n%s", args, stderr)
	case want == 0 || want > 2:
		if (stderr != "") != slices.Contains(args, "-h") {
			t.Errorf("%q: unexpected stderr %q", args, stderr)
		}
	case lines != 1 && !strings.Contains(stderr, "Usage of"): // the flag package appends its usage text
		t.Errorf("%q: want exactly one stderr line, got %d:\n%s", args, lines, stderr)
	}
	return stdout
}
