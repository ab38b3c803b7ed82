package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles repolint once per test binary into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "repolint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module badmod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLint(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run repolint: %v\n%s", err, buf.String())
	}
	return buf.String(), code
}

// TestInjectedWallClockFails pins the acceptance contract: a seeded bad
// module with time.Now() injected into an internal/sched package (plus
// an unsorted map range) makes repolint exit 1 and name both findings —
// the failure mode the CI lint step would produce on such a change to
// the real tree.
func TestInjectedWallClockFails(t *testing.T) {
	bin := buildBinary(t)
	root := writeModule(t, map[string]string{
		"internal/sched/sched.go": `package sched

import (
	"fmt"
	"time"
)

func Stamp() string {
	return time.Now().String()
}

func Dump(m map[int]string) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
	})
	out, code := runLint(t, bin, root, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"time.Now", "[simclock]",
		"order-dependent", "[detmaprange]",
		"sched.go",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCleanModuleExitsZero pins the other side of the exit-code
// contract.
func TestCleanModuleExitsZero(t *testing.T) {
	bin := buildBinary(t)
	root := writeModule(t, map[string]string{
		"internal/sched/sched.go": `package sched

// Add is invariant-free.
func Add(a, b int) int { return a + b }
`,
	})
	out, code := runLint(t, bin, root, "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("expected silence on a clean tree, got:\n%s", out)
	}
}

// TestUsageAndLoadErrorsExitTwo distinguishes misuse from findings.
func TestUsageAndLoadErrorsExitTwo(t *testing.T) {
	bin := buildBinary(t)
	root := writeModule(t, map[string]string{
		"broken/broken.go": `package broken

func Oops() int { return undefinedIdent }
`,
	})
	if out, code := runLint(t, bin, root); code != 2 {
		t.Errorf("no-args exit code = %d, want 2\n%s", code, out)
	}
	if out, code := runLint(t, bin, root, "./broken"); code != 2 {
		t.Errorf("type-error exit code = %d, want 2\n%s", code, out)
	}
	if out, code := runLint(t, bin, root, "-fix", "./..."); code != 2 {
		t.Errorf("unknown -fix flag exit code = %d, want 2\n%s", code, out)
	}
}
