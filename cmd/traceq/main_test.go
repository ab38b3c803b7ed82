package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// events is the scheduler's golden NDJSON stream (faults, a cap plan,
// backfill reservations), chromeTrace the Chrome trace a sink attached
// to the same run wrote; worstWaiter is the admitted job with the
// largest wait_s in it.
const (
	events      = "../../internal/sched/testdata/golden_events.ndjson"
	chromeTrace = "../../internal/sched/testdata/golden_trace.json"
	worstWaiter = "23"
)

// TestTranscripts pins the four queries' stdout over the golden stream,
// byte for byte, against goldens cut from the parent build, and the
// chrome fold against the in-run sink's golden.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"why", []string{"why", worstWaiter, events}},
		{"critpath", []string{"critpath", events}},
		{"windows", []string{"windows", events}},
		{"summary", []string{"summary", events}},
	} {
		code, stdout, stderr := clitest.Run(t, run, tc.args...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.golden, code, stderr)
		}
		clitest.Golden(t, tc.golden, stdout)
	}
	want, err := os.ReadFile(chromeTrace)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := clitest.Run(t, run, "chrome", events)
	if code != 0 || stderr != "" {
		t.Fatalf("chrome: exit %d, stderr %q", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("chrome over %s differs from %s (%d vs %d bytes)", events, chromeTrace, len(stdout), len(want))
	}
}

// TestMergeIsDeterministic: merging the same two inputs twice gives the
// same bytes, one line per input event, each stamped with a site.
func TestMergeIsDeterministic(t *testing.T) {
	merge := func() string {
		code, stdout, stderr := clitest.Run(t, run, "merge", "east="+events, "west="+events)
		if code != 0 || stderr != "" {
			t.Fatalf("merge: exit %d, stderr %q", code, stderr)
		}
		return stdout
	}
	in, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	a, b := merge(), merge()
	if a != b {
		t.Fatal("two merges of the same inputs differ")
	}
	if got, want := strings.Count(a, "\n"), 2*strings.Count(string(in), "\n"); got != want {
		t.Fatalf("merged stream has %d lines, want %d", got, want)
	}
	if east, west := strings.Count(a, `"site":"east"`), strings.Count(a, `"site":"west"`); east != west || east == 0 {
		t.Fatalf("site stamps: east %d, west %d", east, west)
	}
}

// TestExitContract is the ladder as a table: a command line no query
// can be built from exits 2 with its error line followed by the command
// list, a file or query failure exits 1 with exactly one line, and every
// line carries the "traceq:" prefix once.
func TestExitContract(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.ndjson")
	garbled, empty := filepath.Join(dir, "garbled.ndjson"), filepath.Join(dir, "empty.ndjson")
	// overflow decodes, but its admit time is past what a float holds in
	// trace microseconds. backwards and negative decode too, but their
	// time is out of order: critpath over backwards would otherwise
	// print a -0.5 s run.
	overflow := filepath.Join(dir, "overflow.ndjson")
	backwards, negative := filepath.Join(dir, "backwards.ndjson"), filepath.Join(dir, "negative.ndjson")
	for path, body := range map[string]string{
		garbled:   "{bad\n",
		empty:     "",
		overflow:  `{"t":0,"ev":"finish","job":1}` + "\n" + `{"t":1e308,"ev":"admit","job":1,"wait_s":1e308}` + "\n",
		backwards: `{"t":1,"ev":"admit","job":1}` + "\n" + `{"t":0.5,"ev":"finish","job":1}` + "\n",
		negative:  `{"t":-5,"ev":"finish","job":1}` + "\n",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args string
		code int
	}{
		{"", 2},
		{"bogus " + events, 2},
		{"why many " + events, 2},
		{"why " + events, 2},
		{"why 1 " + events + " " + events, 2},
		{"why -1 " + events, 2}, // telemetry.NoJob, the ID of every system event
		{"critpath", 2},
		{"windows " + events + " " + events, 2},
		{"merge", 2},
		{"summary " + missing, 1},
		{"merge east=" + events + " west=" + missing, 1},
		{"critpath " + garbled, 1},
		{"why 99999 " + events, 1}, // a job the trace never mentions
		{"chrome " + overflow, 1},
		{"critpath " + backwards, 1},
		{"merge " + events + " " + backwards, 1},
		{"summary " + negative, 1},
		// An empty trace: no job to explain, no finish to walk back from;
		// the two tables render empty.
		{"why 1 " + empty, 1},
		{"critpath " + empty, 1},
		{"windows " + empty, 0},
		{"summary " + empty, 0},
		{"chrome " + empty, 0},
		{"merge " + empty, 0},
	} {
		code, _, stderr := clitest.Run(t, run, strings.Fields(tc.args)...)
		if code != tc.code {
			t.Errorf("traceq %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		first, rest, _ := strings.Cut(stderr, "\n")
		switch {
		case tc.code == 0:
			if stderr != "" {
				t.Errorf("traceq %s: want a silent stderr, got %q", tc.args, stderr)
			}
		case !strings.HasPrefix(first, "traceq: ") || strings.Count(first, "traceq:") != 1:
			t.Errorf("traceq %s: want one \"traceq:\" prefix, got %q", tc.args, first)
		case tc.code == 2 && !strings.HasPrefix(rest, "usage: traceq <command>"):
			t.Errorf("traceq %s: want the command list after the error line, got %q", tc.args, rest)
		case tc.code == 1 && rest != "":
			t.Errorf("traceq %s: want exactly one stderr line, got:\n%s", tc.args, stderr)
		}
	}
	// A time-order refusal names the file and the line, blank lines
	// counted.
	if err := os.WriteFile(backwards, []byte("\n"+`{"t":1,"ev":"admit","job":1}`+"\n\n"+`{"t":0.5,"ev":"finish","job":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, stderr := clitest.Run(t, run, "critpath", backwards); !strings.Contains(stderr, backwards+": line 4: time runs backwards from 1s to 0.5s") {
		t.Errorf("critpath over a backwards stream: stderr %q", stderr)
	}
}
