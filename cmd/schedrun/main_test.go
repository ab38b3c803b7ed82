package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// chaosCaps and chaosPlan are the chaos-smoke CI job's cap plan (a
// 700 W clamp over [1.2, 1.8) s) and fault plan.
const (
	chaosCaps = "0:900,1.2:700,1.8:900"
	chaosPlan = "fail=0@0.3,repair=0@0.8,retries=3,ckpt=0.1,restart=0.02"
)

// TestTranscripts pins stdout and the -json dump ("-json -" appends it
// to stdout) of the CI smoke invocations, byte for byte, against
// goldens cut from the parent build.
func TestTranscripts(t *testing.T) {
	squeeze := []string{"-jobs", "16", "-ranks", "16", "-policy", "backfill2+all"}
	chaos := []string{"-jobs", "16", "-ranks", "16", "-capplan", chaosCaps}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"squeeze", append(squeeze, "-capplan", "0:900,1:650,2:900")},
		{"constant", []string{"-jobs", "16", "-ranks", "16", "-cap", "900", "-policy", "backfill+ee-max"}},
		{"chaos-fifo", append(chaos, "-policy", "fifo", "-faults", chaosPlan)},
		{"chaos-ee-max", append(chaos, "-policy", "ee-max", "-faults", chaosPlan)},
		{"chaos-backfill", append(chaos, "-policy", "backfill+ee-max", "-faults", chaosPlan)},
		// A wildcard failure process, and an appended item overriding the
		// plan's own retries=3.
		{"mtbf-flags", []string{"-jobs", "16", "-ranks", "16", "-cap", "900", "-policy", "backfill+ee-max", "-faults", "mtbf=*:3,mttr=*:0.15,retries=8,ckpt=0.1"}},
		{"faultfile-override", append(chaos, "-policy", "ee-max", "-faults", chaosPlan+",retries=1")},
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

// TestExitContract is the ladder as a table: a flag value no schedule
// can be built from exits 2 with exactly one stderr line, a file that
// cannot be written exits 1, lost jobs exit 4.
func TestExitContract(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "file")
	events := filepath.Join(dir, "e.ndjson")
	for _, tc := range []struct {
		args string
		code int
	}{
		// Contradictory combinations.
		{"-cap 900 -capplan 0:900", 2},
		{"-faults mtbf=*:3", 2}, // a failure process without a repair rate
		{"-faults mttr=*:3", 2},
		{"-cluster systemg:32,dori:32 -ranks 16", 2},
		{"-events " + filepath.Join(dir, "e.ndjson"), 2},
		{"-metrics " + filepath.Join(dir, "m.csv"), 2},
		{"-policy ee-max -rollup 0.25", 2},
		// Malformed or out-of-range values.
		{"-policy bogus", 2},
		{"-policy backfill1+ee-max", 2}, // Name never prints K = 1
		{"-policy backfill0+fifo", 2},
		{"-policy backfill0+all", 2},
		{"-policy fifo+all", 2},
		{"-policy backfillall", 2},
		{"-cluster bogus", 2},
		{"-cluster systemg:0", 2},
		{"-cluster systemg:99999999999 -jobs 3", 2}, // over the platform rank bound
		{"-jobs -1", 2},
		{"-ranks -4", 2},
		{"-ranks 0 -cap 100000", 2}, // not the whole 325-node preset
		{"-repeat 0", 2},
		{"-repeat -1", 2},
		{"-cap NaN", 2},
		{"-cap Inf", 2},
		{"-cap 0", 2},
		{"-cap -5", 2},
		{"-cap 5", 2}, // below the idle floor: sched.New's rejection
		{"-capplan bogus", 2},
		{"-capplan 0:NaN", 2},
		{"-capplan 5:900", 2},
		{"-faults bogus", 2},
		{"-faults emer=1-2:700", 2}, // a cap clamp is a -capplan window
		{"-faults mtbf=*:NaN,mttr=*:1", 2},
		{"-faults mtbf=*:0,mttr=*:1", 2},
		{"-faults fail=99@1", 2}, // a rank the cluster does not have
		{"-faults mtbf=*:-1,mttr=*:1", 2},
		{"-faults mtbf=*:3,mttr=*:1,retries=-1", 2},
		{"-faults mtbf=*:3,mttr=*:1,ckpt=-1", 2},
		{"-faults mtbf=*:3,mttr=*:1,ckpt=NaN", 2},
		{"-faults mtbf=*:3,mttr=*:1,restart=Inf", 2},
		// Sub-µs fault time scales: each run would draw makespan/scale events.
		{"-jobs 3 -faults mtbf=*:1e-300,mttr=*:1e-300", 2},
		{"-jobs 3 -faults ckpt=1e-300,mtbf=*:1,mttr=*:1", 2},
		{"-interval -1", 2},
		{"-interval NaN", 2},
		{"-interval Inf", 2},
		{"-interval 1e-7", 2}, // below power.MinInterval
		{"-policy ee-max -events " + events + " -rollup NaN", 2},
		{"-policy ee-max -events " + events + " -rollup Inf", 2},
		{"-policy ee-max -events " + events + " -rollup -1", 2},
		{"-nosuchflag", 2},
		{"-jobs many", 2},
		// Files.
		{"-policy ee-max -events " + missing, 1},
		{"-policy ee-max -metrics " + missing, 1},
		{"-json " + missing, 1},
		{"-cpuprofile " + missing, 1},
		// Verdicts.
		{"-jobs 16 -ranks 16 -cap 900 -faults mtbf=*:0.5,mttr=*:0.2,retries=0", 4},
		{"-jobs 0", 0},
		// Every policy name the table prints runs, K reservations included.
		{"-jobs 8 -ranks 16 -policy backfill2+ee-max", 0},
		{"-jobs 8 -ranks 16 -policy backfill+all", 0},
		{"-cluster systemg:16", 0}, // sized by its node count, not the -ranks default
	} {
		clitest.Exit(t, run, tc.code, append([]string{"-jobs", "4"}, strings.Fields(tc.args)...)...)
	}
}

// TestClusterNodeCountSizesCluster: a pool with a node count sizes the
// cluster unless -ranks is given; a bare preset is sized by -ranks.
func TestClusterNodeCountSizesCluster(t *testing.T) {
	for _, tc := range []struct {
		args, want string
	}{
		{"-cluster systemg:128", "SystemG:128/128 ranks"},
		{"-cluster systemg:128 -ranks 16", "SystemG:128/16 ranks"},
		{"-cluster systemg", "SystemG/64 ranks"},
	} {
		args := append([]string{"-jobs", "4", "-cap", "5000", "-policy", "fifo"}, strings.Fields(tc.args)...)
		code, stdout, stderr := clitest.Run(t, run, args...)
		if code != 0 {
			t.Fatalf("schedrun %s: exit %d: %s", tc.args, code, stderr)
		}
		if head, _, _ := strings.Cut(stdout, "\n"); !strings.Contains(head, tc.want) {
			t.Errorf("schedrun %s: header %q, want %q", tc.args, head, tc.want)
		}
	}
}

// TestCapSpellingsAgree: -cap W and -capplan 0:W are two spellings of
// one budget, so the schedules agree job for job (the window tables and
// headers differ by design).
func TestCapSpellingsAgree(t *testing.T) {
	jobsOf := func(budget ...string) string {
		path := filepath.Join(t.TempDir(), "r.json")
		args := append([]string{"-jobs", "16", "-ranks", "16", "-policy", "backfill+ee-max", "-json", path}, budget...)
		if code, _, stderr := clitest.Run(t, run, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", budget, code, stderr)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, jobs, _ := strings.Cut(string(buf), `"Jobs": [`)
		jobs, _, _ = strings.Cut(jobs, "\n    ]")
		return jobs
	}
	if a, b := jobsOf("-cap", "900"), jobsOf("-capplan", "0:900"); a != b || a == "" {
		t.Errorf("-cap 900 and -capplan 0:900 schedule differently:\n%s\n---\n%s", a, b)
	}
}
