package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/machine"
)

// chaosCaps and chaosPlan are the chaos-smoke CI job's cap plan (a
// 700 W clamp over [1.2, 1.8) s) and fault plan.
const (
	chaosCaps = "0:900,1.2:700,1.8:900"
	chaosPlan = "fail=0@0.3,repair=0@0.8,retries=3,ckpt=0.1,restart=0.02"
)

// twoSites is a federation of two 16-node SystemG sites under a
// 1800 W global budget with the ee-max site policy.
const twoSites = "-sites east=systemg:16;west=systemg:16 -cap 1800 -policy ee-max"

// transcript is one pinned invocation: args and the golden its stdout
// matches.
type transcript struct {
	golden string
	args   []string
}

// pinTranscripts runs each invocation with "-json -" (which appends the
// dump to stdout) and pins stdout, byte for byte, against its golden.
func pinTranscripts(t *testing.T, rows []transcript) {
	for _, tc := range rows {
		code, stdout, stderr := clitest.Run(t, run, append(tc.args, "-json", "-")...)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.golden, code, stderr)
		}
		clitest.Golden(t, tc.golden, stdout)
	}
}

// TestTranscripts pins stdout and the -json dump of the CI smoke
// invocations on one cluster against goldens cut from the parent build.
func TestTranscripts(t *testing.T) {
	squeeze := []string{"-jobs", "16", "-ranks", "16", "-policy", "backfill2+all"}
	chaos := []string{"-jobs", "16", "-ranks", "16", "-capplan", chaosCaps}
	pinTranscripts(t, []transcript{
		{"squeeze", append(squeeze, "-capplan", "0:900,1:650,2:900")},
		{"constant", []string{"-jobs", "16", "-ranks", "16", "-cap", "900", "-policy", "backfill+ee-max"}},
		{"chaos-fifo", append(chaos, "-policy", "fifo", "-faults", chaosPlan)},
		{"chaos-ee-max", append(chaos, "-policy", "ee-max", "-faults", chaosPlan)},
		{"chaos-backfill", append(chaos, "-policy", "backfill+ee-max", "-faults", chaosPlan)},
		// A wildcard failure process, and an appended item overriding the
		// plan's own retries=3.
		{"mtbf-flags", []string{"-jobs", "16", "-ranks", "16", "-cap", "900", "-policy", "backfill+ee-max", "-faults", "mtbf=*:3,mttr=*:0.15,retries=8,ckpt=0.1"}},
		{"faultfile-override", append(chaos, "-policy", "ee-max", "-faults", chaosPlan+",retries=1")},
	})
}

// TestSitesTranscripts pins stdout and the -json dump of federated runs:
// every split × route pair under a mid-trace squeeze with carbon
// signals, one site under a squeeze, and a renegotiating budget.
func TestSitesTranscripts(t *testing.T) {
	pinTranscripts(t, []transcript{
		{"fed-sweep", []string{"-policy", "ee-max", "-jobs", "16", "-sites", "east=systemg:16;west=systemg:16",
			"-capplan", "0:1800,1:1500,2.2:1800", "-carbon", "east=0:300,1.5:100;west=0:100,1.5:300",
			"-split", "all", "-route", "all"}},
		{"fed-solo", []string{"-policy", "ee-max", "-jobs", "24", "-sites", "solo=systemg:16", "-capplan", "0:900,1:650,2.2:900",
			"-seed", "42", "-split", "static-share", "-route", "ee"}},
		// A budget alternating every 0.25 s: greedy-ee renegotiates at
		// each breakpoint, and its schedule differs from static-share's.
		{"fed-renegotiate", []string{"-jobs", "32", "-sites", "east=systemg:16;west=systemg:16",
			"-capplan", "0:1800,0.25:1600,0.5:1800,0.75:1600,1:1800,1.25:1600,1.5:1800", "-policy", "ee-max", "-route", "ee"}},
	})
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

// exitRow is one rung of the exit ladder: args, after -jobs 4, exit
// code.
type exitRow struct {
	args string
	code int
}

// exitTable is the ladder as a table for one cluster, its files under
// dir: a flag value no schedule can be built from exits 2 with exactly
// one stderr line, a file that cannot be written exits 1, lost jobs
// exit 4.
func exitTable(dir string) []exitRow {
	missing := filepath.Join(dir, "missing", "file")
	events := filepath.Join(dir, "e.ndjson")
	return []exitRow{
		// Contradictory combinations.
		{"-cap 900 -capplan 0:900", 2},
		{"-faults mtbf=*:3", 2}, // a failure process without a repair rate
		{"-faults mttr=*:3", 2},
		{"-cluster systemg:32,dori:32 -ranks 16", 2},
		{"-events " + filepath.Join(dir, "e.ndjson"), 2},
		{"-metrics " + filepath.Join(dir, "m.csv"), 2},
		{"-policy ee-max -rollup 0.25", 2},
		// A federation's flags need -sites.
		{"-split static-share", 2},
		{"-route ee", 2},
		{"-carbon east=0:100", 2},
		{"-local west=0:2000", 2},
		{"-lambda 0.5", 2},
		{"-policy ee-max -route all", 2},
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
		// The default 64-job trace holds a 2000 W and a 3000 W cap (a
		// violation exits 3); sched's goldens hold it at 2500 W.
		{"-jobs 64 -cap 2000 -policy fifo", 0},
		{"-jobs 64 -cap 2000 -policy ee-max", 0},
		{"-jobs 64 -cap 3000 -policy fifo", 0},
		{"-jobs 64 -cap 3000 -policy ee-max", 0},
		{"-jobs 64 -cap 3000 -policy backfill+ee-max", 0},
		// Every policy name the table prints runs, K reservations included.
		{"-jobs 8 -ranks 16 -policy backfill2+ee-max", 0},
		{"-jobs 8 -ranks 16 -policy backfill+all", 0},
		{"-cluster systemg:16", 0}, // sized by its node count, not the -ranks default
	}
}

// sitesExitTable is the ladder for federations, its files under dir:
// each row runs twoSites, then its args. Configuration no federation
// can be built from, by the flag checks or by fed.New, exits 2.
func sitesExitTable(dir string) []exitRow {
	missing := filepath.Join(dir, "missing", "file")
	var rows []exitRow
	for _, row := range []exitRow{
		// Contradictory combinations.
		{"-cap 1800 -capplan 0:1800", 2},
		{"-events " + filepath.Join(dir, "ev"), 2},
		{"-status 127.0.0.1:0", 2},
		{"-events " + filepath.Join(dir, "ev") + " -split greedy-ee", 2},
		// One cluster's scheduler flags, and a policy sweep: a federation
		// runs one site policy on the platforms -sites names.
		{"-cluster systemg:16", 2},
		{"-ranks 16", 2},
		{"-interval 0.1", 2},
		{"-edge", 2},
		{"-metrics " + filepath.Join(dir, "m.csv"), 2},
		{"-rollup 0.25", 2},
		{"-policy all", 2},
		{"-policy backfill+all", 2},
		// Unknown names.
		{"-split bogus", 2},
		{"-route bogus", 2},
		{"-policy bogus", 2},
		{"-policy backfill1+ee-max", 2}, // Name never prints K = 1
		{"-policy backfill0+fifo", 2},
		{"-carbon north=0:100", 2},
		{"-local north=0:2000", 2},
		// Malformed specs.
		{"-sites east", 2},
		{"-sites=", 2},
		{"-sites east=bogus:16", 2},
		{"-carbon east", 2},
		{"-carbon east=0", 2},
		{"-carbon east=5:100", 2},
		{"-carbon east=0:NaN", 2},
		{"-carbon east=0:-4", 2},
		{"-local west=bogus", 2},
		{"-capplan bogus", 2},
		{"-capplan 0:NaN", 2},
		{"-jobs -1", 2},
		{"-cap NaN", 2},
		{"-nosuchflag", 2},
		{"-faults bogus", 2},
		{"-faults fail=99@1 -split static-share -route ee", 2}, // a rank no site has
		// What fed.New rejects is configuration too.
		{"-lambda 2", 2},
		{"-lambda -0.5", 2},
		{"-lambda NaN", 2},
		{"-cap 5", 2},
		{"-local west=0:5", 2},
		{"-sites a=systemg:16;a=systemg:16", 2},
		{"-sites =systemg:16", 2},
		// Over the platform rank bound: refused before any rank is built.
		{"-sites east=systemg:99999999999 -cap 1e15 -split static-share -route ee -jobs 2", 2},
		// Files.
		{"-split greedy-ee -route ee -events " + missing, 1},
		{"-json " + missing, 1},
		{"-split static-share -route ee -cpuprofile " + missing, 1},
		{"-split static-share -route ee -memprofile " + missing, 1},
		// An empty trace is a run.
		{"-jobs 0 -split static-share -route ee", 0},
		// Every name the scheduler prints runs, K reservations included.
		{"-jobs 8 -split static-share -route ee -policy backfill2+ee-max", 0},
		// Faults at every site, repetitions and host summaries.
		{"-jobs 8 -split static-share -route ee -faults fail=0@0.3,repair=0@0.8,retries=3", 0},
		{"-jobs 8 -split greedy-ee -route jct -repeat 2 -v", 0},
	} {
		rows = append(rows, exitRow{twoSites + " " + row.args, row.code})
	}
	return rows
}

// runExitTable runs every row after -jobs 4.
func runExitTable(t *testing.T, rows []exitRow) {
	for _, row := range rows {
		clitest.Exit(t, run, row.code, append([]string{"-jobs", "4"}, strings.Fields(row.args)...)...)
	}
}

// TestExitContract runs every row of the one-cluster exit table.
func TestExitContract(t *testing.T) { runExitTable(t, exitTable(t.TempDir())) }

// TestSitesExitContract runs every row of the federation exit table.
func TestSitesExitContract(t *testing.T) { runExitTable(t, sitesExitTable(t.TempDir())) }

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

// jsonOf runs schedrun with -json to a file and decodes the dump.
func jsonOf(t *testing.T, args ...string) []map[string]any {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.json")
	if code, _, stderr := clitest.Run(t, run, append(args, "-json", path)...); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]any
	if err := json.Unmarshal(buf, &results); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestCapSpellingsAgree: -cap W and -capplan 0:W are two spellings of
// one budget, so the schedules agree job for job (the window tables and
// headers differ by design).
func TestCapSpellingsAgree(t *testing.T) {
	jobsOf := func(budget ...string) any {
		return jsonOf(t, append([]string{"-jobs", "16", "-ranks", "16", "-policy", "backfill+ee-max"}, budget...)...)[0]["Jobs"]
	}
	if a, b := jobsOf("-cap", "900"), jobsOf("-capplan", "0:900"); !reflect.DeepEqual(a, b) || a == nil {
		t.Errorf("-cap 900 and -capplan 0:900 schedule differently:\n%v\n---\n%v", a, b)
	}
}

// TestOneSiteFederationIsTheBareScheduler: a federation of one site is
// the bare scheduler on that site's platform — its site result equals
// the bare run's, field by field.
func TestOneSiteFederationIsTheBareScheduler(t *testing.T) {
	common := []string{"-jobs", "24", "-capplan", "0:900,1:650,2.2:900", "-seed", "42", "-policy", "ee-max"}
	fedRes := jsonOf(t, append(common, "-sites", "solo=systemg:16", "-split", "static-share", "-route", "ee")...)
	bare := jsonOf(t, append(common, "-cluster", "systemg:16")...)[0]
	site := fedRes[0]["Sites"].([]any)[0].(map[string]any)["Result"].(map[string]any)
	for k := range bare {
		if _, ok := site[k]; !ok {
			t.Errorf("the site result has no %s", k)
		}
	}
	for k, v := range site {
		if !reflect.DeepEqual(v, bare[k]) {
			t.Errorf("mismatch in %s:\n  fed:   %v\n  sched: %v", k, v, bare[k])
		}
	}
}

// TestSitesFaultsAndHostLines: under -sites the fault plan applies at
// every site and -v prints one host line per site.
func TestSitesFaultsAndHostLines(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, run, "-jobs", "8", "-sites", "a=systemg:8;b=systemg:8", "-policy", "ee-max",
		"-split", "static-share", "-route", "rr", "-faults", "fail=0@0.1", "-v", "-json", "-")
	if code != 0 && code != 4 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "\nfaults: fail=0@0.1") {
		t.Errorf("no faults header:\n%s", stdout)
	}
	for _, site := range []string{"a", "b"} {
		if strings.Count(stdout, "\nhost static-share×rr/"+site+": ") != 1 {
			t.Errorf("want one host line for site %s:\n%s", site, stdout)
		}
	}
	// Each site fails its own rank 0 at 0.1 s.
	if n := strings.Count(stdout, `"Failures": 1,`); n != 2 {
		t.Errorf("%d sites report one failure, want 2", n)
	}
}

// FuzzRun drives the run command with argv drawn from its own flag
// names and hostile values, on traces, federations and platforms small
// enough that a run takes milliseconds: every input exits on the ladder
// (0–4), a usage error or failure says why in one stderr line, and
// nothing panics. The exit table seeds the corpus; "DIR" in an input is
// the test's temporary directory, where every file flag must point.
func FuzzRun(f *testing.F) {
	var usage bytes.Buffer
	run([]string{"-h"}, io.Discard, &usage)
	names, bools := []string{}, map[string]bool{}
	for _, line := range strings.Split(usage.String(), "\n") {
		if fields := strings.Fields(line); strings.HasPrefix(line, "  -") {
			names = append(names, fields[0][1:])
			bools[fields[0][1:]] = len(fields) == 1 || fields[1] != "string" && fields[1] != "int" && fields[1] != "float"
		}
	}
	for _, row := range append(exitTable("DIR"), sitesExitTable("DIR")...) {
		f.Add(row.args)
	}
	hostile := []string{"NaN", "Inf", "-Inf", "-1", "1e308", "", ";;", "=", "a=b=c", "99999999999", "9223372036854775808"}
	for _, name := range names {
		for _, v := range hostile {
			f.Add(twoSites + " -" + name + "=" + v)
			f.Add("-policy=ee-max -" + name + "=" + v)
		}
	}
	f.Fuzz(func(t *testing.T, line string) {
		dir := t.TempDir()
		args := append([]string{"-jobs=8"}, strings.Fields(strings.ReplaceAll(line, "DIR", dir))...)
		if !fuzzBounded(dir, names, bools, &args) {
			return
		}
		code, _, stderr := clitest.Run(t, run, args...)
		switch lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n"); {
		case code < 0 || code > 4:
			t.Fatalf("%q: exit %d", args, code)
		case (code == 1 || code == 2) && len(lines) != 1 && !strings.HasPrefix(lines[1], "Usage of"):
			t.Fatalf("%q: exit %d with %d stderr lines:\n%s", args, code, len(lines), stderr)
		}
	})
}

// fuzzBounded reports whether args stay inside FuzzRun's budget, read
// off a shadow parse: at most 8 jobs, 3 sites and 32 nodes per pool,
// two repetitions, no -status or profiles, every file under dir, and
// no time scale below a millisecond. A bare preset without -ranks gets
// -ranks=16. What the shadow parse rejects, run's parse rejects too.
func fuzzBounded(dir string, names []string, bools map[string]bool, args *[]string) bool {
	fs := flag.NewFlagSet("shadow", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, name := range names {
		if bools[name] {
			fs.Bool(name, false, "")
		} else {
			fs.String(name, "", "")
		}
	}
	if fs.Parse(*args) != nil {
		return true
	}
	val := map[string]string{}
	fs.Visit(func(fl *flag.Flag) { val[fl.Name] = fl.Value.String() })
	atMost := func(name string, max int64) bool {
		v, err := strconv.ParseInt(val[name], 0, 64)
		return err != nil || v <= max
	}
	scale := func(name string) bool {
		v, err := strconv.ParseFloat(val[name], 64)
		return err != nil || !(v > 0 && v < 1e-3)
	}
	pools := func(p machine.Platform) bool {
		for _, pool := range p.Pools {
			if pool.Nodes < 1 || pool.Nodes > 32 {
				return false
			}
		}
		return true
	}
	for _, name := range []string{"status", "cpuprofile", "memprofile"} {
		if _, ok := val[name]; ok {
			return false
		}
	}
	for _, name := range []string{"events", "metrics", "json"} {
		if v := val[name]; v != "" && !(name == "json" && v == "-") &&
			(!strings.HasPrefix(v, dir+string(filepath.Separator)) || strings.Contains(v, "..")) {
			return false
		}
	}
	if !atMost("jobs", 8) || !atMost("repeat", 2) || !atMost("ranks", 32) || !scale("interval") || !scale("rollup") {
		return false
	}
	if plan, err := faults.ParsePlan(val["faults"]); err == nil {
		if plan.MaxRetries > 8 || plan.CheckpointEvery > 0 && plan.CheckpointEvery < 1e-3 {
			return false
		}
		for _, r := range plan.Rates {
			if r.MTBF < 1e-2 || r.MTTR < 1e-3 {
				return false
			}
		}
	}
	if spec, ok := val["sites"]; ok {
		sites, err := fed.ParseSites(spec, "", "")
		if err == nil && len(sites) > 3 {
			return false
		}
		for _, s := range sites {
			if !pools(s.Platform) {
				return false
			}
		}
		return true
	}
	cluster, ok := val["cluster"]
	if !ok {
		cluster = "systemg"
	}
	p, err := machine.ParsePlatform(cluster)
	if err != nil {
		return true
	}
	if len(p.Pools) == 1 && p.Pools[0].Nodes == 0 {
		if _, ok := val["ranks"]; !ok {
			*args = append([]string{"-ranks=16"}, *args...)
		}
		return true
	}
	return pools(p)
}
