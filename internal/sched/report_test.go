package sched

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/capplan"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/units"
)

// reportResult runs one small plan schedule whose result exercises
// every table column: completed and rejected jobs, a backfilled job,
// retunes, and multiple budget windows.
func reportResult(t *testing.T) Result {
	t.Helper()
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8})
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: 900},
		capplan.Segment{Start: 0.2, Cap: 700},
		capplan.Segment{Start: 0.4, Cap: 900},
	)
	s, err := New(Config{
		Platform: machine.Homogeneous(testSpec()), Ranks: 16,
		Plan: plan, Policy: Backfill(EEMax()), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fields returns the non-empty lines of a rendered table.
func tableLines(t *testing.T, s string) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// JobTable renders one row per job, in trace order, with the admitted
// operating point for completed jobs and a "-" pool for never-started
// ones.
func TestJobTable(t *testing.T) {
	res := reportResult(t)
	lines := tableLines(t, res.JobTable())
	if len(lines) != len(res.Jobs)+1 {
		t.Fatalf("JobTable has %d lines for %d jobs + header", len(lines), len(res.Jobs))
	}
	header := lines[0]
	for _, col := range []string{"job", "app", "pool", "state", "p", "f[GHz]", "energy", "EE", "retunes", "bf"} {
		if !strings.Contains(header, col) {
			t.Fatalf("JobTable header lacks %q: %q", col, header)
		}
	}
	for i, jr := range res.Jobs {
		row := lines[i+1]
		cols := strings.Fields(row)
		if cols[0] != jsonNumber(jr.ID) {
			t.Fatalf("row %d starts with %q, want job ID %d", i, cols[0], jr.ID)
		}
		if !strings.Contains(row, jr.Vector.Name) {
			t.Fatalf("row for job %d lacks app %q: %q", jr.ID, jr.Vector.Name, row)
		}
		if !strings.Contains(row, jr.State.String()) {
			t.Fatalf("row for job %d lacks state %q: %q", jr.ID, jr.State, row)
		}
		if jr.State == Done && !strings.Contains(row, jr.Pool) {
			t.Fatalf("row for completed job %d lacks pool %q: %q", jr.ID, jr.Pool, row)
		}
		if jr.Backfilled && !strings.HasSuffix(strings.TrimRight(row, " "), "y") {
			t.Fatalf("row for backfilled job %d lacks the bf marker: %q", jr.ID, row)
		}
	}
}

// WindowTable renders one row per budget window with the plan's caps.
func TestWindowTable(t *testing.T) {
	res := reportResult(t)
	if len(res.Windows) < 3 {
		t.Fatalf("plan run yielded %d windows, want >= 3", len(res.Windows))
	}
	lines := tableLines(t, res.WindowTable())
	if len(lines) != len(res.Windows)+1 {
		t.Fatalf("WindowTable has %d lines for %d windows + header", len(lines), len(res.Windows))
	}
	for _, col := range []string{"window", "cap", "samples", "energy", "meanW", "util", "viol"} {
		if !strings.Contains(lines[0], col) {
			t.Fatalf("WindowTable header lacks %q: %q", col, lines[0])
		}
	}
	// The squeeze window's cap must appear verbatim in its own row.
	if !strings.Contains(lines[2], "700") {
		t.Fatalf("squeeze row lacks its 700 W cap: %q", lines[2])
	}
}

// ComparisonTable renders one row per result, keyed by policy name.
func TestComparisonTable(t *testing.T) {
	res := reportResult(t)
	other := res
	other.Policy = "fifo"
	lines := tableLines(t, ComparisonTable([]Result{res, other}))
	if len(lines) != 3 {
		t.Fatalf("ComparisonTable has %d lines, want header + 2 rows", len(lines))
	}
	for _, col := range []string{"policy", "makespan", "done", "rej", "energy/job", "meanEE", "maxwait", "viol", "retunes", "bfill"} {
		if !strings.Contains(lines[0], col) {
			t.Fatalf("header lacks %q: %q", col, lines[0])
		}
	}
	if !strings.HasPrefix(lines[1], res.Policy) {
		t.Fatalf("first row is %q, want policy %q first", lines[1], res.Policy)
	}
	if !strings.HasPrefix(lines[2], "fifo") {
		t.Fatalf("second row is %q, want fifo first", lines[2])
	}
	if res.BackfilledJobs > 0 && !strings.Contains(strings.Fields(lines[1])[len(strings.Fields(lines[1]))-1], jsonNumber(res.BackfilledJobs)) {
		t.Fatalf("backfill count %d missing from row: %q", res.BackfilledJobs, lines[1])
	}
}

// Result.String is the one-line summary.
func TestResultString(t *testing.T) {
	res := reportResult(t)
	s := res.String()
	for _, want := range []string{res.Policy, "done", "rejected", "makespan"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary lacks %q: %q", want, s)
		}
	}
}

// The -json dump must round-trip through encoding/json: the app vector
// flattens to its name, the state to its string, and the admitted
// operating point survives.
func TestResultJSON(t *testing.T) {
	res := reportResult(t)
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Policy string `json:"Policy"`
		Jobs   []struct {
			ID    int           `json:"id"`
			App   string        `json:"app"`
			State string        `json:"state"`
			Pool  string        `json:"pool"`
			P     int           `json:"p"`
			F     units.Hertz   `json:"f_hz"`
			Wait  units.Seconds `json:"wait_s"`
		} `json:"Jobs"`
	}
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Policy != res.Policy {
		t.Fatalf("policy %q round-tripped as %q", res.Policy, out.Policy)
	}
	if len(out.Jobs) != len(res.Jobs) {
		t.Fatalf("%d jobs round-tripped as %d", len(res.Jobs), len(out.Jobs))
	}
	for i, jr := range res.Jobs {
		oj := out.Jobs[i]
		if oj.ID != jr.ID || oj.App != jr.Vector.Name || oj.State != jr.State.String() {
			t.Fatalf("job %d marshalled as %+v", jr.ID, oj)
		}
		if jr.State == Done && (oj.Pool != jr.Pool || oj.P != jr.P || oj.F != jr.StartFreq) {
			t.Fatalf("job %d operating point marshalled as %+v, want %s/%d/%v", jr.ID, oj, jr.Pool, jr.P, jr.StartFreq)
		}
	}
}

// A job record is its own JSON schema: the struct tags on Job and
// JobResult are the only description of the -json wire format. The
// literal was cut from the parent build's hand-written marshaller, and
// the reflect walk keeps a future field from leaking as "FieldName".
func TestJobRecordJSONSchema(t *testing.T) {
	rec := JobResult{
		Job:   Job{ID: 7, Vector: app.EP(), N: 1.5e6, MinWidth: 2, MaxWidth: 16, Priority: 3, Arrival: 0.25, Deadline: 30},
		State: Done, Reason: "because", Pool: "SystemG", P: 8, StartFreq: 2.4e9, FreqChanges: 5, Backfilled: true,
		Start: 1.5, End: 4.75, Wait: 1.25, Energy: 1234.5, ModelEE: 0.875, DeadlineMet: true,
		Restarts: 2, Checkpoints: 9, LostWork: 0.125, WastedEnergy: 77.5,
	}
	const full = `{"id":7,"app":"EP","n":1500000,"min_width":2,"max_width":16,"priority":3,"arrival_s":0.25,"deadline_s":30,` +
		`"state":"done","reason":"because","pool":"SystemG","p":8,"f_hz":2400000000,"freq_changes":5,"backfilled":true,` +
		`"start_s":1.5,"end_s":4.75,"wait_s":1.25,"energy_j":1234.5,"model_ee":0.875,"deadline_met":true,` +
		`"restarts":2,"checkpoints":9,"lost_work_s":0.125,"wasted_energy_j":77.5}`
	const sparse = `{"id":1,"app":"EP","n":10,"max_width":4,"arrival_s":0,"state":"queued","start_s":0,"end_s":0,"wait_s":0,"energy_j":0}`
	for _, tc := range []struct {
		rec  JobResult
		want string
	}{
		{rec, full},
		{JobResult{Job: Job{ID: 1, Vector: app.EP(), N: 10, MaxWidth: 4}}, sparse},
	} {
		got, err := json.Marshal(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("job %d marshals as\n%s\nwant\n%s", tc.rec.ID, got, tc.want)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Job{}), reflect.TypeOf(JobResult{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if tag := f.Tag.Get("json"); !f.Anonymous && (tag == "" || strings.HasPrefix(tag, ",")) {
				t.Errorf("%s.%s has no json name", typ.Name(), f.Name)
			}
		}
	}
}

// jsonNumber formats an int the way both tables and JSON render it.
func jsonNumber(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestFaultFieldsJSON pins the fault-accounting JSON contract both
// schedrun -json consumers and the federation merge rely on: the
// aggregate counters round-trip on Result, and killed jobs carry their
// restart/lost-work records in snake_case on JobResult.
func TestFaultFieldsJSON(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 16, Seed: 5, MaxWidth: 8})
	s, err := New(Config{
		Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900,
		Faults: &faults.Plan{
			Scripted: []faults.Scripted{
				{Rank: 0, T: 0.2},
				{Rank: 0, T: 0.7, Repair: true},
			},
			MaxRetries: 4,
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 || res.Kills == 0 {
		t.Fatalf("fixture lost its point: %d failures, %d kills", res.Failures, res.Kills)
	}

	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Failures     int
		Repairs      int
		Kills        int
		Restarts     int
		JobsLost     int
		Checkpoints  int
		LostWork     units.Seconds
		WastedEnergy units.Joules
		Availability float64
		Jobs         []struct {
			ID           int           `json:"id"`
			Restarts     int           `json:"restarts"`
			Checkpoints  int           `json:"checkpoints"`
			LostWork     units.Seconds `json:"lost_work_s"`
			WastedEnergy units.Joules  `json:"wasted_energy_j"`
		}
	}
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failures != res.Failures || out.Repairs != res.Repairs ||
		out.Kills != res.Kills || out.Restarts != res.Restarts ||
		out.JobsLost != res.JobsLost || out.Checkpoints != res.Checkpoints ||
		out.LostWork != res.LostWork || out.WastedEnergy != res.WastedEnergy ||
		out.Availability != res.Availability {
		t.Fatalf("aggregate fault fields did not round-trip:\ngot  %+v\nwant %+v", out, res)
	}
	if out.Availability >= 1 {
		t.Fatalf("availability %g must reflect the outage", out.Availability)
	}
	var restarts int
	for i, jr := range res.Jobs {
		oj := out.Jobs[i]
		if oj.ID != jr.ID || oj.Restarts != jr.Restarts || oj.Checkpoints != jr.Checkpoints ||
			oj.LostWork != jr.LostWork || oj.WastedEnergy != jr.WastedEnergy {
			t.Fatalf("job %d fault fields round-tripped as %+v, want %+v", jr.ID, oj, jr)
		}
		restarts += oj.Restarts
	}
	if restarts != res.Restarts {
		t.Fatalf("per-job restarts sum %d ≠ aggregate %d", restarts, res.Restarts)
	}
}
