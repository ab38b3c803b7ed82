package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// The status server serves published snapshots verbatim: JSON keyed by
// run label, Prometheus text concatenated in label order.
func TestStatusServer(t *testing.T) {
	srv, err := ListenStatus("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	srv.Publish("ee-max", []byte(`{"sim_t_s":1.5}`), []byte("m{run=\"ee-max\"} 1\n"))
	srv.Publish("fifo", []byte(`{"sim_t_s":2.5}`), []byte("m{run=\"fifo\"} 2\n"))

	index := get(t, base+"/")
	if !strings.Contains(index, "2 run(s): ee-max, fifo") {
		t.Fatalf("index = %q", index)
	}

	var obj map[string]map[string]float64
	if err := json.Unmarshal([]byte(get(t, base+"/status.json")), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["ee-max"]["sim_t_s"] != 1.5 || obj["fifo"]["sim_t_s"] != 2.5 {
		t.Fatalf("status.json = %v", obj)
	}

	prom := get(t, base+"/metrics")
	if prom != "m{run=\"ee-max\"} 1\nm{run=\"fifo\"} 2\n" {
		t.Fatalf("metrics = %q (labels must concatenate in sorted order)", prom)
	}

	// Republish replaces, never appends.
	srv.Publish("fifo", []byte(`{"sim_t_s":9}`), []byte("m 3\n"))
	if err := json.Unmarshal([]byte(get(t, base+"/status.json")), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["fifo"]["sim_t_s"] != 9 {
		t.Fatalf("republish did not replace: %v", obj)
	}

	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %s, want 404", resp.Status)
	}
}

// Publisher is a telemetry sink: it publishes a final done=true
// snapshot at Close that counts every event, carrying host and
// sim-metrics sections.
func TestPublisher(t *testing.T) {
	srv, err := ListenStatus("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	host := NewHost()
	host.RunStart()
	met := telemetry.NewMetrics()
	met.Counter("jobs_admitted").Add(3)

	pub := NewPublisher(srv, "ee-max", host, met)
	rec := telemetry.New(pub)
	for i := 0; i < 5; i++ {
		rec.Emit(telemetry.Event{Kind: telemetry.EvAttempt, Job: i})
	}
	host.RunEnd()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	var obj map[string]struct {
		SimT       float64 `json:"sim_t_s"`
		EventsSeen int64   `json:"events_seen"`
		Done       bool    `json:"done"`
	}
	body := get(t, fmt.Sprintf("http://%s/status.json", srv.Addr()))
	if err := json.Unmarshal([]byte(body), &obj); err != nil {
		t.Fatal(err)
	}
	run := obj["ee-max"]
	if !run.Done || run.EventsSeen != 5 {
		t.Fatalf("final snapshot = %+v, want done with 5 events", run)
	}

	prom := get(t, fmt.Sprintf("http://%s/metrics", srv.Addr()))
	for _, want := range []string{
		`jobs_admitted{run="ee-max"} 3`,
		`obs_wall_seconds{run="ee-max"}`,
		`obs_phase_count{run="ee-max",phase="admission"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("metrics miss %q:\n%s", want, prom)
		}
	}
}

// /metrics is one valid exposition however many runs publish: each
// family's TYPE line appears once, and every run's samples of the family
// follow it before the next family starts.
func TestMetricsDeclareEachFamilyOnce(t *testing.T) {
	srv, err := ListenStatus("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, label := range []string{"ee-max", "fifo"} {
		host := NewHost()
		host.RunStart()
		host.End(PhaseAdmission, host.Begin())
		met := telemetry.NewMetrics()
		met.Counter("jobs_admitted").Add(1)
		met.Histogram("wait_s", 1, 10).Observe(2)
		pub := NewPublisher(srv, label, host, met)
		host.RunEnd()
		pub.Close()
	}

	prom := get(t, fmt.Sprintf("http://%s/metrics", srv.Addr()))
	declared := map[string]bool{}
	family := ""
	runs := map[string]map[string]bool{} // family → runs with a sample of it
	for _, line := range strings.Split(strings.TrimSuffix(prom, "\n"), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "# TYPE ") && len(f) == 4 {
			if declared[f[2]] {
				t.Fatalf("family %s declared twice:\n%s", f[2], prom)
			}
			declared[f[2]], family = true, f[2]
			runs[family] = map[string]bool{}
			continue
		}
		if family == "" || !strings.HasPrefix(line, family) {
			t.Fatalf("sample %q outside its family (current %q):\n%s", line, family, prom)
		}
		for _, run := range []string{"ee-max", "fifo"} {
			if strings.Contains(line, `run="`+run+`"`) {
				runs[family][run] = true
			}
		}
	}
	for _, f := range []string{"jobs_admitted", "wait_s", "obs_wall_seconds", "obs_phase_seconds", "obs_phase_count"} {
		if len(runs[f]) != 2 {
			t.Errorf("family %s has samples of runs %v, want both", f, runs[f])
		}
	}
	if n := strings.Count(prom, "obs_phase_count{"); n != 2*int(numPhases) {
		t.Errorf("%d obs_phase_count samples, want %d", n, 2*int(numPhases))
	}
}
