package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// StatusServer is the opt-in live run-status endpoint behind schedrun
// -status, labelled per policy or, under -sites, per site. It serves
// pre-marshalled snapshots only — HTTP handlers never touch live
// scheduler state, so the simulation goroutines publish under a mutex
// and the server stays race-free by construction:
//
//	/            text index
//	/status.json JSON object keyed by run label (policy or site name)
//	/metrics     Prometheus text: sim-time registry + host counters,
//	             each family's TYPE line once, every run's samples under it
type StatusServer struct {
	ln  net.Listener
	srv *http.Server

	mu   sync.Mutex
	json map[string]json.RawMessage
	prom map[string][]byte
}

// ListenStatus starts serving on addr (e.g. ":8080" or
// "127.0.0.1:0"). Close shuts the listener down.
func ListenStatus(addr string) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: status listen %s: %w", addr, err)
	}
	s := &StatusServer{
		ln:   ln,
		json: make(map[string]json.RawMessage),
		prom: make(map[string][]byte),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/status.json", s.handleJSON)
	mux.HandleFunc("/metrics", s.handleProm)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint — Serve's error is ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Published snapshots are dropped.
func (s *StatusServer) Close() error { return s.srv.Close() }

// Publish replaces the label's snapshot JSON and Prometheus text.
// Safe to call from any goroutine; each label should have exactly one
// publishing goroutine (its run).
func (s *StatusServer) Publish(label string, snapJSON []byte, prom []byte) {
	s.mu.Lock()
	s.json[label] = append([]byte(nil), snapJSON...)
	s.prom[label] = append([]byte(nil), prom...)
	s.mu.Unlock()
}

func (s *StatusServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	names := slices.Sorted(maps.Keys(s.json))
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "repro live run status — %d run(s): %s\nendpoints: /status.json /metrics\n",
		len(names), strings.Join(names, ", "))
}

func (s *StatusServer) handleJSON(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	buf, err := json.MarshalIndent(s.json, "", "  ")
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

// handleProm merges the runs' texts into one exposition, which declares
// each family once: a TYPE line, then the family's samples from every
// run in label order. Untyped samples lead.
func (s *StatusServer) handleProm(w http.ResponseWriter, _ *http.Request) {
	var types []string          // TYPE lines, first-seen order
	fams := map[string]string{} // TYPE line → its samples
	s.mu.Lock()
	for _, n := range slices.Sorted(maps.Keys(s.prom)) {
		typ := ""
		for _, line := range strings.SplitAfter(string(s.prom[n]), "\n") {
			if !strings.HasPrefix(line, "# TYPE ") {
				fams[typ] += line
				continue
			}
			typ = line
			if _, seen := fams[typ]; !seen {
				fams[typ], types = "", append(types, typ)
			}
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, fams[""])
	for _, typ := range types {
		io.WriteString(w, typ+fams[typ])
	}
}

// statusPayload is the JSON shape one run publishes.
type statusPayload struct {
	// SimT is the sim time of the latest event seen.
	SimT float64 `json:"sim_t_s"`
	// EventsSeen counts telemetry events that flowed through the
	// publisher (not kernel events — see Host.Kernel for those).
	EventsSeen int64    `json:"events_seen"`
	Done       bool     `json:"done"`
	Host       Snapshot `json:"host"`
}

// publishEvery is how many events a Publisher counts between publishes.
const publishEvery = 4096

// Publisher is a telemetry.Sink that periodically publishes a run's
// live status to a StatusServer: every publishEvery events it snapshots
// the host counters and the sim-time metrics registry on the
// simulation's own goroutine and hands the marshalled bytes to the
// server. Close publishes a final "done" snapshot.
type Publisher struct {
	srv   *StatusServer
	label string
	host  *Host
	met   *telemetry.Metrics
	n     int64
	lastT units.Seconds
}

var _ telemetry.Sink = (*Publisher)(nil)

// NewPublisher builds a publisher for one run. host and met may each
// be nil (the corresponding section is omitted).
func NewPublisher(srv *StatusServer, label string, host *Host, met *telemetry.Metrics) *Publisher {
	return &Publisher{srv: srv, label: label, host: host, met: met}
}

// Write counts the event and publishes on every publishEvery-th.
func (p *Publisher) Write(ev telemetry.Event) error {
	p.n++
	p.lastT = ev.T
	if p.n%publishEvery == 0 {
		p.publish(false)
	}
	return nil
}

// Close publishes the final snapshot.
func (p *Publisher) Close() error {
	p.publish(true)
	return nil
}

func (p *Publisher) publish(done bool) {
	payload := statusPayload{SimT: float64(p.lastT), EventsSeen: p.n, Done: done}
	if p.host != nil {
		payload.Host = p.host.Snapshot()
	}
	buf, err := json.Marshal(payload)
	if err != nil {
		return // a marshal failure must never abort the run
	}
	var prom strings.Builder
	label := fmt.Sprintf("run=%q", p.label)
	p.met.WriteProm(&prom, label)
	writeHostProm(&prom, label, &payload)
	p.srv.Publish(p.label, buf, []byte(prom.String()))
}

// writeHostProm renders the host counters as Prometheus gauges.
func writeHostProm(b *strings.Builder, label string, pl *statusPayload) {
	g := func(name string, v float64) {
		fmt.Fprintf(b, "# TYPE %s gauge\n%s{%s} %g\n", name, name, label, v)
	}
	g("obs_sim_t_seconds", pl.SimT)
	h := &pl.Host
	g("obs_wall_seconds", h.WallSeconds)
	g("obs_kernel_events", float64(h.Kernel.Events))
	g("obs_kernel_heap_max", float64(h.Kernel.HeapMax))
	g("obs_kernel_drain_max", float64(h.Kernel.DrainMax))
	g("obs_opcache_misses", float64(h.Opcache.Misses))
	g("obs_alloc_bytes", float64(h.AllocBytes))
	g("obs_heap_bytes", float64(h.HeapBytes))
	g("obs_num_gc", float64(h.NumGC))
	for _, ph := range h.Phases {
		fmt.Fprintf(b, "# TYPE obs_phase_seconds gauge\nobs_phase_seconds{%s,phase=%q} %g\n", label, ph.Phase, ph.Seconds)
		fmt.Fprintf(b, "# TYPE obs_phase_count gauge\nobs_phase_count{%s,phase=%q} %g\n", label, ph.Phase, float64(ph.Count))
	}
}
