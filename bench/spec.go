package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// spec is BENCHMARK.json: the one place metric names, units, directions
// and regression bounds are declared. The harness computes values and
// looks everything else up here, so a metric cannot be emitted without
// being declared or declared without being emitted.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	Bound float64 `json:"bound"`
}

// metrics lists every declared metric, end-to-end first.
func (s spec) metrics() []metricSpec {
	return append(slices.Clone(s.EndToEnd), s.PerLayer...)
}

func loadSpec(path string) (spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return spec{}, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return spec{}, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.metrics() {
		if m.Better != "lower" && m.Better != "higher" {
			return spec{}, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return s, nil
}

// exactUnit marks per-layer metrics that are counts made by the
// program: they must repeat exactly across iterations at one seed.
const exactUnit = "count"
