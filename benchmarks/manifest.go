package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the measuring time BENCHMARK.json asks the driver to pass as
// --seconds. With four workloads the driver makes 92 runs inside 3420 s, so
// a run may take about 36 s all told; 15 s of measuring leaves room for
// set-up, checks, replayed epochs, the cold build and a slower host.
const runSeconds = 15

// manifest mirrors BENCHMARK.json, which has exactly these keys.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// buildManifest derives BENCHMARK.json from the catalogue, so the two cannot
// drift: regenerate the file with `-manifest`, and a test compares them.
func buildManifest() manifest {
	m := manifest{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func printManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}
