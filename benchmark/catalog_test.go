package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the catalogue")

// benchmarkJSON is the driver's description of the benchmark.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eJSON     `json:"end_to_end"`
	PerLayer   []layerJSON   `json:"per_layer"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func fromCatalogue() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSON pins BENCHMARK.json to the catalogue the harness
// reports from; `go test ./benchmark -run BenchmarkJSON -update` rewrites it.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(fromCatalogue(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join(root, "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from benchmark/catalog.go; run `go test ./benchmark -run BenchmarkJSON -update`")
	}
}

// TestCatalogueWithinContract checks the limits the driver refuses a
// benchmark for, before a single run.
func TestCatalogueWithinContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	maxBound := 0.0
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, lower is better")
	}
	if d := findMetric(endToEnd, "setup_s"); d != nil && d.Bound < maxBound {
		t.Errorf("setup_s has bound %g, the largest is %g", d.Bound, maxBound)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	for _, n := range exactLayer {
		if findMetric(perLayer, n) == nil {
			t.Errorf("exact metric %s is not in the per-layer catalogue", n)
		}
	}
}
