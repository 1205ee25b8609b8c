package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// runEnv is what one workload run is given.
type runEnv struct {
	seed    uint64
	seconds time.Duration // measuring time (set-up comes on top)
	traced  bool
	quick   bool // smoke sizing: one set-up, minimal repetitions
	// updateGolden rewrites golden/*.csv instead of comparing with them.
	updateGolden bool
	root         string // module root (the checkout)
}

func (e *runEnv) outDir() string { return filepath.Join(e.root, "benchmark", "out") }

// setups is how many times a workload sets up to report a median setup_s:
// n, or once in a quick run.
func (e *runEnv) setups(n int) int {
	if e.quick {
		return 1
	}
	return n
}

// writeTrace writes a traced run's spans beside the other outputs.
func (e *runEnv) writeTrace(res *runResult, tr *tracer) error {
	path := filepath.Join(e.outDir(), "trace-"+res.Workload+".json")
	if err := tr.write(path); err != nil {
		return err
	}
	res.notef("trace written to %s (%d spans)", path, tr.size())
	return nil
}

// runResult is one workload run: the metrics of an untraced run are the
// end-to-end set, those of a traced run the per-layer set.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Values    map[string]float64 `json:"values"`
	// Detail holds, per estimator, how many rounds it saw and their
	// spread; it is informational and never compared.
	Detail map[string]summary `json:"detail,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

func newResult(env *runEnv, workload string) *runResult {
	return &runResult{
		Workload: workload, Seed: env.seed, Traced: env.traced,
		Values: map[string]float64{}, Detail: map[string]summary{},
	}
}

func (r *runResult) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts n failed operations (errors, refusals, wrong values).
func (r *runResult) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Notes) < 20 {
		r.notef("FAIL: "+format, args...)
	}
}

// setQuiet reports a metric as the quiet quartile of its per-round values
// and records their distribution beside it.
func (r *runResult) setQuiet(name string, perRound []float64, better string) {
	r.Values[name] = quiet(perRound, better)
	r.Detail[name] = summarize(perRound)
}

// setMedian reports a metric as the median of its per-round values: the
// estimator for a ratio of two timings taken side by side, where the
// host's phases cancel and there is no quiet side to prefer.
func (r *runResult) setMedian(name string, perRound []float64) {
	r.Values[name] = median(perRound)
	r.Detail[name] = summarize(perRound)
}

func (r *runResult) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// defs returns the metric set this run must report.
func (r *runResult) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// fill makes sure every metric of the run's set is present: a per-layer
// metric of a layer the workload does not exercise reads 0. End-to-end
// metrics are never defaulted — a missing one is a harness bug.
func (r *runResult) fill() error {
	for name := range r.Values {
		if findMetric(r.defs(), name) == nil {
			delete(r.Values, name) // e.g. setup_s of a traced run: not part of its set
		}
	}
	for _, d := range r.defs() {
		if _, ok := r.Values[d.Name]; ok {
			continue
		}
		if !r.Traced {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
		}
		r.Values[d.Name] = 0
	}
	return nil
}

// contractLine renders the single JSON object the driver reads from the
// last line of standard output.
func (r *runResult) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = mv{Value: r.Values[d.Name], Unit: d.Unit}
	}
	return json.Marshal(out)
}

// print lists every metric by name with its unit, then the notes.
func (r *runResult) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): attempted %d, failed %d, fail_ratio %g\n",
		r.Workload, kind, r.Seed, r.Attempted, r.Failed, r.failRatio())
	for _, d := range r.defs() {
		v := r.Values[d.Name]
		if r.Traced && v == 0 {
			continue // layer not exercised by this workload
		}
		line := fmt.Sprintf("  %-36s %14.4f %s", d.Name, v, d.Unit)
		if s, ok := r.Detail[d.Name]; ok && s.N > 0 {
			line += fmt.Sprintf("   (n=%d min=%.4g q1=%.4g q3=%.4g)", s.N, s.Min, s.Q1, s.Q3)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func (r *runResult) failRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}
