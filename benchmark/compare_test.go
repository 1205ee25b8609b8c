package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "op_us", Unit: "us", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "rate_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"identical", lat, tight, tight, verdictSame},
		{"5% slower, inside the bound", lat, tight, scale(tight, 1.05), verdictSame},
		{"20% slower", lat, tight, scale(tight, 1.20), verdictWorse},
		{"20% faster", lat, tight, scale(tight, 0.80), verdictSame},
		{"rate down 20%", rate, tight, scale(tight, 0.80), verdictWorse},
		{"rate up 20%", rate, tight, scale(tight, 1.20), verdictSame},
		{"noisy parent, overlapping runs", lat, []float64{80, 100, 120, 90, 130, 70, 110, 100}, []float64{85, 105, 125, 95, 135, 75, 115, 105}, verdictUnresolved},
		{"noisy, but every change run beats every parent run", lat, []float64{80, 100, 120, 90, 130}, []float64{50, 60, 55, 65, 70}, verdictSame},
		{"noisy, every change run loses to every parent run", lat, []float64{80, 100, 120, 90, 130}, []float64{200, 240, 220, 260, 280}, verdictWorse},
		{"single runs", lat, []float64{100}, []float64{130}, verdictWorse},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// synthFile builds a result file of n untraced runs per workload whose
// metrics are base values times f, with a little deterministic jitter.
func synthFile(n int, f float64) *resultFile {
	file := &resultFile{EndToEnd: endToEnd}
	for _, w := range workloads {
		for i := 0; i < n; i++ {
			r := &runResult{Workload: w.Name, Seed: uint64(i), Attempted: 100, Values: map[string]float64{}}
			for _, d := range endToEnd {
				v := 100 * (1 + 0.004*float64(i%5))
				if d.Better == higher {
					v /= f
				} else {
					v *= f
				}
				r.Values[d.Name] = v
			}
			file.Runs = append(file.Runs, r)
		}
	}
	return file
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, slow := write("a.json", synthFile(10, 1)), write("b.json", synthFile(10, 1.02)), write("slow.json", synthFile(10, 1.5))

	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Errorf("2%% apart: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), verdictWorse) || strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("2%% apart must be all same:\n%s", out.String())
	}
	if n := strings.Count(out.String(), verdictSame); n != len(workloads)*len(endToEnd) {
		t.Errorf("%d pairs judged, want %d", n, len(workloads)*len(endToEnd))
	}

	out.Reset()
	if err := compareFiles(&out, a, slow); err == nil {
		t.Errorf("50%% worse must fail:\n%s", out.String())
	}

	// A failed operation in the change is worse whatever the timings say.
	bad := synthFile(10, 1)
	bad.Runs[0].Failed = 1
	out.Reset()
	if err := compareFiles(&out, a, write("bad.json", bad)); err == nil {
		t.Errorf("a failed operation must fail the comparison:\n%s", out.String())
	}

	// An exact per-layer count that moved is worse too.
	pa, pb := synthFile(2, 1), synthFile(2, 1)
	for _, f := range []*resultFile{pa, pb} {
		f.Runs = append(f.Runs, &runResult{Workload: "sim_mesh1k", Traced: true, Attempted: 1,
			Values: map[string]float64{"parallel.epoch_barriers": 10853}})
	}
	out.Reset()
	if err := compareFiles(&out, write("pa.json", pa), write("pb.json", pb)); err != nil {
		t.Errorf("equal counts: %v\n%s", err, out.String())
	}
	pb.Runs[len(pb.Runs)-1].Values["parallel.epoch_barriers"] = 10854
	out.Reset()
	if err := compareFiles(&out, write("pa.json", pa), write("pb2.json", pb)); err == nil {
		t.Errorf("a moved exact count must fail:\n%s", out.String())
	}
}

func TestCalibrationTable(t *testing.T) {
	f := synthFile(10, 1)
	// Make one metric of one workload noisy.
	for i, r := range f.Runs {
		if r.Workload == "rt_small" {
			r.Values["op_us"] = 100 + 10*float64(i%7)
		}
	}
	var out bytes.Buffer
	printCalibration(&out, f, []string{"rt_small", "lint_module"})
	text := out.String()
	if !strings.Contains(text, "spread above a third of the bound") {
		t.Errorf("the noisy metric is not flagged:\n%s", text)
	}
	if n := strings.Count(text, "\n"); n != 1+2*len(endToEnd) {
		t.Errorf("%d lines, want a header and one line per (workload, metric):\n%s", n, text)
	}
	// 0 for a spread no bound the driver admits can hold: demote.
	for spread, want := range map[float64]float64{0: 0.05, 0.01: 0.05, 0.02: 0.10, 0.04: 0.15, 0.05: 0.15, 0.07: 0.25, 0.09: 0, 0.5: 0} {
		got, ok := proposeBound(spread)
		if !ok {
			got = 0
		}
		if got < want-1e-9 || got > want+1e-9 {
			t.Errorf("proposeBound(%g) = %g, want %g", spread, got, want)
		}
	}
}
