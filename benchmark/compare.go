package main

// Result files, -calibrate and -compare: how two sets of runs are judged
// against the benchmark's own noise.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// resultFile is what a multi-run invocation writes. It carries the bounds
// it was recorded under, so -compare judges a pair of files by the bounds
// of the first (the parent), not by whatever the comparing binary holds.
type resultFile struct {
	Host     hostInfo     `json:"host"`
	EndToEnd []metricDef  `json:"end_to_end"`
	Runs     []*runResult `json:"runs"`
}

func newResultFile() *resultFile {
	return &resultFile{Host: readHostInfo(), EndToEnd: endToEnd}
}

func resultPath(root, out string) string {
	if out != "" {
		return out
	}
	return filepath.Join(root, "benchmark", "out", "results.json")
}

func (f *resultFile) write(path string) error { return writeJSON(path, f) }

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over a file's runs.
func (f *resultFile) values(workload, metric string, traced bool) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			if x, ok := r.Values[metric]; ok {
				v = append(v, x)
			}
		}
	}
	return v
}

func (f *resultFile) failed(workload string) (n int64) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}

// calibrateSets runs o.calibrate sets of the named workloads, each set on
// the next seed and each run in a process of its own, prints the spread of
// every end-to-end metric beside its bound, and writes all runs to a result
// file -compare accepts.
func calibrateSets(w io.Writer, names []string, o options, root string) error {
	file := newResultFile()
	for set := 0; set < o.calibrate; set++ {
		for _, name := range names {
			res, err := runIsolated(o, root, name, o.seed+uint64(set), false)
			if err != nil {
				return err
			}
			if !res.correct() {
				res.print(w)
				return fmt.Errorf("%s: oracle failed during calibration", name)
			}
			fmt.Fprintf(os.Stderr, "calibrate: set %d/%d %s done\n", set+1, o.calibrate, name)
			file.Runs = append(file.Runs, res)
		}
	}
	printCalibration(w, file, names)
	return file.write(resultPath(root, o.out))
}

// maxBound is the widest bound the driver admits.
const maxBound = 0.25

// proposeBound turns a measured spread into a regression bound: three
// times the spread (the benchmark wants every spread below a third of its
// bound), rounded up to a multiple of 5%, at least 5%. Beyond maxBound
// there is no bound to propose: ok is false, and the metric belongs with
// the per-layer diagnostics.
func proposeBound(spread float64) (bound float64, ok bool) {
	b := math.Max(math.Ceil(3*spread/0.05-1e-9)*0.05, 0.05)
	return b, b <= maxBound+1e-9
}

func printCalibration(w io.Writer, f *resultFile, names []string) {
	fmt.Fprintf(w, "%-14s %-15s %3s %14s %14s %14s %8s %6s %9s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "bound", "proposed")
	for _, name := range names {
		for _, d := range f.EndToEnd {
			v := f.values(name, d.Name, false)
			if len(v) == 0 {
				continue
			}
			q1, q3 := quartiles(v)
			s := spread(v)
			flag := ""
			if d.Name != "setup_s" && s > d.Bound/3 {
				flag = "  spread above a third of the bound"
			}
			proposed := "  demote"
			if b, ok := proposeBound(s); ok {
				proposed = fmt.Sprintf("%7.0f%%", b*100)
			}
			fmt.Fprintf(w, "%-14s %-15s %3d %14.4f %14.4f %14.4f %7.1f%% %5.0f%% %s%s\n",
				name, d.Name, len(v), median(v), q1, q3, s*100, d.Bound*100, proposed, flag)
		}
	}
}

// Verdicts of one (workload, metric) pair.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a parent's and a change's runs of one metric. The change
// is worse when its median is worse than the parent's by more than the
// bound. When either side's own spread is wider than the bound the medians
// prove nothing: the pair is unresolved, unless the runs do not overlap at
// all (every run of one side beats every run of the other).
func judge(d metricDef, parent, change []float64) (verdict string, worsening float64) {
	mp, mc := median(parent), median(change)
	if mp != 0 {
		worsening = (mc - mp) / math.Abs(mp)
		if d.Better == higher {
			worsening = -worsening
		}
	}
	noisy := len(parent) > 1 && spread(parent) > d.Bound || len(change) > 1 && spread(change) > d.Bound
	if noisy {
		switch {
		case separated(d, change, parent): // every change run better than every parent run
			return verdictSame, worsening
		case separated(d, parent, change) && worsening > d.Bound:
			return verdictWorse, worsening
		}
		return verdictUnresolved, worsening
	}
	if worsening > d.Bound {
		return verdictWorse, worsening
	}
	return verdictSame, worsening
}

// separated reports whether every value of good is better than every value
// of bad, in d's direction.
func separated(d metricDef, good, bad []float64) bool {
	if len(good) == 0 || len(bad) == 0 {
		return false
	}
	sg, sb := sortedCopy(good), sortedCopy(bad)
	if d.Better == higher {
		return sg[0] > sb[len(sb)-1]
	}
	return sg[len(sg)-1] < sb[0]
}

// exactLayer lists the per-layer metrics that are counts or virtual-time
// figures: two runs of the same code must agree on them to the digit.
var exactLayer = []string{
	"switchnet.pkts_total", "switchnet.retransmits", "lapi.sim_pkts_per_put",
	"parallel.epoch_barriers", "parallel.epoch_imports", "parallel.shard_imbalance",
	"switchnet.spine_requests", "analysis.diags", "analysis.ignores",
	"bench.paper_err_pct", "bench.fail_ratio",
}

// comparePairs judges every (workload, end-to-end metric) pair present in
// both files, and every exact per-layer metric present in both; it returns
// how many pairs are worse.
func comparePairs(w io.Writer, parent, change *resultFile) (worse int) {
	fmt.Fprintf(w, "%-14s %-15s %14s %14s %9s %6s  %s\n", "workload", "metric", "parent", "change", "change%", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range parent.EndToEnd {
			p, c := parent.values(wl.Name, d.Name, false), change.values(wl.Name, d.Name, false)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			verdict, worsening := judge(d, p, c)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-15s %14.4f %14.4f %+8.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(p), median(c), worsening*100, d.Bound*100, verdict)
		}
		if fp, fc := parent.failed(wl.Name), change.failed(wl.Name); fp != 0 || fc != 0 {
			verdict := verdictSame
			if fc > 0 {
				verdict = verdictWorse
				worse++
			}
			fmt.Fprintf(w, "%-14s %-15s %14d %14d %9s %6s  %s\n", wl.Name, "failed", fp, fc, "", "0", verdict)
		}
		for _, name := range exactLayer {
			p, c := parent.values(wl.Name, name, true), change.values(wl.Name, name, true)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			same := true
			for _, x := range append(append([]float64(nil), p...), c...) {
				if x != p[0] {
					same = false
				}
			}
			if p[0] == 0 && same {
				continue // layer not exercised by this workload
			}
			verdict := verdictSame
			if !same {
				verdict = verdictWorse
				worse++
			}
			fmt.Fprintf(w, "%-14s %-32s %11.4f %14.4f %9s %6s  %s (exact)\n", wl.Name, name, p[0], c[len(c)-1], "", "0", verdict)
		}
	}
	return worse
}

func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readResultFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return err
	}
	if worse := comparePairs(w, parent, change); worse > 0 {
		return fmt.Errorf("%d pair(s) worse than the bound allows", worse)
	}
	return nil
}
