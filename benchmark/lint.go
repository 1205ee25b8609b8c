package main

// lint_module: the full lapivet suite over every package of the module —
// what `make lint` does, in-process. internal/analysis is a third of the
// code and no other workload touches it.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"golapi/internal/analysis"
	"golapi/internal/analysis/suite"
)

// lintOnce runs analyzers over ./... and returns the wall time.
func lintOnce(root string, analyzers []*analysis.Analyzer) (*analysis.Result, time.Duration, error) {
	t0 := now()
	r, err := analysis.Run(root, []string{"./..."}, analyzers)
	return r, since(t0), err
}

func runLintModule(env *runEnv) (*runResult, error) {
	res := newResult(env, "lint_module")
	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	all := suite.Analyzers()
	res.Attempted++
	if len(all) != len(lintPasses) {
		res.fail(1, "the suite has %d passes, the catalogue %d", len(all), len(lintPasses))
	}
	rs := rounds{}
	var diags, stale int
	var cpu0 time.Duration
	measure := env.seconds
	if env.traced {
		measure /= 2 // the other half goes to the fourteen passes run alone
	}
	err := batchReps(env, res, measure, func(i int) error {
		if i == 0 {
			cpu0 = selfCPU()
		}
		span := tr.open(fmt.Sprintf("repetition %d", i), "analysis", 0)
		defer tr.close(span)
		full, wall, err := lintOnce(env.root, all)
		if err != nil {
			return err
		}
		// Oracle: the module lints clean, and no ignore comment is stale.
		res.Attempted++
		diags, stale = len(full.Diags), len(full.Stale)
		if diags != 0 || stale != 0 {
			res.fail(1, "lapivet reports %d diagnostics and %d stale ignores", diags, stale)
		}
		if i < 0 {
			return nil
		}
		loadSpan := tr.open("load only", "analysis", span)
		_, load, err := lintOnce(env.root, nil)
		tr.close(loadSpan)
		if err != nil {
			return err
		}
		rs.add("full_us", float64(wall.Nanoseconds())/1e3)
		rs.add("load_us", float64(load.Nanoseconds())/1e3)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.notef("%d repetitions of (full suite, load only)", len(rs["full_us"]))
	if !env.traced {
		setBatchEndToEnd(res, rs, "full_us", "load_us")
		return res, nil
	}

	v := res.Values
	reps := float64(len(rs["full_us"]))
	v["bench.wall_s"] = rs.median("full_us") / 1e6
	v["bench.cpu_us_per_op"] = float64((selfCPU() - cpu0).Nanoseconds()) / 1e3 / reps
	v["analysis.load_ms"] = rs.median("load_us") / 1e3
	v["analysis.diags"] = float64(diags)
	// Each pass alone, over a fresh load, minus the load: a pass that is
	// first to need a shared whole-module model (the call graph and
	// ownership summaries behind buflifetime, creditflow, poollifetime and
	// teardownpath; the concurrency model behind racefree, atomicmix and
	// goteardown) pays for building it here, as it would running alone.
	for _, a := range all {
		span := tr.open(a.Name, "analysis", 0)
		_, wall, err := lintOnce(env.root, []*analysis.Analyzer{a})
		tr.close(span)
		if err != nil {
			return nil, err
		}
		v["analysis.pass_ms."+a.Name] = float64(wall.Nanoseconds())/1e6 - v["analysis.load_ms"]
	}
	n, err := countIgnores(env.root)
	if err != nil {
		return nil, err
	}
	v["analysis.ignores"] = float64(n)
	v["bench.trace_overhead_pct"] = tr.spent.Seconds() / (rs.median("full_us") / 1e6 * reps) * 100
	return res, env.writeTrace(res, tr)
}

// countIgnores counts the //lapivet:ignore comments in the module's own
// sources (the analyzers' testdata fixtures are not module packages).
func countIgnores(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if i := strings.Index(line, "//lapivet:ignore "); i >= 0 && !strings.Contains(line[:i], `"`) {
				n++
			}
		}
		return nil
	})
	return n, err
}
