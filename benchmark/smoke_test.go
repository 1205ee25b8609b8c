package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go under -race, where the simulated
// workloads run an order of magnitude slower and have nothing to race on.
var raceEnabled bool

// TestQuickEveryWorkload is `go run ./benchmark -quick` as a test: every
// workload, smoke-sized, untraced and traced, with every oracle on and no
// bound applied. It keeps the benchmark runnable as the code under it
// changes.
func TestQuickEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second or two each")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		batch := w.Name == "sim_paper" || w.Name == "sim_mesh1k" || w.Name == "lint_module"
		for _, traced := range []bool{false, true} {
			if batch && (raceEnabled || traced) {
				continue // single-threaded simulations: race-free by construction, and a traced pass doubles the suite's time
			}
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				env := &runEnv{seed: 1, seconds: time.Second, traced: traced, quick: true, root: root}
				res, err := runWorkload(env, w.Name)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Notes)
				}
				line, err := res.contractLine()
				if err != nil {
					t.Fatal(err)
				}
				if len(line) == 0 || len(res.Values) != len(res.defs()) {
					t.Errorf("%d metrics reported, the set has %d", len(res.Values), len(res.defs()))
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Values[d.Name] <= 0 {
							t.Errorf("end-to-end metric %s = %g: must be measured and never 0", d.Name, res.Values[d.Name])
						}
					}
				}
			})
		}
	}
}

// A fresh checkout has no benchmark/out — git ignores it — and the
// multi-run modes put each child's result file there before anything else
// has made the directory.
func TestScratchFileInAFreshCheckout(t *testing.T) {
	root := t.TempDir()
	path, err := scratchFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if dir := filepath.Join(root, "benchmark", "out"); filepath.Dir(path) != dir {
		t.Errorf("scratch file %s is not in %s", path, dir)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error(err)
	}
}

// A set-up that does not finish in time (the mesh's port race, setup.go)
// triggers the restart; one that does, does not.
func TestGuardSetUp(t *testing.T) {
	var hung atomic.Int32
	done := guardSetUp(time.Hour, func() { hung.Add(1) })
	done()
	if hung.Load() != 0 {
		t.Error("a set-up that finished in time was treated as hung")
	}
	fired := make(chan struct{})
	done = guardSetUp(time.Millisecond, func() { close(fired) })
	<-fired // the set-up "hangs" until the guard has acted
	done()
}
