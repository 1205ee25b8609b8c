package gateway_test

import (
	"go/ast"
	"strings"
	"testing"

	"golapi/internal/analysis"
	"golapi/internal/analysis/atomicmix"
	"golapi/internal/analysis/buflifetime"
	"golapi/internal/analysis/concurrency"
	"golapi/internal/analysis/goteardown"
	"golapi/internal/analysis/obligation"
	"golapi/internal/analysis/racefree"
	"golapi/internal/analysis/teardownpath"
)

// TestLintClean locks in the lapivet result on this package: the
// summary-backed buflifetime pass and the teardown invariant
// (teardownpath, invariant 10) report zero unsuppressed findings on the
// session loop. The passes were run over this package while they were
// built and every frame path they model (respond's consume-on-all-paths
// contract, execGet's error path, the teardown branches in session.go)
// checked out clean; this test is the regression guard that keeps it that
// way — a future edit that drops a frame or skips a frames.Add on an
// error path fails here, not as a leak the InflightFrames checks miss or
// invent. The response frame reaches serve through the s.frame field,
// which buflifetime treats as an escape: serve's release of it is checked
// by teardownpath (frames.Add(-1) must follow a Release) and by the
// InflightFrames checks, not by buflifetime.
//
// The capture analyzer first proves the result is not vacuous: both
// passes gate on protocol inference (pooled-buffer ops, the frames
// counter), and a refactor that silently broke the inference would
// otherwise turn this into a test of nothing.
func TestLintClean(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}

	capture := &analysis.Analyzer{
		Name: "capture",
		Doc:  "verifies the two passes activate on this package",
		Run: func(pass *analysis.Pass) error {
			if obligation.NewBufferOps(pass) == nil {
				t.Error("BufferOps inference failed: buflifetime and teardownpath would silently skip this package")
			}
			counter := false
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
						if field, ok := sel.X.(*ast.SelectorExpr); ok && field.Sel.Name == "frames" {
							counter = true
						}
					}
					return !counter
				})
			}
			if !counter {
				t.Error("no frames.Add call found: teardownpath would silently skip this package")
			}
			return nil
		},
	}
	if _, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{capture}); err != nil {
		t.Fatalf("RunPackage(capture): %v", err)
	}

	passes := []*analysis.Analyzer{buflifetime.Analyzer, teardownpath.Analyzer}
	diags, _, err := analysis.RunPackage(l, pkg, passes)
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		name := pos.Filename
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		t.Errorf("%s:%d: [%s] %s", name, pos.Line, d.Analyzer, d.Message)
	}
}

// TestConcurrencyClean locks in the lapivet v4 result: the session
// goroutines and the everyRank activities carry zero unsuppressed
// racefree, atomicmix and goteardown findings. The probe first proves the
// result is non-vacuous — the concurrency model sees the per-session
// serve goroutine, recognizes RealRuntime.Do as entry into the rank's
// serialized domain (a release at serve's Do call, run holding
// ⟨serialized⟩), still sees a serialized spawn (everyRank's rank
// activity), and resolves lock-guarded accesses — so a refactor that
// silently broke goroutine, Do or lockset inference cannot turn this into
// a test of nothing.
func TestConcurrencyClean(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}

	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "verifies the concurrency model activates on this package",
		Run: func(pass *analysis.Pass) error {
			m := concurrency.Get(pass)
			serve, serialized := false, 0
			for _, sp := range m.Spawns {
				if sp.Parent.Pkg != pass.Pkg {
					continue
				}
				if sp.Kind == concurrency.SpawnGo && sp.Root.Fn != nil && sp.Root.Fn.Name() == "serve" {
					serve = true
				}
				if sp.Serialized {
					serialized++
				}
			}
			if !serve {
				t.Error("model sees no serve goroutine: the session goroutines are invisible")
			}
			if serialized == 0 {
				t.Error("model sees no serialized spawn: everyRank's rank activities are no longer recognized")
			}
			doRelease, runSerialized := false, false
			for _, u := range m.Units {
				if u.Pkg != pass.Pkg || u.Fn == nil {
					continue
				}
				switch u.Fn.Name() {
				case "serve":
					for _, op := range u.Syncs {
						if op.Obj == concurrency.SerializedLock && op.Kind == concurrency.SyncRelease {
							doRelease = true
						}
					}
				case "run":
					runSerialized = u.Entry.Has(concurrency.SerializedLock)
				}
			}
			if !doRelease {
				t.Error("serve records no ⟨serialized⟩ release: RealRuntime.Do is no longer recognized as entry into the rank domain")
			}
			if !runSerialized {
				t.Error("session.run does not hold ⟨serialized⟩: the Do domain is no longer recognized")
			}
			locked := false
			for _, u := range m.Units {
				if u.Pkg != pass.Pkg {
					continue
				}
				for _, a := range u.Accesses {
					if len(a.Locks) > 0 {
						locked = true
					}
				}
			}
			if !locked {
				t.Error("no lock-guarded access resolved in this package: lockset inference is dead")
			}
			return nil
		},
	}
	if _, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{probe}); err != nil {
		t.Fatalf("RunPackage(probe): %v", err)
	}

	passes := []*analysis.Analyzer{racefree.Analyzer, atomicmix.Analyzer, goteardown.Analyzer}
	diags, _, err := analysis.RunPackage(l, pkg, passes)
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		name := pos.Filename
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		t.Errorf("%s:%d: [%s] %s", name, pos.Line, d.Analyzer, d.Message)
	}
}
