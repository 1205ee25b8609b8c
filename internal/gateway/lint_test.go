package gateway_test

import (
	"go/ast"
	"strings"
	"testing"

	"golapi/internal/analysis"
	"golapi/internal/analysis/atomicmix"
	"golapi/internal/analysis/buflifetime"
	"golapi/internal/analysis/concurrency"
	"golapi/internal/analysis/creditflow"
	"golapi/internal/analysis/goteardown"
	"golapi/internal/analysis/obligation"
	"golapi/internal/analysis/racefree"
	"golapi/internal/analysis/teardownpath"
)

// TestLintClean locks in the lapivet v3 result on this package: the
// summary-backed buflifetime pass and the two gateway invariants
// (creditflow, invariant 9; teardownpath, invariant 10) report zero
// unsuppressed findings on the reader/dispatcher/writer pipeline. The
// passes were run over this package while they were built and every
// frame/credit path they model (respond's consume-on-all-paths contract,
// the PostArg handoffs in readLoop, the writeLoop drain, the teardown
// branches in session.go) checked out clean; this test is the regression
// guard that keeps it that way — a future edit that drops a frame,
// double-grants a credit, or skips a frames.Add on an error path fails
// here, not as a leak the InflightFrames checks miss or invent.
//
// The capture analyzer first proves the result is not vacuous: all three
// passes gate on protocol inference (pooled-buffer ops, the getReq/putReq
// freelist pair, the frames counter), and a refactor that silently broke
// the inference would otherwise turn this into a test of nothing.
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
		Doc:  "verifies the three passes activate on this package",
		Run: func(pass *analysis.Pass) error {
			if obligation.NewBufferOps(pass) == nil {
				t.Error("BufferOps inference failed: buflifetime and teardownpath would silently skip this package")
			}
			if creditflow.NewRequestOps(pass) == nil {
				t.Error("RequestOps inference failed: creditflow no longer recognizes the getReq/putReq freelist pair")
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

	passes := []*analysis.Analyzer{buflifetime.Analyzer, creditflow.Analyzer, teardownpath.Analyzer}
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

// TestConcurrencyClean locks in the lapivet v4 result: the reader →
// dispatcher → writer pipeline carries zero unsuppressed racefree,
// atomicmix and goteardown findings. The probe first proves the result is
// non-vacuous — the concurrency model actually sees this package's
// goroutines (the readLoop/writeLoop spawns), recognizes at least one of
// them as serialized (the PostArg dispatcher domain), and resolves
// lock-guarded accesses — so a refactor that silently broke goroutine or
// lockset inference cannot turn this into a test of nothing.
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
			spawns, serialized := 0, 0
			for _, s := range m.Spawns {
				if s.Parent.Pkg != pass.Pkg {
					continue
				}
				spawns++
				if s.Serialized {
					serialized++
				}
			}
			if spawns == 0 {
				t.Error("model sees no spawns in this package: the session goroutines are invisible")
			}
			if serialized == 0 {
				t.Error("model sees no serialized spawn: the dispatcher domain is no longer recognized")
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
