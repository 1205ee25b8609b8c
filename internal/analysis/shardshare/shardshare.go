// Package shardshare statically enforces the parallel sweep contract: jobs
// handed to parallel.Map or parallel.ForEach run concurrently on worker
// goroutines, so they must not write package-level state. The executor
// guarantees determinism only because every sweep point is self-contained;
// a job that mutates a package-level variable — directly or through any
// function it calls — races with its siblings and silently breaks the
// byte-identical-output property the determinism gate checks.
//
// The pass finds every call to parallel.Map / parallel.ForEach, takes the
// job argument (a function literal or a named function), and searches its
// static call graph across the module (analysis.Search) for assignments
// and ++/-- statements whose written operand is rooted at a package-scope
// variable (the root covers field, index and dereference chains, so writes
// to a package-level slice's elements or a package-level struct's fields
// are caught too). Reads are not flagged: immutable package-level tables
// are the normal way to share sweep configuration.
//
// Intentional shared state (e.g. mutex-guarded caches) is suppressed per
// line with //lapivet:ignore shardshare <reason>.
package shardshare

import (
	"go/ast"
	"go/token"
	"go/types"

	"golapi/internal/analysis"
)

// Analyzer is the shardshare pass.
var Analyzer = &analysis.Analyzer{
	Name: "shardshare",
	Doc:  "report writes to package-level state reachable from parallel sweep jobs",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Lookup(analysis.ParallelPath) == nil {
		return nil // package has no path to the executor: nothing to enforce
	}
	s := pass.NewSearch(packageWrite, nestedJobs)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if job := analysis.SweepJob(pass.Pkg.Info, call); job != nil {
				if root, ok := pass.RootOf(job); ok {
					s.Check(root, func(pos token.Pos, p analysis.Path) {
						pass.Reportf(pos, "sweep job writes package-level state %s%s (jobs run concurrently on sweep workers; keep sweep points self-contained or guard the state and suppress)", p.What, p.Via())
					})
				}
			}
			return true
		})
	}
	return nil
}

// packageWrite reports the writes at n to package-level variables. A
// nested sweep call is not followed, nor is its job literal entered
// (nestedJobs): the job is checked at its own call's site.
func packageWrite(n ast.Node, pkg *analysis.Package, hit func(token.Pos, string)) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			return false // := declares new locals; it cannot write a package var
		}
		for _, lhs := range n.Lhs {
			if v := pkgVarRoot(pkg.Info, lhs); v != nil {
				hit(lhs.Pos(), qualified(v))
			}
		}
	case *ast.IncDecStmt:
		if v := pkgVarRoot(pkg.Info, n.X); v != nil {
			hit(n.X.Pos(), qualified(v))
		}
	case *ast.CallExpr:
		return analysis.SweepJob(pkg.Info, n) != nil
	}
	return false
}

// nestedJobs returns the job literals of the sweep calls in body, which a
// search does not enter.
func nestedJobs(body *ast.BlockStmt, pkg *analysis.Package) map[ast.Node]bool {
	var jobs map[ast.Node]bool
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(analysis.SweepJob(pkg.Info, call)).(*ast.FuncLit); ok {
				if jobs == nil {
					jobs = make(map[ast.Node]bool)
				}
				jobs[lit] = true
			}
		}
		return true
	})
	return jobs
}

// pkgVarRoot resolves the base of a written expression — unwrapping field
// selections, indexing and dereferences — to a package-scope variable, or
// nil. Writing any part of an object rooted at a package variable shares
// that object across workers.
func pkgVarRoot(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && analysis.IsPkgLevel(v) {
			return v
		}
	case *ast.SelectorExpr:
		// Qualified reference otherpkg.Var, else a field chain v.f — recurse
		// into the receiver.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && analysis.IsPkgLevel(v) {
			return v
		}
		return pkgVarRoot(info, e.X)
	case *ast.StarExpr:
		return pkgVarRoot(info, e.X)
	case *ast.IndexExpr:
		return pkgVarRoot(info, e.X)
	case *ast.IndexListExpr:
		return pkgVarRoot(info, e.X)
	}
	return nil
}

// qualified renders a package variable as pkgname.Var for diagnostics.
func qualified(v *types.Var) string {
	return v.Pkg().Name() + "." + v.Name()
}
