// Package callgraph builds a static call graph over the module packages a
// pass has loaded, the substrate for the per-function ownership summaries
// in internal/analysis/obligation. Resolution is purely static (the same
// analysis.Callee every pass uses): direct calls and method calls with a
// known concrete callee produce edges; calls through function values,
// interfaces without a static target, and out-of-module callees do not.
// Summary clients treat a missing edge conservatively (the argument
// escapes), so an incomplete graph costs silence, never a false report.
//
// Edges are collected from everywhere inside a declaration — including
// nested function literals and defer/go statements — because the graph's
// job is ordering and reachability, not exact may-call precision.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golapi/internal/analysis"
)

// Graph is the static call graph of the loaded module packages.
type Graph struct {
	// Funcs maps every declared function/method with a body to it.
	Funcs map[*types.Func]analysis.FuncBody
	// Calls lists, per caller, the distinct in-module callees that have
	// bodies, in first-call-site order (deterministic).
	Calls map[*types.Func][]*types.Func

	fset *token.FileSet
}

// Build indexes the pass's module packages and resolves every static call
// site. The result depends only on the loaded source, so callers may cache
// it across packages of the same loader.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		Funcs: pass.FuncIndex(),
		Calls: make(map[*types.Func][]*types.Func),
		fset:  pass.Fset,
	}
	for fn, fb := range g.Funcs {
		info := fb.Pkg.Info
		seen := map[*types.Func]bool{}
		ast.Inspect(fb.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.Callee(info, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, inModule := g.Funcs[callee]; !inModule {
				return true
			}
			seen[callee] = true
			g.Calls[fn] = append(g.Calls[fn], callee)
			return true
		})
	}
	return g
}

// All returns every function in the graph, ordered by source position
// (package file then offset) — the deterministic iteration order for
// whole-module clients.
func (g *Graph) All() []*types.Func {
	fns := make([]*types.Func, 0, len(g.Funcs))
	for fn := range g.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		pi, pj := g.fset.Position(fns[i].Pos()), g.fset.Position(fns[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return fns
}

// PostOrder returns the functions callee-first: every static callee of f
// appears before f unless the two sit on a call cycle. Cycles are broken at
// the deterministic DFS back edge, so clients computing summaries in this
// order see a conservative (in-progress) value only across recursion.
func (g *Graph) PostOrder() []*types.Func {
	state := make(map[*types.Func]int, len(g.Funcs)) // 0 new, 1 open, 2 done
	out := make([]*types.Func, 0, len(g.Funcs))
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if state[fn] != 0 {
			return
		}
		state[fn] = 1
		for _, callee := range g.Calls[fn] {
			visit(callee)
		}
		state[fn] = 2
		out = append(out, fn)
	}
	for _, fn := range g.All() {
		visit(fn)
	}
	return out
}
