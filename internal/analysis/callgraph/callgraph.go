// Package callgraph resolves the call sites of the module packages a pass
// has loaded, once per load (Get). A call resolves in one of three ways,
// and each edge records which:
//
//   - Static: the call's static callee (analysis.Callee), a function the
//     module declares with a body.
//   - Interface: a method of an interface the module declares by name,
//     called through an interface value, to each module type's
//     implementation. Standard-library interfaces (io.Closer.Close),
//     anonymous interfaces and type-parameter constraints do not resolve:
//     they would reach every module type with a method of that name.
//   - Bound: a call through a field or variable, to every function value
//     stored into it anywhere in the module, by assignment (x.f = fn,
//     kernel := func() {...}) or in a composite literal (T{f: fn}). The
//     field, not the object, is the identity.
//
// A function value is a literal or a declared function or method value
// with a body (Value); a callee without a body in the module resolves to
// nothing. Each client chooses the edges it follows. The ownership
// summaries of internal/analysis/obligation follow static edges only
// (Calls, PostOrder), so an argument passed through an interface or a
// function value still escapes there; the concurrency model follows all
// three (Resolve, Values).
//
// Static edges are collected from everywhere inside a declaration,
// including nested function literals and defer/go statements, because
// their job is ordering and reachability, not exact may-call precision.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golapi/internal/analysis"
)

// Kind says how an edge was resolved.
type Kind uint8

const (
	// Static is the call's static callee.
	Static Kind = iota
	// Interface is a module implementation of a module-interface method.
	Interface
	// Bound is a function value stored into the field or variable called.
	Bound
)

// A Target is code a call may run: a function the module declares, or a
// function literal, with the package whose type info resolves its body.
type Target struct {
	Fn  *types.Func  // nil for a literal
	Lit *ast.FuncLit // nil for a declared function
	Pkg *analysis.Package
}

// An Edge is one resolution of a call site.
type Edge struct {
	Kind Kind
	To   Target
	Via  types.Object // Bound: the field or variable called through
}

// Graph is the call graph of the loaded module packages.
type Graph struct {
	// Funcs maps every declared function/method with a body to it.
	Funcs map[*types.Func]analysis.FuncBody
	// Calls lists, per caller, the distinct in-module static callees, in
	// first-call-site order (deterministic).
	Calls map[*types.Func][]*types.Func
	// Bound lists, per field or variable, the function values stored into
	// it, in source order of the stores.
	Bound map[types.Object][]Edge
	// Stores lists, per assignment or composite literal, the function
	// values it stores into fields or variables.
	Stores map[ast.Node][]Target
	// Named lists the module's named non-interface types, by package path
	// then name: the candidates of interface resolution.
	Named []*types.Named

	fset  *token.FileSet
	all   []*types.Func
	impls map[*types.Func][]Edge
}

// Get returns the module's call graph, built once per load and shared by
// every pass.
func Get(pass *analysis.Pass) *Graph {
	return pass.Shared("callgraph", func() any { return build(pass) }).(*Graph)
}

func build(pass *analysis.Pass) *Graph {
	g := &Graph{
		Funcs:  pass.FuncIndex(),
		Calls:  make(map[*types.Func][]*types.Func),
		Bound:  make(map[types.Object][]Edge),
		Stores: make(map[ast.Node][]Target),
		fset:   pass.Fset,
		impls:  make(map[*types.Func][]Edge),
	}
	for _, pkg := range pass.ModulePackages() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				g.Named = append(g.Named, named)
			}
		}
	}
	for _, fn := range g.All() {
		fb := g.Funcs[fn]
		info := fb.Pkg.Info
		seen := map[*types.Func]bool{}
		ast.Inspect(fb.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := analysis.Callee(info, n)
				if _, inModule := g.Funcs[callee]; inModule && !seen[callee] {
					seen[callee] = true
					g.Calls[fn] = append(g.Calls[fn], callee)
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) {
						g.bind(fb.Pkg, n, analysis.ChainObj(info, n.Lhs[i]), rhs)
					}
				}
			case *ast.CompositeLit:
				if t := info.TypeOf(n); t != nil && isStruct(t) {
					g.bindFields(fb.Pkg, n)
				}
			}
			return true
		})
	}
	return g
}

// bind records a store of value into obj at site, when value is a
// function value and obj a named variable or field.
func (g *Graph) bind(pkg *analysis.Package, site ast.Node, obj types.Object, value ast.Expr) {
	if v, ok := obj.(*types.Var); !ok || v.Name() == "_" {
		return
	}
	if t := pkg.Info.TypeOf(value); t == nil || !isFunc(t) {
		return
	}
	if to, ok := g.Value(pkg, value); ok {
		g.Bound[obj] = append(g.Bound[obj], Edge{Kind: Bound, To: to, Via: obj})
		g.Stores[site] = append(g.Stores[site], to)
	}
}

// bindFields records the function values a struct literal stores into
// function-typed fields.
func (g *Graph) bindFields(pkg *analysis.Package, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok {
			if field, ok := pkg.Info.Uses[key].(*types.Var); ok && isFunc(field.Type()) {
				g.bind(pkg, lit, field, kv.Value)
			}
		}
	}
}

// Value resolves a function-valued expression of package pkg to the code
// it denotes: a literal, or a declared function or method value with a
// body in the module.
func (g *Graph) Value(pkg *analysis.Package, e ast.Expr) (Target, bool) {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.FuncLit); ok {
		return Target{Lit: lit, Pkg: pkg}, true
	}
	fn, _ := analysis.ObjectOf(pkg.Info, e).(*types.Func)
	if fb, ok := g.Funcs[fn]; ok {
		return Target{Fn: fn, Pkg: fb.Pkg}, true
	}
	return Target{}, false
}

// Values returns the code a function-valued expression may denote: what
// Value resolves it to, as a static edge, or else every value bound to the
// field or variable it reads.
func (g *Graph) Values(pkg *analysis.Package, e ast.Expr) []Edge {
	if to, ok := g.Value(pkg, e); ok {
		return []Edge{{Kind: Static, To: to}}
	}
	return g.Bound[analysis.ChainObj(pkg.Info, e)]
}

// Resolve returns the edges of one call site of package pkg: its static
// callee, or the implementations of the module-interface method it calls,
// or the values bound to the field or variable it calls through.
func (g *Graph) Resolve(pkg *analysis.Package, call *ast.CallExpr) []Edge {
	fn := analysis.Callee(pkg.Info, call)
	if fn == nil {
		return g.Bound[analysis.ChainObj(pkg.Info, call.Fun)]
	}
	if fb, ok := g.Funcs[fn]; ok {
		return []Edge{{Kind: Static, To: Target{Fn: fn, Pkg: fb.Pkg}}}
	}
	impls, ok := g.impls[fn]
	if !ok {
		impls = g.implementations(fn)
		g.impls[fn] = impls
	}
	return impls
}

// implementations resolves a method of a named module interface to every
// module implementation with a body.
func (g *Graph) implementations(fn *types.Func) []Edge {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return nil
	}
	switch sig.Recv().Type().(type) {
	case *types.TypeParam, *types.Interface:
		return nil // a constraint or anonymous-interface method
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok || !analysis.InModule(fn.Pkg()) {
		return nil
	}
	var impls []Edge
	for _, named := range g.Named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			if fb, ok := g.Funcs[m]; ok {
				impls = append(impls, Edge{Kind: Interface, To: Target{Fn: m, Pkg: fb.Pkg}})
			}
		}
	}
	return impls
}

// All returns every function in the graph, ordered by source position
// (package file then offset) — the deterministic iteration order for
// whole-module clients. The slice is shared; callers must not modify it.
func (g *Graph) All() []*types.Func {
	if g.all != nil {
		return g.all
	}
	g.all = make([]*types.Func, 0, len(g.Funcs))
	for fn := range g.Funcs {
		g.all = append(g.all, fn)
	}
	sort.Slice(g.all, func(i, j int) bool {
		pi, pj := g.fset.Position(g.all[i].Pos()), g.fset.Position(g.all[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return g.all
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

func isFunc(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func isStruct(t types.Type) bool {
	_, ok := t.Underlying().(*types.Struct)
	return ok
}
