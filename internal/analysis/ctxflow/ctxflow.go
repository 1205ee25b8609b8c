// Package ctxflow statically enforces the exec.Context locality rule: a
// Context is the blocking capability of one serialized activity (see
// internal/exec) and is only meaningful on that activity's stack. Stashing
// one in a struct field, a package variable, or a map/slice — or handing it
// to another goroutine or runtime callback — lets a different activity call
// Sleep/Wait on it, which corrupts the simulator's scheduling and deadlocks
// real runtimes in surprising ways.
//
// The pass reports:
//   - assignments of a Context into struct fields, package-level variables,
//     and map/slice elements, and Context-valued fields in composite
//     literals;
//   - package-level variable declarations of Context type;
//   - Contexts captured by (or passed to) functions that leave the current
//     activity: go statements and exec.Runtime.Go/After callbacks.
//
// Passing a Context down the call stack as an argument remains the one
// blessed pattern.
package ctxflow

import (
	"go/ast"
	"go/types"

	"golapi/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "report exec.Context values escaping the activity they belong to",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ctxT := pass.NamedType(analysis.ExecPath, "Context")
	if ctxT == nil {
		return nil
	}
	c := &checker{pass: pass, ctx: ctxT}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				c.packageVars(gd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				c.assign(n)
			case *ast.CompositeLit:
				c.composite(n)
			case *ast.GoStmt:
				c.goStmt(n)
			case *ast.CallExpr:
				c.runtimeCallback(n)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	ctx  types.Type // the exec.Context interface
}

func (c *checker) isCtx(t types.Type) bool {
	return t != nil && types.Identical(t, c.ctx)
}

// packageVars flags package-level declarations of Context type.
func (c *checker) packageVars(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			if obj := c.pass.Pkg.Info.Defs[name]; obj != nil && c.isCtx(obj.Type()) {
				c.pass.Reportf(name.Pos(), "exec.Context held in package-level variable %s: contexts are activity-local and must only flow down the call stack", name.Name)
			}
		}
	}
}

// assign flags stores of a Context anywhere but a local variable.
func (c *checker) assign(a *ast.AssignStmt) {
	info := c.pass.Pkg.Info
	for _, lhs := range a.Lhs {
		if !c.isCtx(info.TypeOf(lhs)) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
				c.pass.Reportf(a.Pos(), "exec.Context stored in struct field %s: contexts are activity-local; pass them as arguments instead", l.Sel.Name)
			}
		case *ast.IndexExpr:
			c.pass.Reportf(a.Pos(), "exec.Context stored in a map or slice element: contexts are activity-local; pass them as arguments instead")
		case *ast.Ident:
			if obj := info.ObjectOf(l); obj != nil && obj.Parent() == c.pass.Pkg.Types.Scope() {
				c.pass.Reportf(a.Pos(), "exec.Context stored in package-level variable %s: contexts are activity-local; pass them as arguments instead", l.Name)
			}
		}
	}
}

// composite flags Context-valued fields and elements in composite literals.
func (c *checker) composite(cl *ast.CompositeLit) {
	info := c.pass.Pkg.Info
	ct := info.TypeOf(cl)
	if ct == nil {
		return
	}
	switch u := ct.Underlying().(type) {
	case *types.Struct:
		for i, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if c.isCtx(info.TypeOf(kv.Key)) {
					c.pass.Reportf(kv.Pos(), "exec.Context stored in struct field %s: contexts are activity-local; pass them as arguments instead", fieldName(kv.Key))
				}
			} else if i < u.NumFields() && c.isCtx(u.Field(i).Type()) {
				c.pass.Reportf(elt.Pos(), "exec.Context stored in struct field %s: contexts are activity-local; pass them as arguments instead", u.Field(i).Name())
			}
		}
	case *types.Slice:
		if c.isCtx(u.Elem()) {
			c.pass.Reportf(cl.Pos(), "exec.Context stored in a slice literal: contexts are activity-local; pass them as arguments instead")
		}
	case *types.Map:
		if c.isCtx(u.Elem()) || c.isCtx(u.Key()) {
			c.pass.Reportf(cl.Pos(), "exec.Context stored in a map literal: contexts are activity-local; pass them as arguments instead")
		}
	}
}

// goStmt flags Contexts crossing into a spawned goroutine, whether captured
// by a literal or passed as an argument.
func (c *checker) goStmt(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if c.isCtx(c.pass.Pkg.Info.TypeOf(arg)) {
			c.pass.Reportf(arg.Pos(), "exec.Context passed to a goroutine: contexts are activity-local; the spawned activity must obtain its own (e.g. from Runtime.Go)")
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		c.captures(lit, "goroutine")
	}
}

// runtimeCallback flags Contexts captured by exec.Runtime.Go/After
// callbacks: those run as (or on) a different activity.
func (c *checker) runtimeCallback(call *ast.CallExpr) {
	fn := analysis.RuntimeCallback(c.pass.Pkg.Info, call)
	if fn == nil {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			c.captures(lit, "Runtime."+fn.Name()+" callback")
		}
	}
}

// captures reports outer Context variables referenced inside lit.
func (c *checker) captures(lit *ast.FuncLit, what string) {
	info := c.pass.Pkg.Info
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] || !c.isCtx(obj.Type()) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // the literal's own parameter or local
		}
		seen[obj] = true
		c.pass.Reportf(id.Pos(), "exec.Context %s captured by %s: contexts are activity-local; the spawned activity must obtain its own", obj.Name(), what)
		return true
	})
}

func fieldName(key ast.Expr) string {
	if id, ok := key.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
