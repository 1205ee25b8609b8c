package analysis

import (
	"go/ast"
	"go/types"
)

// Shared helpers for the lapivet passes. They encode the small amount of
// golapi-specific type plumbing every pass needs: finding the lapi and exec
// packages from an analyzed package, resolving static callees, and indexing
// function bodies across the module for interprocedural walks.

// Import paths the passes care about.
const (
	LapiPath   = "golapi/internal/lapi"
	ExecPath   = "golapi/internal/exec"
	FabricPath = "golapi/internal/fabric"
	TcpnetPath = "golapi/internal/tcpnet"
)

// Lookup returns the types.Package for a module import path, whether it is
// the analyzed package itself or any (transitive) dependency the loader has
// seen. It returns nil when the package is not in the analyzed package's
// import closure — passes treat that as "nothing to check".
func (p *Pass) Lookup(path string) *types.Package {
	if p.Pkg.Path == path {
		return p.Pkg.Types
	}
	if dep := p.Dep(path); dep != nil {
		// The loader only records packages reached while type-checking, so
		// presence implies reachability.
		return dep.Types
	}
	return nil
}

// NamedType returns the named type decl (by name) from the package at path,
// or nil.
func (p *Pass) NamedType(path, name string) types.Type {
	pkg := p.Lookup(path)
	if pkg == nil {
		return nil
	}
	obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	return obj.Type()
}

// Callee resolves the static callee of call in the given package, handling
// plain calls (f(...)), selector calls (x.M(...)) and qualified calls
// (pkg.F(...)). It returns nil for dynamic calls (function values, type
// conversions, builtins).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn != nil {
		// Methods selected through an instantiated generic (an embedded
		// Job[T], say) resolve to the instance object; normalize to the
		// generic origin so lookups keyed by declared functions match.
		fn = fn.Origin()
	}
	return fn
}

// IsMethodOf reports whether fn is a method named one of names on the type
// recvName (value or pointer receiver) from the package at pkgPath. It also
// matches interface methods (e.g. exec.Context.Wait).
func IsMethodOf(fn *types.Func, pkgPath, recvName string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != recvName {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// FuncBody is a function declared somewhere in the module, together with
// the package whose type info resolves identifiers inside it.
type FuncBody struct {
	Decl *ast.FuncDecl
	Body *ast.BlockStmt
	Pkg  *Package
}

// FuncIndex maps every named function and method declared in the loaded
// module packages to its declaration, for interprocedural walks. Functions
// without bodies (assembly stubs) are absent. The index is built once per
// load (via Shared); callers must not modify it.
func (p *Pass) FuncIndex() map[*types.Func]FuncBody {
	return p.Shared("funcindex", func() any {
		idx := make(map[*types.Func]FuncBody)
		for _, pkg := range p.ModulePackages() {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						idx[fn] = FuncBody{Decl: fd, Body: fd.Body, Pkg: pkg}
					}
				}
			}
		}
		return idx
	}).(map[*types.Func]FuncBody)
}

// ObjectOf resolves an identifier or selector expression to the object it
// denotes, or nil.
func ObjectOf(info *types.Info, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// RootsOfType returns the expressions at node n whose value flows into the
// type want: call arguments (including conversions and variadic calls),
// assignment right-hand sides, typed var initializers, and composite
// literal elements. Passes use it to find every expression that becomes,
// e.g., a lapi.HeaderHandler.
func RootsOfType(info *types.Info, want types.Type, n ast.Node) []ast.Expr {
	var roots []ast.Expr
	add := func(e ast.Expr, t types.Type) {
		if t != nil && types.Identical(t, want) {
			roots = append(roots, e)
		}
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
			// Conversion want(f).
			for _, arg := range n.Args {
				add(arg, tv.Type)
			}
			return roots
		}
		sig, ok := info.TypeOf(n.Fun).(*types.Signature)
		if !ok {
			return nil
		}
		for i, arg := range n.Args {
			pi := i
			if sig.Variadic() && pi >= sig.Params().Len()-1 {
				pi = sig.Params().Len() - 1
			}
			if pi < sig.Params().Len() {
				pt := sig.Params().At(pi).Type()
				if sl, ok := pt.(*types.Slice); ok && sig.Variadic() && pi == sig.Params().Len()-1 {
					pt = sl.Elem()
				}
				add(arg, pt)
			}
		}
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if i < len(n.Lhs) {
				add(rhs, info.TypeOf(n.Lhs[i]))
			}
		}
	case *ast.ValueSpec:
		for _, v := range n.Values {
			if n.Type != nil {
				add(v, info.TypeOf(n.Type))
			}
		}
	case *ast.CompositeLit:
		ct := info.TypeOf(n)
		if ct == nil {
			return nil
		}
		switch u := ct.Underlying().(type) {
		case *types.Struct:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					add(kv.Value, info.TypeOf(kv.Key))
				}
			}
		case *types.Slice:
			for _, elt := range n.Elts {
				add(elt, u.Elem())
			}
		case *types.Map:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					add(kv.Value, u.Elem())
				}
			}
		}
	}
	return roots
}

// IdentObject returns the object a plain identifier denotes, or nil when e
// is not an identifier or is the nil literal.
func IdentObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "nil" {
		return nil
	}
	return info.ObjectOf(id)
}

// BaseObject returns the object of the identifier at the base of a
// (possibly nested) slice or index expression, or of e itself when it is
// an identifier; nil otherwise.
func BaseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return info.ObjectOf(x)
		default:
			return nil
		}
	}
}

// Mentions reports whether e references obj anywhere.
func Mentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
