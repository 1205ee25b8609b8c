package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Mechanisms several passes share: the code a function-valued expression
// runs (Root), the header-handler scope of §2.1 (HeaderHandlers,
// OutlivesDispatch), the spawn recognizers (RuntimeCallback, SweepJob),
// the memoized interprocedural search (Search) and the every-body driver
// (Bodies).

// A Root is a function-valued expression resolved to the code it runs: a
// literal in place, or a function the module declares (Fn), found through
// FuncIndex.
type Root struct {
	Expr ast.Expr
	Fn   *types.Func // nil for a literal
	Type *ast.FuncType
	Body *ast.BlockStmt
	Pkg  *Package // resolves identifiers in Body
}

// RootOf resolves e in the analyzed package. It reports false when e is
// neither a literal nor a declared function with a body in the module.
func (p *Pass) RootOf(e ast.Expr) (Root, bool) {
	if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
		return Root{Expr: e, Type: lit.Type, Body: lit.Body, Pkg: p.Pkg}, true
	}
	fn, _ := ObjectOf(p.Pkg.Info, e).(*types.Func)
	fb, ok := p.FuncIndex()[fn]
	if !ok {
		return Root{}, false
	}
	return Root{Expr: e, Fn: fn, Type: fb.Decl.Type, Body: fb.Body, Pkg: fb.Pkg}, true
}

// HeaderHandlers returns, in source order, every expression of the package
// that becomes a lapi.HeaderHandler (RootsOfType), resolved by RootOf. A
// handler registered twice is two roots. It returns nil when the package
// has no path to lapi.
func (p *Pass) HeaderHandlers() []Root {
	hh := p.NamedType(LapiPath, "HeaderHandler")
	if hh == nil {
		return nil
	}
	var roots []Root
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, e := range RootsOfType(p.Pkg.Info, hh, n) {
				if r, ok := p.RootOf(e); ok {
					roots = append(roots, r)
				}
			}
			return true
		})
	}
	return roots
}

// RuntimeCallback returns the exec.Runtime method when call is Runtime.Go
// or Runtime.After, whose function arguments run as, or on, another
// activity; nil otherwise.
func RuntimeCallback(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := Callee(info, call); IsMethodOf(fn, ExecPath, "Runtime", "Go", "After") {
		return fn
	}
	return nil
}

// SweepJob returns the job argument when call is parallel.Map or
// parallel.ForEach, whose job runs concurrently on the sweep's workers;
// nil otherwise.
func SweepJob(info *types.Info, call *ast.CallExpr) ast.Expr {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != ParallelPath ||
		(fn.Name() != "Map" && fn.Name() != "ForEach") || len(call.Args) < 3 {
		return nil
	}
	return call.Args[len(call.Args)-1]
}

// OutlivesDispatch returns the nodes of a header handler's body that run
// after the handler has returned: literals assignable to ch (the
// lapi.CompletionHandler type; nil skips the test), literals handed to
// exec.Runtime.Go/After, and go statements together with the literal each
// spawns. A go statement's arguments are still evaluated during the
// dispatch; a pass that follows values checks them at the statement.
func OutlivesDispatch(info *types.Info, ch types.Type, body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if t := info.TypeOf(n); ch != nil && t != nil && types.AssignableTo(t, ch) {
				out[n] = true
			}
		case *ast.GoStmt:
			out[n] = true
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				out[lit] = true
			}
		case *ast.CallExpr:
			if RuntimeCallback(info, n) != nil {
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						out[lit] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// A Search finds, from a function body, the first node a pass looks for —
// in the body itself, or in the body of any static callee reached through
// FuncIndex — and the callee chain that leads there. A callee already on
// the search stack counts as no finding, and the outer visit resolves it.
// Results are memoized per function, except a function that found nothing
// while the guard cut the search at one of its callers: that caller's
// finding may yet lie on the path it cut.
type Search struct {
	idx    map[*types.Func]FuncBody
	memo   map[*types.Func]Path
	active []*types.Func
	cut    int // lowest stack index the guard has cut at since the current frame began
	skip   func(body *ast.BlockStmt, pkg *Package) map[ast.Node]bool
	visit  func(n ast.Node, pkg *Package, hit func(token.Pos, string)) bool
}

// A Path is what a Search found: What names the node, Chain the callees
// from the searched function to it, exclusive. The zero Path is nothing.
type Path struct {
	What  string
	Chain []string
}

// Via renders the chain for a message: empty, or " via f → g".
func (p Path) Via() string {
	if len(p.Chain) == 0 {
		return ""
	}
	return " via " + strings.Join(p.Chain, " → ")
}

// NewSearch returns a search over the module. visit reports the hits at one
// node through hit, and returns true when the search must not follow the
// node as a call: it was a hit, or is a call the pass checks at its own
// site. skip, when non-nil, returns the nodes of a body the search does not
// enter.
func (p *Pass) NewSearch(visit func(n ast.Node, pkg *Package, hit func(pos token.Pos, what string)) bool, skip func(body *ast.BlockStmt, pkg *Package) map[ast.Node]bool) *Search {
	return &Search{idx: p.FuncIndex(), memo: make(map[*types.Func]Path), visit: visit, skip: skip}
}

// Check searches the code root runs. A literal's hits, and its calls that
// reach one, are reported where they are; a declared function's first
// finding is reported at the root, with the function heading the chain.
func (s *Search) Check(root Root, report func(token.Pos, Path)) {
	if root.Fn == nil {
		s.scan(root.Body, root.Pkg, report)
	} else if p := s.reach(root.Fn); p.What != "" {
		report(root.Expr.Pos(), p.via(root.Fn))
	}
}

func (p Path) via(fn *types.Func) Path {
	return Path{What: p.What, Chain: append([]string{fn.Name()}, p.Chain...)}
}

// scan reports every hit in body, and every call whose callee reaches one.
func (s *Search) scan(body *ast.BlockStmt, pkg *Package, found func(token.Pos, Path)) {
	var skip map[ast.Node]bool
	if s.skip != nil {
		skip = s.skip(body, pkg)
	}
	hit := func(pos token.Pos, what string) { found(pos, Path{What: what}) }
	ast.Inspect(body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		if s.visit(n, pkg, hit) {
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := Callee(pkg.Info, call); fn != nil {
				if p := s.reach(fn); p.What != "" {
					found(call.Pos(), p.via(fn))
				}
			}
		}
		return true
	})
}

// reach returns the first finding in fn's body or its callees.
func (s *Search) reach(fn *types.Func) Path {
	if p, ok := s.memo[fn]; ok {
		return p
	}
	for i, a := range s.active {
		if a == fn {
			s.cut = min(s.cut, i)
			return Path{}
		}
	}
	var p Path
	d, outer := len(s.active), s.cut
	s.cut = d
	if fb, ok := s.idx[fn]; ok {
		s.active = append(s.active, fn)
		s.scan(fb.Body, fb.Pkg, func(_ token.Pos, inner Path) {
			if p.What == "" {
				p = inner
			}
		})
		s.active = s.active[:d]
	}
	if p.What != "" || s.cut >= d {
		s.memo[fn] = p
	}
	s.cut = min(outer, s.cut)
	return p
}

// Bodies calls f for every function body in the package, in source order:
// each declared function with a body (fn its object, sig its signature) and
// each function literal (fn nil). sig is nil only when the type checker
// recorded none. Nested literals are bodies of their own, so a per-body
// analysis that treats them as opaque values sees every body exactly once.
func (p *Pass) Bodies(f func(fn *types.Func, sig *types.Signature, body *ast.BlockStmt)) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn, _ := p.Pkg.Info.Defs[n.Name].(*types.Func)
					sig, _ := p.Pkg.Info.TypeOf(n.Name).(*types.Signature)
					f(fn, sig, n.Body)
				}
			case *ast.FuncLit:
				sig, _ := p.Pkg.Info.TypeOf(n).(*types.Signature)
				f(nil, sig, n.Body)
			}
			return true
		})
	}
}
