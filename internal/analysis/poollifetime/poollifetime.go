// Package poollifetime statically enforces the wire-buffer ownership
// contract (fabric.Transport: a delivered packet is valid only until the
// dispatch upcall returns, then its buffer goes back to the transport's
// pool). The AmInfo.UHdr slice handed to a header handler aliases that
// pooled packet, so a handler that retains it — storing it in a field,
// global, map or channel, or capturing it in a callback that outlives the
// handler (the completion handler, a go statement, exec.Runtime.Go/After)
// — reads recycled bytes later. The documented idiom is to copy first:
// append([]byte(nil), info.UHdr...); the pass recognizes that (and any
// other spread-append, which copies the bytes) as safe.
//
// The pass finds every function that flows into a lapi.HeaderHandler
// value (analysis.HeaderHandlers, the roots handlerblock searches) and
// tracks aliases of info.UHdr flow-sensitively over the handler's CFG
// (internal/analysis/cfg + dataflow): assignments gen aliases, rebinding
// to a non-alias (such as the spread-append copy) kills them, and states
// merge by union at joins. That catches aliases published on only one
// branch and loop-carried aliases (a store before the alias assignment in
// source order but after it along the back edge), while no longer flagging
// a local that held the pooled slice once but was rebound to a private
// copy before escaping. Literals that outlive the dispatch
// (analysis.OutlivesDispatch) are judged with the alias state at the point
// the literal is built; other literals are analyzed as sub-graphs seeded
// with that state. The pass is intraprocedural: a helper the slice is
// passed to is not followed.
package poollifetime

import (
	"go/ast"
	"go/token"
	"go/types"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
)

// Analyzer is the poollifetime pass.
var Analyzer = &analysis.Analyzer{
	Name: "poollifetime",
	Doc:  "report header handlers that retain the pooled AmInfo.UHdr packet slice past dispatch",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ai := pass.NamedType(analysis.LapiPath, "AmInfo")
	if ai == nil {
		return nil // package has no path to lapi: nothing to enforce
	}
	c := &checker{
		pass: pass,
		info: types.NewPointer(ai),
		ch:   pass.NamedType(analysis.LapiPath, "CompletionHandler"),
	}
	seen := make(map[*ast.BlockStmt]bool) // a handler registered twice is analyzed once
	for _, root := range pass.HeaderHandlers() {
		if !seen[root.Body] {
			seen[root.Body] = true
			c.checkHandler(root)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	info types.Type // *lapi.AmInfo
	ch   types.Type // lapi.CompletionHandler
}

// state is the may-set of locals aliasing the pooled packet.
type state = dataflow.Set[types.Object]

// handlerScope is the per-handler analysis context (everything that is not
// flow-dependent).
type handlerScope struct {
	c        *checker
	pkg      *analysis.Package
	infoObj  types.Object      // the *AmInfo parameter
	escaping map[ast.Node]bool // literals that run after the handler returns
}

// checkHandler analyzes one header-handler body.
func (c *checker) checkHandler(root analysis.Root) {
	pkg := root.Pkg
	h := &handlerScope{c: c, pkg: pkg}
	for _, field := range root.Type.Params.List {
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil && types.Identical(obj.Type(), c.info) {
				h.infoObj = obj
			}
		}
	}
	if h.infoObj == nil {
		return // unnamed or absent info parameter: nothing can alias UHdr
	}
	h.escaping = analysis.OutlivesDispatch(pkg.Info, c.ch, root.Body)
	h.analyze(root.Body, state{})
}

// analyze runs the alias dataflow over one body (the handler itself, or a
// nested non-escaping literal seeded with the state at its creation).
func (h *handlerScope) analyze(body *ast.BlockStmt, seed state) {
	g := cfg.New(body)
	p := &problem{h: h, seed: seed}
	res := dataflow.Solve(g, p)
	p.report = true
	res.Walk(g, p)
}

// problem adapts handlerScope to the dataflow solver; report is off during
// Solve and on during the Walk replay.
type problem struct {
	dataflow.MaySet[types.Object]
	h      *handlerScope
	seed   state
	report bool
}

func (p *problem) Entry() state { return p.Clone(p.seed) }

func (p *problem) Transfer(n ast.Node, s state) state {
	p.h.transfer(n, s, p.report)
	return s
}

// transfer applies one CFG leaf node to the alias state.
func (h *handlerScope) transfer(n ast.Node, s state, report bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if h.escaping[m] {
				if report {
					h.checkEscapingLit(m, s)
				}
			} else if report {
				// A literal that runs during the dispatch (a defer, a helper
				// callback) sees the aliases live where it is built.
				h.analyze(m.Body, s)
			}
			return false
		case *ast.AssignStmt:
			h.assign(m, s, report)
		case *ast.SendStmt:
			if h.aliasRooted(m.Value, s) && report {
				h.retained(m.Value.Pos(), "sent on a channel")
			}
		case *ast.GoStmt:
			// Arguments evaluated now but used after the handler returns.
			for _, arg := range m.Call.Args {
				if h.aliasRooted(arg, s) && report {
					h.retained(arg.Pos(), "passed to a goroutine")
				}
			}
		}
		return true
	})
}

// assign flags stores of pooled-packet aliases into locations that outlive
// the handler, gens new local aliases, and kills rebound ones (including
// the CFG's synthesized empty-Rhs range bindings).
func (h *handlerScope) assign(n *ast.AssignStmt, s state, report bool) {
	paired := len(n.Lhs) == len(n.Rhs)
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if paired && i < len(n.Rhs) {
			rhs = n.Rhs[i]
		}
		aliased := rhs != nil && h.aliasRooted(rhs, s)
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := h.pkg.Info.Defs[l]
			if obj == nil {
				obj = h.pkg.Info.Uses[l]
			}
			if obj == nil {
				continue
			}
			if !aliased {
				delete(s, obj) // rebound to something private: alias dies
				continue
			}
			if obj.Parent() == h.pkg.Types.Scope() {
				if report {
					h.retained(rhs.Pos(), "stored in a package-level variable")
				}
				continue
			}
			s[obj] = true
		default:
			// Field, map/slice element, or dereference: the destination's
			// lifetime is unknown, assume it outlives the dispatch.
			if aliased && report {
				h.retained(rhs.Pos(), "stored outside the handler's locals")
			}
		}
	}
}

// checkEscapingLit flags any pooled-packet alias (under the state at the
// literal's creation) used inside a function literal that runs after the
// header handler has returned.
func (h *handlerScope) checkEscapingLit(lit *ast.FuncLit, s state) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if h.uhdrSelector(e) || h.aliasIdent(e, s) {
			h.retained(e.Pos(), "captured by a callback that outlives the handler")
			return false
		}
		return true
	})
}

func (h *handlerScope) retained(pos token.Pos, how string) {
	h.c.pass.Reportf(pos, "pooled packet slice (AmInfo.UHdr) %s: it is recycled when the dispatch returns — copy it first (append([]byte(nil), info.UHdr...))", how)
}

// aliasRooted reports whether expr's value aliases the pooled wire packet:
// info.UHdr, a tracked local alias, a re-slice of either, an element
// append (which stores the slice header), or a composite literal carrying
// one.
func (h *handlerScope) aliasRooted(expr ast.Expr, s state) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return h.aliasIdent(e, s)
	case *ast.SelectorExpr:
		return h.uhdrSelector(e)
	case *ast.SliceExpr:
		return h.aliasRooted(e.X, s)
	case *ast.CallExpr:
		// append copies bytes when the alias is spread (safe); appending
		// the slice itself as an element, or appending onto the alias,
		// keeps the pooled pointer alive.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && h.pkg.Info.Uses[id] == types.Universe.Lookup("append") {
			if len(e.Args) > 0 && h.aliasRooted(e.Args[0], s) {
				return true
			}
			for _, arg := range e.Args[1:] {
				if h.aliasRooted(arg, s) && !(e.Ellipsis.IsValid() && arg == e.Args[len(e.Args)-1]) {
					return true
				}
			}
		}
		return false
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if h.aliasRooted(v, s) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return h.aliasRooted(e.X, s)
		}
	}
	return false
}

// uhdrSelector reports whether e is info.UHdr on the handler's *AmInfo.
func (h *handlerScope) uhdrSelector(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "UHdr" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && h.pkg.Info.Uses[id] == h.infoObj
}

// aliasIdent reports whether e is an identifier aliasing the packet in s.
func (h *handlerScope) aliasIdent(e ast.Expr, s state) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && s[h.pkg.Info.Uses[id]]
}
