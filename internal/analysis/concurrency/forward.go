// forward.go computes interprocedural spawn-forwarding summaries: an
// in-module function that hands a function-typed parameter (directly or
// captured in a closure) to a spawn API effectively spawns its argument.
// The canonical case is cluster.Job.Run, which wraps each task main in an
// exec.Runtime.Go activity: a workload literal passed to Run at a call
// site is not synchronous caller code — it runs as a serialized runtime
// activity, and must be classed (and lockset-seeded) accordingly.
//
// Summaries propagate one call level per round (Sim.Run forwards to
// Job.Run forwards to Runtime.Go), to a small fixpoint.
package concurrency

import (
	"go/ast"
	"go/types"

	"golapi/internal/analysis"
)

// forwardKinds computes, for every function-typed parameter of a declared
// unit, the spawn kind its argument will run under, when the function
// forwards the parameter to a spawn API.
func (m *Model) forwardKinds() map[*types.Var]SpawnKind {
	forward := make(map[*types.Var]SpawnKind)
	for round := 0; round < 3; round++ {
		changed := false
		for _, u := range m.Units {
			if u.Fn == nil {
				continue
			}
			params := funcParams(u.Fn)
			if len(params) == 0 {
				continue
			}
			info := u.Pkg.Info
			record := func(arg ast.Expr, kind SpawnKind) {
				for _, p := range params {
					if _, ok := forward[p]; ok {
						continue
					}
					if argForwards(info, arg, p) {
						forward[p] = kind
						changed = true
					}
				}
			}
			ast.Inspect(u.Body, func(n ast.Node) bool {
				if kind, arg, ok := m.spawnSite(info, n); ok {
					record(arg, kind)
				} else if call, ok := n.(*ast.CallExpr); ok {
					// Transitive: an argument fed into a parameter that
					// itself forwards.
					if fn := analysis.Callee(info, call); fn != nil {
						for i, cp := range m.calleeParams(fn) {
							if kind, ok := forward[cp]; ok && i < len(call.Args) {
								record(call.Args[i], kind)
							}
						}
					}
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	return forward
}

// applyForwarding creates spawn sites for function-valued arguments passed
// into forwarding parameters: the argument's unit becomes a spawn root of
// the summarized kind, anchored at the call expression.
func (m *Model) applyForwarding() {
	for _, u := range m.Units {
		info := u.Pkg.Info
		inspectLoops(u.Body, func(n ast.Node, inLoop bool) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := analysis.Callee(info, call)
			if fn == nil || m.modeled(fn) {
				return // already modeled at the call site
			}
			for i, cp := range m.calleeParams(fn) {
				if kind, ok := m.forward[cp]; ok && i < len(call.Args) {
					if root := m.unitForExpr(u, call.Args[i]); root != nil && root != u {
						m.spawn(u, root, call.Pos(), kind, inLoop)
					}
				}
			}
		})
	}
}

// funcParams returns the function-typed parameters of fn (including any
// variadic func element), as their declared variables.
func funcParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); isFunc(p.Type()) {
			out = append(out, p)
		}
	}
	return out
}

// calleeParams returns the positional parameter variables of a callee
// with a body in the module, or nil for any other function.
func (m *Model) calleeParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if m.unitOf[fn] == nil || !ok {
		return nil
	}
	out := make([]*types.Var, sig.Params().Len())
	for i := range out {
		out[i] = sig.Params().At(i)
	}
	return out
}

// argForwards reports whether arg is parameter p itself or a function
// literal capturing p (the Job.Run wrapper closure idiom).
func argForwards(info *types.Info, arg ast.Expr, p *types.Var) bool {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.Ident:
		return info.Uses[arg] == p
	case *ast.FuncLit:
		return analysis.Mentions(info, arg, p)
	}
	return false
}
