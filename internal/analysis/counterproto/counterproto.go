// Package counterproto statically enforces the paper's three-counter
// completion discipline (§2.3): a Waitcntr/Getcntr only ever observes
// progress if the counter has been handed to the library first — as the
// origin or completion counter of a Put/Get/Amsend/Rmw (or strided
// variant), via its ID() to a target slot, or primed with Setcntr. A wait
// on a counter that no path has armed can never complete: it is either a
// deadlock (Waitcntr) or a poll of a counter nothing will ever bump
// (Getcntr).
//
// The pass is flow-sensitive (internal/analysis/cfg + dataflow). For each
// function it first finds the eligible counters: locals created by
// t.NewCounter() whose every use the pass fully understands — comm-op
// counter slots, Waitcntr/Getcntr/Setcntr, nil comparisons, and Value().
// A counter that escapes (passed to a helper, stored, returned, captured
// by a literal, or exported to the wire via ID()) may be armed somewhere
// the pass cannot see and is exempt. It then runs a may-analysis whose
// state is the set of armed counters, merged by union at joins, and
// reports each wait whose in-state does not contain the counter: NO path
// from function entry arms it before the wait. Arming in only one branch
// is therefore accepted (some path arms it), matching the issue's "never
// on any path" bar; the deliberately-missed dual — a loop whose first
// iteration waits before the arm later in the body — is masked by the
// back edge and stays out of scope.
package counterproto

import (
	"go/ast"
	"go/types"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
)

// Analyzer is the counterproto pass.
var Analyzer = &analysis.Analyzer{
	Name: "counterproto",
	Doc:  "report Waitcntr/Getcntr on a counter no path has armed via a comm-op slot or Setcntr",
	Run:  run,
}

// cntrSlots lists, per comm op, the argument indexes that take a local
// *Counter (origin and completion slots; target slots take a
// RemoteCounter and go through ID()).
var cntrSlots = map[string][]int{
	"Put":        {5, 6},
	"Get":        {5},
	"Amsend":     {6, 7},
	"Rmw":        {7},
	"PutStrided": {6, 7},
	"GetStrided": {6},
}

func run(pass *analysis.Pass) error {
	if pass.Lookup(analysis.LapiPath) == nil {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					check(pass, n.Body)
				}
			case *ast.FuncLit:
				check(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	eligible := eligibleCounters(pass, body)
	if len(eligible) == 0 {
		return
	}
	g := cfg.New(body)
	c := &checker{pass: pass, eligible: eligible}
	res := dataflow.Solve(g, c)
	c.report = true
	res.Walk(g, c)
}

// eligibleCounters returns the local counters created by NewCounter in
// body whose every use sits in a context the pass models. The walk
// collects NewCounter bindings and the set of identifier uses it
// recognizes; a counter with any unrecognized use is dropped.
func eligibleCounters(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	info := pass.Pkg.Info
	created := map[types.Object]bool{}
	allowed := map[*ast.Ident]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Uses inside a nested literal run at an unknown time; leaving
			// them unrecognized makes any captured counter ineligible.
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(info, call)
			if !analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "NewCounter") {
				return true
			}
			if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					created[obj] = true
					allowed[id] = true
				}
			}
		case *ast.CallExpr:
			fn := analysis.Callee(info, n)
			if fn == nil {
				return true
			}
			var slots []int
			switch {
			case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "Put", "Get", "Amsend", "Rmw", "PutStrided", "GetStrided"):
				slots = cntrSlots[fn.Name()]
			case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "Waitcntr", "Getcntr", "Setcntr"):
				slots = []int{1}
			case analysis.IsMethodOf(fn, analysis.LapiPath, "Counter", "Value"):
				// c.Value() reads locally; the receiver use is fine.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						allowed[id] = true
					}
				}
				return true
			}
			for _, i := range slots {
				if i < len(n.Args) {
					if id, ok := ast.Unparen(n.Args[i]).(*ast.Ident); ok {
						allowed[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			// if c != nil / c == nil guards.
			if isNil(info, n.X) {
				if id, ok := ast.Unparen(n.Y).(*ast.Ident); ok {
					allowed[id] = true
				}
			}
			if isNil(info, n.Y) {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					allowed[id] = true
				}
			}
		}
		return true
	})

	if len(created) == 0 {
		return nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.ObjectOf(id); obj != nil && created[obj] && !allowed[id] {
			delete(created, obj)
		}
		return true
	})
	return created
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj
}

// state is the may-set of armed counters.
type state = dataflow.Set[types.Object]

type checker struct {
	dataflow.MaySet[types.Object]
	pass     *analysis.Pass
	eligible map[types.Object]bool
	report   bool
}

func (c *checker) Entry() state { return state{} }

func (c *checker) Transfer(n ast.Node, s state) state {
	info := c.pass.Pkg.Info
	// A defer/go registration only evaluates arguments; the call runs
	// elsewhere (deferred calls replay in the exit block). Arms still count
	// — the operation will happen — but a wait is not checked here.
	reportHere := c.report
	switch d := n.(type) {
	case *ast.DeferStmt:
		n, reportHere = d.Call, false
	case *ast.GoStmt:
		n, reportHere = d.Call, false
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			// Rebinding to a fresh NewCounter resets the armed fact.
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if analysis.IsMethodOf(analysis.Callee(info, call), analysis.LapiPath, "Task", "NewCounter") {
						if obj := objectIfIdent(info, n.Lhs[0]); obj != nil {
							delete(s, obj)
						}
					}
				}
			}
		case *ast.CallExpr:
			fn := analysis.Callee(info, n)
			if fn == nil {
				return true
			}
			switch {
			case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "Put", "Get", "Amsend", "Rmw", "PutStrided", "GetStrided"):
				for _, i := range cntrSlots[fn.Name()] {
					if i < len(n.Args) {
						if obj := objectIfIdent(info, n.Args[i]); obj != nil {
							s[obj] = true
						}
					}
				}
			case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "Setcntr"):
				if len(n.Args) > 1 {
					if obj := objectIfIdent(info, n.Args[1]); obj != nil {
						s[obj] = true
					}
				}
			case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "Waitcntr", "Getcntr"):
				if len(n.Args) > 1 {
					if obj := objectIfIdent(info, n.Args[1]); obj != nil && c.eligible[obj] && !s[obj] && reportHere {
						c.pass.Reportf(n.Pos(), "%s on counter %s which no path has armed: it is never passed to a Put/Get/Amsend/Rmw counter slot or Setcntr before this wait, so it can never complete (§2.3 three-counter discipline)", fn.Name(), obj.Name())
					}
				}
			}
		}
		return true
	})
	return s
}

func objectIfIdent(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "nil" {
		return nil
	}
	return info.ObjectOf(id)
}
