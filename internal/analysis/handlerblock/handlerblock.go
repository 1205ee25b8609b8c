// Package handlerblock statically enforces the paper's §5.3.1 invariant:
// a LAPI header handler runs inline in the dispatcher and must not block.
// The runtime backstop (Task.requireBlockingAllowed) panics only when a bad
// handler actually executes; this pass promotes the check to lint time.
//
// The pass finds every function that flows into a lapi.HeaderHandler value
// (RegisterHandler arguments, conversions, assignments, composite-literal
// fields) and walks its static call graph — across package boundaries, over
// every package in the module — looking for the blocking LAPI entry points
// (Waitcntr, Fence, Gfence, Barrier, ExchangeWord, AddressInit and the *Sync
// wrappers) and for the underlying primitive exec.Context.Wait.
//
// Code that runs after the handler returns is exempt
// (analysis.OutlivesDispatch): the returned completion handler (which may
// block, §2.1 step 4), callbacks handed to exec.Runtime.Go/After, and go
// statements, arguments included. The walk is analysis.Search.
package handlerblock

import (
	"go/ast"
	"go/token"

	"golapi/internal/analysis"
)

// Analyzer is the handlerblock pass.
var Analyzer = &analysis.Analyzer{
	Name: "handlerblock",
	Doc:  "report blocking LAPI calls reachable from a header handler body",
	Run:  run,
}

// blockingTaskMethods are the lapi.Task entry points that may suspend the
// calling activity.
var blockingTaskMethods = []string{
	"Waitcntr", "Fence", "Gfence", "Barrier", "ExchangeWord", "AddressInit",
	"PutSync", "GetSync", "RmwSync", "AmsendSync",
}

func run(pass *analysis.Pass) error {
	roots := pass.HeaderHandlers()
	if len(roots) == 0 {
		return nil // no header handler in the package: nothing to enforce
	}
	ch := pass.NamedType(analysis.LapiPath, "CompletionHandler")
	s := pass.NewSearch(blockingCall, func(body *ast.BlockStmt, pkg *analysis.Package) map[ast.Node]bool {
		return analysis.OutlivesDispatch(pkg.Info, ch, body)
	})
	for _, root := range roots {
		s.Check(root, func(pos token.Pos, p analysis.Path) {
			pass.Reportf(pos, "header handler must not block: reaches %s%s (header handlers run inline in the dispatcher, §5.3.1; move blocking work to the completion handler)", p.What, p.Via())
		})
	}
	return nil
}

// blockingCall reports n when it calls one of the blocking entry points.
func blockingCall(n ast.Node, pkg *analysis.Package, hit func(token.Pos, string)) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.Callee(pkg.Info, call)
	if analysis.IsMethodOf(fn, analysis.LapiPath, "Task", blockingTaskMethods...) {
		hit(call.Pos(), "(*Task)."+fn.Name())
	} else if analysis.IsMethodOf(fn, analysis.ExecPath, "Context", "Wait") {
		hit(call.Pos(), "exec.Context.Wait")
	} else {
		return false
	}
	return true
}
