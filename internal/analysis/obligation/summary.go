// Summary mode: per-function resource-ownership summaries over the module
// call graph, the interprocedural layer under the checking passes. For
// every declared function the engine records one Effect per parameter:
//
//	Borrows     the function reads or writes the resource but leaves the
//	            caller's obligation in place on every path
//	Consumes    every (non-panicking) path releases, recycles, or hands
//	            the resource to another owner — the caller's obligation is
//	            discharged at the call
//	MayConsume  consumed on some paths, still held on others — the caller
//	            cannot know; treated like an escape
//	Escapes     stored, captured, returned, or passed somewhere the
//	            analysis cannot follow; the caller stops tracking
//
// The lattice is ordered by how much the caller may conclude (Borrows and
// Consumes are the informative points; MayConsume and Escapes force the
// caller to drop the fact). Summaries are computed callee-first over
// internal/analysis/callgraph by the checker itself, run with its tracked
// parameters entering held and reporting off; recursion is broken
// conservatively (an in-progress callee reads as Escapes).
//
// The same walk discovers transfer channels: a channel object (variable or
// struct field) on which some function sends a value it holds. Sends on a
// transfer channel consume the obligation; the checking passes treat
// receives from one as fresh acquires, which is what lets buflifetime
// follow a pooled frame from the gateway's dispatcher into its writer
// goroutine.
//
// Results are memoized per module load and Ops.Name (via Pass.Shared), so
// the passes running over every module package compute each function's
// summary once, not once per analyzed package; the call graph itself is
// shared across protocols.

package obligation

import (
	"go/ast"
	"go/types"

	"golapi/internal/analysis"
	"golapi/internal/analysis/callgraph"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
)

// Effect is what a callee does with one tracked parameter.
type Effect int

const (
	Borrows Effect = iota
	Consumes
	MayConsume
	Escapes
)

func (e Effect) String() string {
	switch e {
	case Borrows:
		return "borrows"
	case Consumes:
		return "consumes"
	case MayConsume:
		return "may-consume"
	default:
		return "escapes"
	}
}

// Kind classifies one call site against the resource protocol.
type Kind int

const (
	// OpNone: not a base operation; consult the callee's summary.
	OpNone Kind = iota
	// OpAcquire: the call returns a freshly owned resource.
	OpAcquire
	// OpRelease: the call recycles the resource argument (pool put).
	OpRelease
	// OpTransfer: the call hands the resource argument to another owner
	// (transport send, PostArg to another goroutine).
	OpTransfer
	// OpBorrow: the call reads or fills the argument; obligation stays.
	OpBorrow
)

// Ops describes one resource protocol to the engine.
type Ops interface {
	// Name keys the per-load memo; distinct protocols need distinct names.
	Name() string
	// Tracks reports whether values of type t carry an ownership
	// obligation.
	Tracks(t types.Type) bool
	// Classify resolves call (in the package whose type info is info) to a
	// base operation. The int is the index in call.Args of the resource
	// argument for OpRelease/OpTransfer; ignored otherwise.
	Classify(info *types.Info, call *ast.CallExpr) (Kind, int)
}

// Summary is one function's per-parameter effects. Parameters are indexed
// by signature position (the receiver is not included); parameters of
// untracked types read as Escapes.
type Summary struct {
	Params []Effect
}

// Computer answers Effect and transfer-channel queries for one module load
// and protocol. Construct with New.
type Computer struct {
	ops   Ops
	graph *callgraph.Graph
	sums  map[*types.Func]Summary
	open  map[*types.Func]bool // in progress (call cycle)
	chans map[types.Object]bool
}

// New builds (or retrieves) the summaries for every function in the pass's
// module-package closure under the given protocol. Results live in the
// load's Shared cache under ops.Name, so analysistest loaders and the real
// module loader never mix and the memo dies with the load.
func New(pass *analysis.Pass, ops Ops) *Computer {
	return pass.Shared("summary/"+ops.Name(), func() any {
		c := &Computer{
			ops:   ops,
			graph: callgraph.Get(pass),
			sums:  make(map[*types.Func]Summary),
			open:  make(map[*types.Func]bool),
			chans: make(map[types.Object]bool),
		}
		for _, fn := range c.graph.PostOrder() {
			c.summarize(fn)
		}
		return c
	}).(*Computer)
}

// Effect returns what fn does with its arg-th argument (0-based, receiver
// excluded). Unknown functions, out-of-range indices, and variadic
// positions all read as Escapes — the caller must stop tracking.
func (c *Computer) Effect(fn *types.Func, arg int) Effect {
	sum, ok := c.sums[fn]
	if !ok || arg < 0 || arg >= len(sum.Params) {
		return Escapes
	}
	return sum.Params[arg]
}

// Of returns fn's full summary.
func (c *Computer) Of(fn *types.Func) (Summary, bool) {
	s, ok := c.sums[fn]
	return s, ok
}

// IsTransferChan reports whether obj (a channel variable or field) was
// observed carrying an owned resource on some send: receives from it are
// fresh acquires.
func (c *Computer) IsTransferChan(obj types.Object) bool {
	return obj != nil && c.chans[obj]
}

// summarize runs the checker in summary mode over fn's body and maps each
// tracked parameter's exit facts to its Effect. A callee met before its
// turn in post-order is summarized on demand; one already in progress
// stays absent and reads as Escapes.
func (c *Computer) summarize(fn *types.Func) {
	if _, done := c.sums[fn]; done || c.open[fn] {
		return
	}
	fb, ok := c.graph.Funcs[fn]
	if !ok {
		return
	}
	c.open[fn] = true
	defer delete(c.open, fn)

	sig := fn.Type().(*types.Signature)
	ck := &checker{
		comp:        c,
		info:        fb.Pkg.Info,
		p:           &Protocol{},
		g:           cfg.New(fb.Body),
		params:      trackedParams(c.ops, sig),
		summarizing: true,
	}
	sum := Summary{Params: make([]Effect, sig.Params().Len())}
	exit, reachable := dataflow.Solve(ck.g, ck).Out(ck.g, ck.g.Exit, ck)
	for i := range sum.Params {
		sum.Params[i] = Escapes
		if p := sig.Params().At(i); reachable && ck.params[p] {
			sum.Params[i] = effectAt(exit, p)
		}
	}
	c.sums[fn] = sum
}

// effectAt reads a parameter's Effect off the function's exit facts.
func effectAt(exit state, obj types.Object) Effect {
	var kept, gone bool
	for f := range exit {
		if f.obj != obj {
			continue
		}
		switch f.st {
		case escaped:
			return Escapes
		case held:
			kept = true
		case discharged:
			gone = true
		}
	}
	switch {
	case kept && gone:
		return MayConsume
	case gone:
		return Consumes
	case kept:
		return Borrows
	}
	return Escapes
}

// trackedParams returns sig's parameters of a tracked type, leaving out a
// variadic one (its arguments are not bound one-to-one).
func trackedParams(ops Ops, sig *types.Signature) map[types.Object]bool {
	params := map[types.Object]bool{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if ops.Tracks(p.Type()) && !(sig.Variadic() && i == sig.Params().Len()-1) {
			params[p] = true
		}
	}
	return params
}
