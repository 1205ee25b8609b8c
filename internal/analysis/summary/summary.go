// Package summary computes per-function resource-ownership summaries over
// the module call graph, the interprocedural layer under lapivet v3. A
// client pass describes a resource protocol as an Ops (which types are
// tracked, which calls are the base acquire/release/transfer/borrow
// operations) and gets back, for every declared function, one Effect per
// parameter:
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
// internal/analysis/callgraph with the same CFG + may-dataflow machinery
// the checking passes use; recursion is broken conservatively (an
// in-progress callee reads as Escapes).
//
// The same fixpoint-free walk also discovers transfer channels: a channel
// object (variable or struct field) on which some function sends a value
// it owns. Sends on a transfer channel consume the obligation; checking
// passes treat receives from one as fresh acquires, which is what lets
// buflifetime follow a pooled frame from the gateway's dispatcher into its
// writer goroutine.
//
// Results are memoized per module load and Ops.Name (via Pass.Shared), so
// the ~10 lapivet passes running over ~30 module packages compute each
// function's summary once, not once per analyzed package; the call graph
// itself is shared across protocols.
package summary

import (
	"go/ast"
	"go/token"
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

// Ops describes one resource protocol to the summary engine.
type Ops interface {
	// Name keys the process-wide memo; distinct protocols need distinct
	// names.
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

// Computer answers Effect and transfer-channel queries for one module
// load. Construct with New; the heavy lifting is memoized on the load's
// Shared cache.
type Computer struct {
	mem *memoEntry
}

type memoEntry struct {
	graph *callgraph.Graph
	sums  map[*types.Func]Summary
	open  map[*types.Func]bool // in-progress (call cycle)
	chans map[types.Object]bool
}

// New builds (or retrieves) the summaries for every function in the
// pass's module-package closure under the given protocol. Results live in
// the load's Shared cache under ops.Name, so analysistest loaders and the
// real module loader never mix and the memo dies with the load; the call
// graph is shared across protocols under its own key.
func New(pass *analysis.Pass, ops Ops) *Computer {
	mem := pass.Shared("summary/"+ops.Name(), func() any {
		graph := pass.Shared("callgraph", func() any {
			return callgraph.Build(pass)
		}).(*callgraph.Graph)
		mem := &memoEntry{
			graph: graph,
			sums:  make(map[*types.Func]Summary),
			open:  make(map[*types.Func]bool),
			chans: make(map[types.Object]bool),
		}
		eng := &engine{mem: mem, ops: ops}
		for _, fn := range graph.PostOrder() {
			eng.summarize(fn)
		}
		return mem
	}).(*memoEntry)
	return &Computer{mem: mem}
}

// Effect returns what fn does with its arg-th argument (0-based, receiver
// excluded). Unknown functions, out-of-range indices, and variadic
// positions all read as Escapes — the caller must stop tracking.
func (c *Computer) Effect(fn *types.Func, arg int) Effect {
	if fn == nil {
		return Escapes
	}
	sum, ok := c.mem.sums[fn]
	if !ok || arg < 0 || arg >= len(sum.Params) {
		return Escapes
	}
	return sum.Params[arg]
}

// Of returns fn's full summary.
func (c *Computer) Of(fn *types.Func) (Summary, bool) {
	s, ok := c.mem.sums[fn]
	return s, ok
}

// IsTransferChan reports whether obj (a channel variable or field) was
// observed carrying an owned resource on some send: receives from it are
// fresh acquires.
func (c *Computer) IsTransferChan(obj types.Object) bool {
	return obj != nil && c.mem.chans[obj]
}

// --- the summary dataflow -----------------------------------------------

// Per-object may-facts inside one function.
const (
	held     uint8 = 1 << iota // obligation present
	consumed                   // discharged via release/transfer
	escaped                    // flowed out of view
)

type sstate map[types.Object]uint8

type engine struct {
	mem *memoEntry
	ops Ops
}

func (e *engine) summarize(fn *types.Func) {
	if _, done := e.mem.sums[fn]; done || e.mem.open[fn] {
		return
	}
	fb, ok := e.mem.graph.Funcs[fn]
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	e.mem.open[fn] = true
	defer delete(e.mem.open, fn)

	params := make([]types.Object, sig.Params().Len())
	tracked := make([]bool, len(params))
	for i := range params {
		p := sig.Params().At(i)
		params[i] = p
		tracked[i] = e.ops.Tracks(p.Type()) && !(sig.Variadic() && i == len(params)-1)
	}

	sum := Summary{Params: make([]Effect, len(params))}
	for i := range sum.Params {
		sum.Params[i] = Escapes
	}
	anyTracked := false
	for _, t := range tracked {
		anyTracked = anyTracked || t
	}

	g := cfg.New(fb.Body)
	prob := &sproblem{eng: e, info: fb.Pkg.Info, g: g, params: params, tracked: tracked}
	res := dataflow.Solve(g, prob)
	exit, reachable := res.Out(g, g.Exit, prob)
	if anyTracked && reachable {
		for i, p := range params {
			if !tracked[i] {
				continue
			}
			m := exit[p]
			switch {
			case m&escaped != 0:
				sum.Params[i] = Escapes
			case m&held != 0 && m&consumed != 0:
				sum.Params[i] = MayConsume
			case m&consumed != 0:
				sum.Params[i] = Consumes
			default:
				sum.Params[i] = Borrows
			}
		}
	}
	e.mem.sums[fn] = sum
}

// sproblem is the per-function summary analysis: variable-identity
// may-facts for tracked parameters and acquire-bound locals. It reports
// nothing; its side effect (besides the exit state) is marking transfer
// channels on sends of held values.
type sproblem struct {
	eng     *engine
	info    *types.Info
	g       *cfg.Graph
	params  []types.Object
	tracked []bool
}

func (p *sproblem) Entry() sstate {
	s := sstate{}
	for i, obj := range p.params {
		if p.tracked[i] {
			s[obj] = held
		}
	}
	return s
}

func (p *sproblem) Clone(s sstate) sstate {
	n := make(sstate, len(s))
	for k, v := range s {
		n[k] = v
	}
	return n
}

func (p *sproblem) Merge(dst, src sstate) sstate {
	for k, v := range src {
		dst[k] |= v
	}
	return dst
}

func (p *sproblem) Equal(a, b sstate) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (p *sproblem) Transfer(n ast.Node, s sstate) sstate {
	switch n := n.(type) {
	case *ast.AssignStmt:
		p.assign(n, s)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			p.escapeExpr(r, s)
		}
	case *ast.SendStmt:
		p.send(n, s)
	case *ast.DeferStmt:
		p.deferStmt(n, s)
	case *ast.GoStmt:
		p.escapeIdents(n, s)
	case *ast.ExprStmt:
		p.use(n.X, s)
	case *ast.IncDecStmt:
		p.use(n.X, s)
	case *ast.DeclStmt:
		ast.Inspect(n, func(m ast.Node) bool {
			if vs, ok := m.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					p.escapeExpr(v, s)
				}
				return false
			}
			return true
		})
	default:
		if e, ok := n.(ast.Expr); ok {
			p.use(e, s)
		}
	}
	return s
}

func (p *sproblem) assign(a *ast.AssignStmt, s sstate) {
	paired := len(a.Lhs) == len(a.Rhs)
	if len(a.Rhs) == 0 {
		// Synthesized range binding: the key is rebound each iteration.
		// Receives are not modeled at the summary level, so the bound
		// variable is simply untracked; a rebound tracked parameter loses
		// its identity (escape, conservatively).
		for _, lhs := range a.Lhs {
			if obj := analysis.IdentObject(p.info, lhs); obj != nil {
				p.retire(obj, s)
			}
		}
		return
	}
	for i, lhs := range a.Lhs {
		var rhs ast.Expr
		if paired {
			rhs = a.Rhs[i]
		}
		obj := analysis.IdentObject(p.info, lhs)
		if obj == nil {
			// Store into a field, index, or deref: the rhs flows out.
			p.use(lhs, s)
			if rhs != nil {
				p.escapeExpr(rhs, s)
			}
			continue
		}
		if rhs == nil {
			continue // handled below for the unpaired rhs
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if kind, _ := p.eng.ops.Classify(p.info, call); kind == OpAcquire {
				for _, arg := range call.Args {
					p.use(arg, s)
				}
				// Rebinding from an acquire keeps the variable's obligation
				// (the nil-guard idiom `if b == nil { b = alloc() }`); a
				// parameter that was held stays held.
				s[obj] |= held
				continue
			}
		}
		if analysis.Mentions(p.info, rhs, obj) {
			// b = b[:n], b = append(b, ...): same allocation, same facts.
			p.use(rhs, s)
			continue
		}
		if base := analysis.BaseObject(p.info, rhs); base != nil && s[base] != 0 {
			// data := frame[k:]: an alias borrow — the base keeps the
			// obligation, the new name is untracked.
			p.retire(obj, s)
			continue
		}
		p.escapeExpr(rhs, s)
		p.retire(obj, s)
	}
	if !paired {
		for _, rhs := range a.Rhs {
			p.escapeExpr(rhs, s)
		}
	}
}

// retire ends tracking of obj under a rebind: a parameter's original value
// is now unreachable (escape, so the caller cannot trust any effect); a
// local simply stops being tracked.
func (p *sproblem) retire(obj types.Object, s sstate) {
	if p.isParam(obj) {
		s[obj] |= escaped
	} else {
		delete(s, obj)
	}
}

func (p *sproblem) isParam(obj types.Object) bool {
	for _, q := range p.params {
		if q == obj {
			return true
		}
	}
	return false
}

func (p *sproblem) send(n *ast.SendStmt, s sstate) {
	p.use(n.Chan, s)
	obj := analysis.IdentObject(p.info, n.Value)
	if obj != nil && s[obj]&held != 0 {
		// Sending an owned resource transfers the obligation to the
		// receiving loop — and marks the channel as a transfer point.
		s[obj] = (s[obj] &^ held) | consumed
		if ch := analysis.ObjectOf(p.info, n.Chan); ch != nil {
			p.eng.mem.chans[ch] = true
		}
		return
	}
	p.escapeExpr(n.Value, s)
}

// deferStmt handles `defer f(b)`. The deferred CallExpr reappears in the
// exit block (cfg replays defers), so when every tracked value mentioned
// is a plain argument the facts stay live and the replay applies the
// consume; anything fancier escapes, as in the checking passes.
func (p *sproblem) deferStmt(n *ast.DeferStmt, s sstate) {
	args := map[types.Object]bool{}
	for _, a := range n.Call.Args {
		if obj := analysis.IdentObject(p.info, a); obj != nil {
			args[obj] = true
		}
	}
	safe := true
	ast.Inspect(n.Call, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := p.info.ObjectOf(id); obj != nil && s[obj] != 0 && !args[obj] {
				safe = false
			}
		}
		return safe
	})
	if !safe {
		p.escapeIdents(n, s)
	}
}

func (p *sproblem) use(e ast.Expr, s sstate) {
	if e == nil {
		return
	}
	skip := map[ast.Node]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil || skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			p.escapeIdents(n, s)
			return false
		case *ast.CallExpr:
			p.call(n, s, skip)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				p.escapeExpr(n.X, s)
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				p.escapeExpr(elt, s)
			}
			return false
		}
		return true
	})
}

func (p *sproblem) call(call *ast.CallExpr, s sstate, skip map[ast.Node]bool) {
	// Builtins copy or measure (append retains its element arguments).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && call.Ellipsis == token.NoPos {
				for i, arg := range call.Args {
					if i > 0 {
						p.escapeExpr(arg, s)
						skip[arg] = true
					}
				}
			}
			return
		}
	}
	if tv, ok := p.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion borrows
	}
	kind, argIdx := p.eng.ops.Classify(p.info, call)
	switch kind {
	case OpAcquire, OpBorrow:
		return
	case OpRelease, OpTransfer:
		if argIdx < len(call.Args) {
			arg := call.Args[argIdx]
			skip[arg] = true
			if obj := analysis.IdentObject(p.info, arg); obj != nil && s[obj] != 0 {
				s[obj] = (s[obj] &^ held) | consumed
			}
		}
		return
	}
	// Not a base operation: consult the callee's summary argument by
	// argument. Unknown callees and in-progress (recursive) callees
	// escape every tracked argument.
	callee := analysis.Callee(p.info, call)
	var sig *types.Signature
	if callee != nil {
		p.eng.summarize(callee)
		sig, _ = callee.Type().(*types.Signature)
	}
	sum, known := Summary{}, false
	if callee != nil {
		sum, known = p.eng.mem.sums[callee]
	}
	for i, arg := range call.Args {
		obj := analysis.IdentObject(p.info, arg)
		if obj == nil || s[obj] == 0 {
			continue
		}
		skip[arg] = true
		eff := Escapes
		if known && sig != nil && i < len(sum.Params) && !(sig.Variadic() && i >= sig.Params().Len()-1) {
			eff = sum.Params[i]
		}
		switch eff {
		case Borrows:
			// obligation stays put
		case Consumes:
			s[obj] = (s[obj] &^ held) | consumed
		default:
			s[obj] |= escaped
		}
	}
}

func (p *sproblem) escapeExpr(e ast.Expr, s sstate) {
	if e == nil {
		return
	}
	if obj := analysis.IdentObject(p.info, e); obj != nil {
		if s[obj] != 0 {
			s[obj] |= escaped
		}
		return
	}
	if x, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		p.escapeExpr(x.X, s)
		return
	}
	p.use(e, s)
}

func (p *sproblem) escapeIdents(n ast.Node, s sstate) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := p.info.ObjectOf(id); obj != nil && s[obj] != 0 {
				s[obj] |= escaped
			}
		}
		return true
	})
}
