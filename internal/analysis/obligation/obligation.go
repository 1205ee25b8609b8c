// Package obligation is the flow-sensitive engine behind the lapivet
// ownership passes (buflifetime, creditflow): a resource acquired from a
// pool must, on every path, be discharged exactly once — released back to
// the pool, or handed to another owner — and must not be touched once it
// is discharged. A pass supplies only its Protocol: the summary.Ops that
// classify acquire/release/transfer calls, its own rules, and its message
// texts; the engine owns the lattice, the transfer function and the
// interprocedural machinery.
//
// Each function body is lowered to a CFG (internal/analysis/cfg) and a
// may-analysis runs to a fixpoint (internal/analysis/dataflow). The
// abstract state maps each tracked object to a may-set of {held,
// discharged} facts, merged by union at joins. The full pass is
// interprocedural and channel-aware, backed by internal/analysis/summary:
//
//   - a call to a module function consults the callee's per-parameter
//     summary — a Borrows callee leaves the obligation in place, a Consumes
//     callee discharges it;
//   - a send on a transfer channel (one that carries owned resources
//     somewhere in the module) discharges the obligation; a receive from
//     one — plain, two-valued, select comm, or `for v := range ch` — is a
//     fresh acquire.
//
// The intraprocedural baseline drops both layers: every call the base
// protocol does not classify is an escape, channels are plain values, and
// parameters are untracked. Tests use it to prove which findings need the
// summaries and transfer channels.
//
// Reports: a discharge (release, transfer, consuming call, channel send)
// of a resource already discharged on some path; any use of one; a
// resource still held on some path into the function exit (at its
// acquire); with Protocol.Params, a parameter discharged on some paths but
// held on others. Ownership ends silently when the resource escapes the
// engine's view: returned, stored into a non-local, captured by a function
// literal or goroutine, or passed to a call with no informative summary.
// Builtins and conversions only read their operands (append keeps its
// element arguments), reslicing into a new name (data := frame[k:]) is an
// alias borrow, and rebinding a name through itself (b = b[:n]) keeps the
// obligation on the name.
package obligation

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
	"golapi/internal/analysis/summary"
)

// A Protocol is one ownership pass's contribution to the engine.
type Protocol struct {
	// Ops returns the package's resource protocol, or nil when there is
	// nothing to track.
	Ops func(*analysis.Pass) summary.Ops
	// Exempt, when set, names functions whose bodies are not checked (the
	// pool internals the protocol abstracts over).
	Exempt func(ops summary.Ops, fn *types.Func) bool
	// Params makes tracked parameters enter the function held (in the full
	// pass only) and reports one that is discharged on some paths to the
	// exit but held on others; one held everywhere is borrowed.
	Params bool
	// ReleaseVerb and TransferVerb name the discharge of a base
	// OpRelease/OpTransfer call in messages; empty means the callee's name
	// followed by "()".
	ReleaseVerb, TransferVerb string
	// Clause phrases a prior discharge (its verb and line) for messages.
	Clause func(verb string, line int) string

	// Message formats. The first argument is always the resource's name.
	UseAfter, WriteAfter, SendAfter string // + Clause
	ReleaseAfter, TransferAfter     string // + verb, Clause
	ConsumeAfter                    string // + callee name, Clause
	Leak, Mixed                     string // nothing more
	// ReleaseTwice, when set, replaces ReleaseAfter for a release after a
	// release: + the earlier release's line.
	ReleaseTwice string
	// Realloc, when set, reports re-acquiring into a name whose earlier
	// acquire is still held: + that acquire's line.
	Realloc string
}

// Analyzers returns the pass p drives (summary-backed, channel-aware)
// and its intraprocedural baseline, named name+"-intra".
func Analyzers(p *Protocol, name, doc, intraDoc string) (full, intra *analysis.Analyzer) {
	run := func(interproc bool) func(*analysis.Pass) error {
		return func(pass *analysis.Pass) error {
			ops := p.Ops(pass)
			if ops == nil {
				return nil
			}
			r := &runner{pass: pass, p: p, ops: ops}
			if interproc {
				r.comp = summary.New(pass, ops)
			}
			r.run()
			return nil
		}
	}
	return &analysis.Analyzer{Name: name, Doc: doc, Run: run(true)},
		&analysis.Analyzer{Name: name + "-intra", Doc: intraDoc, Run: run(false)}
}

type runner struct {
	pass *analysis.Pass
	p    *Protocol
	ops  summary.Ops
	comp *summary.Computer // nil in the intraprocedural baseline
}

func (r *runner) run() {
	info := r.pass.Pkg.Info
	for _, f := range r.pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn, _ := info.Defs[n.Name].(*types.Func)
				if n.Body != nil && (r.p.Exempt == nil || !r.p.Exempt(r.ops, fn)) {
					r.check(n.Type, n.Body)
				}
			case *ast.FuncLit:
				r.check(n.Type, n.Body)
			}
			return true
		})
	}
}

func (r *runner) check(ft *ast.FuncType, body *ast.BlockStmt) {
	c := &checker{r: r, g: cfg.New(body), params: map[types.Object]bool{}}
	if r.p.Params {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := r.pass.Pkg.Info.Defs[name]; obj != nil && r.ops.Tracks(obj.Type()) {
					c.params[obj] = true
				}
			}
		}
	}
	res := dataflow.Solve(c.g, c)
	// Capture the exit state before reporting is on: Out replays the exit
	// block (deferred calls), which Walk will also do.
	exit, reachable := res.Out(c.g, c.g.Exit, c)
	c.report = true
	res.Walk(c.g, c)
	if reachable {
		c.reportExit(exit)
	}
}

// chanVerb is how a channel send discharges a resource.
const chanVerb = "the channel send"

// fact is one possible status of a tracked object: held (pos = the
// acquire site, or the parameter) or discharged (pos = the discharge
// site, verb = how).
type fact struct {
	obj      types.Object
	released bool
	verb     string
	pos      token.Pos
}

// state is the may-set of facts; an object both held and discharged here
// is held on one path and discharged on another.
type state map[fact]bool

type checker struct {
	r      *runner
	g      *cfg.Graph
	params map[types.Object]bool
	report bool
}

func (c *checker) Entry() state {
	s := state{}
	if c.r.comp != nil {
		// The parameter contract only means something when callers read it
		// through summaries.
		for obj := range c.params {
			s[fact{obj: obj, pos: obj.Pos()}] = true
		}
	}
	return s
}

func (c *checker) Clone(s state) state {
	n := make(state, len(s))
	for f := range s {
		n[f] = true
	}
	return n
}

func (c *checker) Merge(dst, src state) state {
	for f := range src {
		dst[f] = true
	}
	return dst
}

func (c *checker) Equal(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if !b[f] {
			return false
		}
	}
	return true
}

// Transfer applies one CFG leaf node.
func (c *checker) Transfer(n ast.Node, s state) state {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.assign(n, s)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			c.escapeExpr(res, s)
		}
	case *ast.SendStmt:
		c.send(n, s)
	case *ast.DeferStmt, *ast.GoStmt:
		// Registration runs the call at an unknown distance; stop tracking
		// everything mentioned (a deferred release replayed in the exit
		// block then applies to an untracked object).
		c.escapeIdents(n, s)
	case *ast.ExprStmt:
		c.use(n.X, s)
	case *ast.IncDecStmt:
		c.use(n.X, s)
	case *ast.DeclStmt:
		ast.Inspect(n, func(m ast.Node) bool {
			if vs, ok := m.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					c.escapeExpr(v, s)
				}
				return false
			}
			return true
		})
	default:
		if e, ok := n.(ast.Expr); ok {
			c.use(e, s)
		}
	}
	return s
}

// send handles `ch <- v`: in the full pass a tracked value sent on any
// channel is handed to the receiver, which discharges it; the baseline
// treats it as an escape.
func (c *checker) send(n *ast.SendStmt, s state) {
	c.use(n.Chan, s)
	if c.r.comp != nil {
		if obj := c.ident(n.Value); obj != nil && hasFacts(s, obj) {
			if rel, ok := releasedFact(s, obj); ok {
				c.reportf(n.Pos(), c.r.p.SendAfter, obj.Name(), c.clause(rel))
			}
			dropFacts(s, obj)
			s[fact{obj: obj, released: true, verb: chanVerb, pos: n.Pos()}] = true
			return
		}
	}
	c.escapeExpr(n.Value, s)
}

// acquire starts tracking obj as held from pos.
func (c *checker) acquire(obj types.Object, pos token.Pos, s state) {
	dropFacts(s, obj)
	s[fact{obj: obj, pos: pos}] = true
}

// receiving reports whether ch is a transfer channel, whose receives
// acquire (full pass only).
func (c *checker) receiving(ch ast.Expr) bool {
	return c.r.comp != nil && c.r.comp.IsTransferChan(analysis.ObjectOf(c.r.pass.Pkg.Info, ch))
}

// assign handles acquire bindings, receives, rebindings, alias borrows,
// and stores.
func (c *checker) assign(a *ast.AssignStmt, s state) {
	info := c.r.pass.Pkg.Info
	if len(a.Rhs) == 0 {
		// Synthesized range binding: each iteration over a transfer channel
		// acquires a fresh resource.
		if x, ok := c.g.RangeBind[a]; ok && len(a.Lhs) > 0 && c.receiving(x) {
			if obj := c.ident(a.Lhs[0]); obj != nil && c.r.ops.Tracks(obj.Type()) {
				c.acquire(obj, a.Pos(), s)
				return
			}
		}
		for _, lhs := range a.Lhs {
			if obj := c.ident(lhs); obj != nil {
				dropFacts(s, obj)
			}
		}
		return
	}
	// Receives: v := <-ch / v, ok := <-ch.
	if len(a.Rhs) == 1 {
		if ue, ok := ast.Unparen(a.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			for i, lhs := range a.Lhs {
				if obj := c.ident(lhs); obj != nil {
					dropFacts(s, obj)
					if i == 0 && c.r.ops.Tracks(obj.Type()) && c.receiving(ue.X) {
						c.acquire(obj, a.Pos(), s)
					}
				}
			}
			return
		}
	}
	paired := len(a.Lhs) == len(a.Rhs)
	for i, lhs := range a.Lhs {
		var rhs ast.Expr
		if paired {
			rhs = a.Rhs[i]
		}
		obj := c.ident(lhs)
		if obj == nil {
			// Element, field or deref store: writing into a discharged
			// resource is reported; the stored value flows out of view.
			base := sliceBase(info, lhs)
			if rel, ok := releasedFact(s, base); ok {
				c.reportf(a.Pos(), c.r.p.WriteAfter, base.Name(), c.clause(rel))
			} else {
				c.use(lhs, s)
			}
			c.escapeExpr(rhs, s)
			continue
		}
		if rhs != nil {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if kind, _ := c.r.ops.Classify(info, call); kind == summary.OpAcquire {
					for _, arg := range call.Args {
						c.use(arg, s)
					}
					if prev, held := heldFact(s, obj); held && c.r.p.Realloc != "" {
						c.reportf(a.Pos(), c.r.p.Realloc, obj.Name(), c.line(prev.pos))
					}
					c.acquire(obj, call.Pos(), s)
					continue
				}
			}
			// Rebinding through the same resource (b = b[:n], b =
			// append(b, x)) keeps the obligation on the name.
			if analysis.Mentions(info, rhs, obj) {
				c.use(rhs, s)
				continue
			}
			// Alias borrow: data := frame[k:] is a window into the
			// allocation; the base keeps the obligation.
			if base := sliceBase(info, rhs); base != nil && hasFacts(s, base) {
				c.use(rhs, s)
				dropFacts(s, obj)
				continue
			}
			c.escapeExpr(rhs, s)
		}
		dropFacts(s, obj)
	}
	if !paired {
		for _, rhs := range a.Rhs {
			c.escapeExpr(rhs, s)
		}
	}
}

// use walks an expression: calls are classified, reads of discharged
// resources are reported, and tracked resources that flow somewhere the
// engine cannot see stop being tracked.
func (c *checker) use(e ast.Expr, s state) {
	if e == nil {
		return
	}
	info := c.r.pass.Pkg.Info
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.escapeIdents(n, s)
			return false
		case *ast.CallExpr:
			c.call(n, s)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				c.escapeExpr(n.X, s)
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				c.escapeExpr(elt, s)
			}
			return false
		case *ast.Ident:
			if obj := info.ObjectOf(n); obj != nil {
				if rel, ok := releasedFact(s, obj); ok {
					c.reportf(n.Pos(), c.r.p.UseAfter, obj.Name(), c.clause(rel))
				}
			}
		}
		return true
	})
}

// call applies one call. Discharges are collected and applied after every
// argument has been scanned: Go evaluates all arguments before the call
// runs, so `respond(req, uint64(req.prev))` reads req.prev strictly before
// respond recycles req.
func (c *checker) call(call *ast.CallExpr, s state) {
	info := c.r.pass.Pkg.Info
	p := c.r.p
	c.use(call.Fun, s)
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			for i, arg := range call.Args {
				if b.Name() == "append" && call.Ellipsis == token.NoPos && i > 0 {
					c.escapeExpr(arg, s) // the slice keeps the element
				} else {
					c.use(arg, s)
				}
			}
			return
		}
	}
	kind, argIdx := c.r.ops.Classify(info, call)
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		kind = summary.OpBorrow // conversion
	}
	var done []fact
	switch kind {
	case summary.OpRelease, summary.OpTransfer:
		verb, msg := p.ReleaseVerb, p.ReleaseAfter
		if kind == summary.OpTransfer {
			verb, msg = p.TransferVerb, p.TransferAfter
		}
		if fn := analysis.Callee(info, call); verb == "" && fn != nil {
			verb = fn.Name() + "()"
		}
		for i, arg := range call.Args {
			obj := c.ident(arg)
			if i != argIdx || obj == nil {
				c.use(arg, s)
				continue
			}
			if rel, ok := releasedFact(s, obj); ok {
				if kind == summary.OpRelease && rel.verb == verb && p.ReleaseTwice != "" {
					c.reportf(call.Pos(), p.ReleaseTwice, obj.Name(), c.line(rel.pos))
				} else {
					c.reportf(call.Pos(), msg, obj.Name(), verb, c.clause(rel))
				}
			}
			done = append(done, fact{obj: obj, released: true, verb: verb, pos: call.Pos()})
		}
	case summary.OpNone:
		var callee *types.Func
		var sig *types.Signature
		if c.r.comp != nil {
			if callee = analysis.Callee(info, call); callee != nil {
				sig, _ = callee.Type().(*types.Signature)
			}
		}
		for i, arg := range call.Args {
			obj := c.ident(arg)
			if obj == nil || !hasFacts(s, obj) {
				c.escapeExpr(arg, s)
				continue
			}
			eff := summary.Escapes
			if sig != nil && !(sig.Variadic() && i >= sig.Params().Len()-1) {
				eff = c.r.comp.Effect(callee, i)
			}
			switch eff {
			case summary.Borrows:
				c.use(arg, s)
			case summary.Consumes:
				if rel, ok := releasedFact(s, obj); ok {
					c.reportf(call.Pos(), p.ConsumeAfter, obj.Name(), callee.Name(), c.clause(rel))
				}
				done = append(done, fact{obj: obj, released: true, verb: callee.Name() + "()", pos: call.Pos()})
			default:
				c.escapeExpr(arg, s)
			}
		}
	default:
		// Acquire with its result unbound (the binding form is handled in
		// assign), borrow, conversion: the arguments are only read.
		for _, arg := range call.Args {
			c.use(arg, s)
		}
	}
	for _, f := range done {
		dropFacts(s, f.obj)
		s[f] = true
	}
}

// escapeExpr handles a value flowing out of the engine's view: a
// discharged resource is reported, a held one silently stops being
// tracked. Slicing before the escape still aliases the allocation.
func (c *checker) escapeExpr(e ast.Expr, s state) {
	if obj := c.ident(e); obj != nil {
		if rel, ok := releasedFact(s, obj); ok {
			c.reportf(e.Pos(), c.r.p.UseAfter, obj.Name(), c.clause(rel))
		}
		dropFacts(s, obj)
		return
	}
	if x, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		c.escapeExpr(x.X, s)
		for _, i := range []ast.Expr{x.Low, x.High, x.Max} {
			c.use(i, s)
		}
		return
	}
	c.use(e, s)
}

// escapeIdents retires every tracked object mentioned under n (captures
// by literals, defer/go registrations).
func (c *checker) escapeIdents(n ast.Node, s state) {
	info := c.r.pass.Pkg.Info
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				dropFacts(s, obj)
			}
		}
		return true
	})
}

// reportExit reports, at each acquire site, resources still held when the
// function exits on some path. A parameter held on every path is
// borrowed — the caller keeps it — so it is reported only when some other
// path discharges it.
func (c *checker) reportExit(exit state) {
	var held []fact
	released := map[types.Object]bool{}
	for f := range exit {
		if f.released {
			released[f.obj] = true
		} else {
			held = append(held, f)
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i].pos < held[j].pos })
	for _, f := range held {
		switch {
		case !c.params[f.obj]:
			c.reportf(f.pos, c.r.p.Leak, f.obj.Name())
		case released[f.obj]:
			c.reportf(f.pos, c.r.p.Mixed, f.obj.Name())
		}
	}
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.report {
		c.r.pass.Reportf(pos, format, args...)
	}
}

func (c *checker) line(pos token.Pos) int {
	return c.r.pass.Fset.Position(pos).Line
}

func (c *checker) clause(f fact) string {
	return c.r.p.Clause(f.verb, c.line(f.pos))
}

func (c *checker) ident(e ast.Expr) types.Object {
	return analysis.IdentObject(c.r.pass.Pkg.Info, e)
}

// sliceBase returns the object of the identifier under e when e is a
// (possibly nested) slice or index expression, else nil.
func sliceBase(info *types.Info, e ast.Expr) types.Object {
	switch ast.Unparen(e).(type) {
	case *ast.IndexExpr, *ast.SliceExpr:
		return analysis.BaseObject(info, e)
	}
	return nil
}

// --- state helpers -------------------------------------------------------

// heldFact and releasedFact return obj's earliest held/discharged fact.
func heldFact(s state, obj types.Object) (fact, bool)     { return earliest(s, obj, false) }
func releasedFact(s state, obj types.Object) (fact, bool) { return earliest(s, obj, true) }

func earliest(s state, obj types.Object, released bool) (fact, bool) {
	var best fact
	found := false
	for f := range s {
		if f.obj == obj && f.released == released && (!found || f.pos < best.pos) {
			best, found = f, true
		}
	}
	return best, found
}

func hasFacts(s state, obj types.Object) bool {
	for f := range s {
		if f.obj == obj {
			return true
		}
	}
	return false
}

func dropFacts(s state, obj types.Object) {
	for f := range s {
		if f.obj == obj {
			delete(s, f)
		}
	}
}
