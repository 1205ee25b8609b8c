// Package obligation is the flow-sensitive engine behind the lapivet
// ownership passes (buflifetime, creditflow): a resource acquired from a
// pool must, on every path, be discharged exactly once — released back to
// the pool, or handed to another owner — and must not be touched once it
// is discharged. A pass supplies only its Protocol: the Ops that classify
// acquire/release/transfer calls, its own rules, and its message texts;
// the engine owns the lattice, the transfer function and the
// interprocedural machinery.
//
// Each function body is lowered to a CFG (internal/analysis/cfg) and a
// may-analysis runs to a fixpoint (internal/analysis/dataflow). The
// abstract state is a may-set of {held, discharged} facts per tracked
// object, merged by union at joins. One checker runs in two modes:
//
//   - summary mode (summary.go) walks every module function callee-first,
//     its tracked parameters entering held and reporting off, and reads
//     each parameter's exit facts as an Effect (Borrows, Consumes,
//     MayConsume, Escapes); a send of a held value marks its channel as a
//     transfer channel;
//   - check mode runs a pass over one package's bodies on top of those
//     summaries: a call to a module function consults the callee's
//     per-parameter summary — a Borrows callee leaves the obligation in
//     place, a Consumes callee discharges it — and a receive from a
//     transfer channel — plain, two-valued, select comm, or `for v :=
//     range ch` — is a fresh acquire.
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
// alias borrow, rebinding a name through itself (b = b[:n]) keeps the
// obligation on the name, and a deferred call whose tracked operands are
// plain arguments applies where cfg replays it, at the exit.
package obligation

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
)

// A Protocol is one ownership pass's contribution to the engine.
type Protocol struct {
	// Ops returns the package's resource protocol, or nil when there is
	// nothing to track.
	Ops func(*analysis.Pass) Ops
	// Exempt, when set, names functions whose bodies are not checked (the
	// pool internals the protocol abstracts over).
	Exempt func(ops Ops, fn *types.Func) bool
	// Params makes tracked parameters enter the function held and reports
	// one that is discharged on some paths to the exit but held on others;
	// one held everywhere is borrowed.
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

// Analyzer returns the pass p drives.
func Analyzer(p *Protocol, name, doc string) *analysis.Analyzer {
	return &analysis.Analyzer{Name: name, Doc: doc, Run: func(pass *analysis.Pass) error {
		ops := p.Ops(pass)
		if ops == nil {
			return nil
		}
		comp := New(pass, ops)
		pass.Bodies(func(fn *types.Func, sig *types.Signature, body *ast.BlockStmt) {
			if sig != nil && (fn == nil || p.Exempt == nil || !p.Exempt(ops, fn)) {
				check(pass, p, comp, sig, body)
			}
		})
		return nil
	}}
}

// check runs p over one function body in check mode.
func check(pass *analysis.Pass, p *Protocol, comp *Computer, sig *types.Signature, body *ast.BlockStmt) {
	c := &checker{pass: pass, p: p, comp: comp, info: pass.Pkg.Info, g: cfg.New(body)}
	if p.Params {
		c.params = trackedParams(comp.ops, sig)
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

// status is what one fact says about a tracked object.
type status uint8

const (
	// held: the obligation is present (pos = the acquire site, or the
	// parameter).
	held status = iota
	// discharged: released, transferred or consumed (pos = the discharge
	// site, verb = how).
	discharged
	// escaped: a tracked parameter flowed out of view on some path. It
	// outlives every later transition, so a summary reads Escapes even
	// where another path still holds the parameter.
	escaped
)

// fact is one possible status of a tracked object.
type fact struct {
	obj  types.Object
	st   status
	verb string
	pos  token.Pos
}

// state is the may-set of facts; an object both held and discharged here
// is held on one path and discharged on another.
type state = dataflow.Set[fact]

type checker struct {
	dataflow.MaySet[fact]
	pass   *analysis.Pass // check mode: where reports go
	p      *Protocol
	comp   *Computer
	info   *types.Info
	g      *cfg.Graph
	params map[types.Object]bool // tracked parameters, entering held
	// summarizing is summary mode: comp is being built, so receives do not
	// acquire, and a send of a held value marks its channel.
	summarizing bool
	report      bool
}

func (c *checker) Entry() state {
	s := state{}
	for obj := range c.params {
		s[fact{obj: obj, pos: obj.Pos()}] = true
	}
	return s
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
	case *ast.DeferStmt:
		// cfg replays the deferred call in the exit block, which applies it
		// there; until then its plain arguments stay tracked. A call that
		// mentions a tracked object any other way runs at an unknown
		// distance: stop tracking everything mentioned.
		if !c.plainArgs(n.Call, s) {
			c.escapeIdents(n, s)
		}
	case *ast.GoStmt:
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

// plainArgs reports whether every tracked object call mentions is one of
// its plain identifier arguments.
func (c *checker) plainArgs(call *ast.CallExpr, s state) bool {
	args := map[types.Object]bool{}
	for _, a := range call.Args {
		if obj := c.ident(a); obj != nil {
			args[obj] = true
		}
	}
	plain := true
	ast.Inspect(call, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := c.info.ObjectOf(id); obj != nil && !args[obj] && hasFacts(s, obj) {
				plain = false
			}
		}
		return plain
	})
	return plain
}

// send handles `ch <- v`: a tracked value sent on a channel is handed to
// the receiver, which discharges it.
func (c *checker) send(n *ast.SendStmt, s state) {
	c.use(n.Chan, s)
	obj := c.ident(n.Value)
	if obj == nil || !hasFacts(s, obj) {
		c.escapeExpr(n.Value, s)
		return
	}
	if rel, ok := dischargedFact(s, obj); ok {
		c.reportf(n.Pos(), c.p.SendAfter, obj.Name(), c.clause(rel))
	}
	if _, ok := heldFact(s, obj); ok && c.summarizing {
		if ch := analysis.ObjectOf(c.info, n.Chan); ch != nil {
			c.comp.chans[ch] = true
		}
	}
	dropFacts(s, obj)
	s[fact{obj: obj, st: discharged, verb: chanVerb, pos: n.Pos()}] = true
}

// acquire starts tracking obj as held from pos.
func (c *checker) acquire(obj types.Object, pos token.Pos, s state) {
	dropFacts(s, obj)
	s[fact{obj: obj, pos: pos}] = true
}

// retire stops tracking obj: it was rebound or flowed out of view. A
// tracked parameter keeps an escaped fact.
func (c *checker) retire(obj types.Object, s state) {
	dropFacts(s, obj)
	if c.params[obj] {
		s[fact{obj: obj, st: escaped}] = true
	}
}

// receiving reports whether ch is a transfer channel, whose receives
// acquire (check mode only).
func (c *checker) receiving(ch ast.Expr) bool {
	return !c.summarizing && c.comp.IsTransferChan(analysis.ObjectOf(c.info, ch))
}

// assign handles acquire bindings, receives, rebindings, alias borrows,
// and stores.
func (c *checker) assign(a *ast.AssignStmt, s state) {
	if len(a.Rhs) == 0 {
		// Synthesized range binding: each iteration over a transfer channel
		// acquires a fresh resource.
		if x, ok := c.g.RangeBind[a]; ok && len(a.Lhs) > 0 && c.receiving(x) {
			if obj := c.ident(a.Lhs[0]); obj != nil && c.comp.ops.Tracks(obj.Type()) {
				c.acquire(obj, a.Pos(), s)
				return
			}
		}
		for _, lhs := range a.Lhs {
			if obj := c.ident(lhs); obj != nil {
				c.retire(obj, s)
			}
		}
		return
	}
	// Receives: v := <-ch / v, ok := <-ch.
	if len(a.Rhs) == 1 {
		if ue, ok := ast.Unparen(a.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			for i, lhs := range a.Lhs {
				if obj := c.ident(lhs); obj != nil {
					c.retire(obj, s)
					if i == 0 && c.comp.ops.Tracks(obj.Type()) && c.receiving(ue.X) {
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
			base := sliceBase(c.info, lhs)
			if rel, ok := dischargedFact(s, base); ok {
				c.reportf(a.Pos(), c.p.WriteAfter, base.Name(), c.clause(rel))
			} else {
				c.use(lhs, s)
			}
			c.escapeExpr(rhs, s)
			continue
		}
		if rhs != nil {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if kind, _ := c.comp.ops.Classify(c.info, call); kind == OpAcquire {
					for _, arg := range call.Args {
						c.use(arg, s)
					}
					if prev, ok := heldFact(s, obj); ok && c.p.Realloc != "" {
						c.reportf(a.Pos(), c.p.Realloc, obj.Name(), c.line(prev.pos))
					}
					c.acquire(obj, call.Pos(), s)
					continue
				}
			}
			// Rebinding through the same resource (b = b[:n], b =
			// append(b, x)) keeps the obligation on the name.
			if analysis.Mentions(c.info, rhs, obj) {
				c.use(rhs, s)
				continue
			}
			// Alias borrow: data := frame[k:] is a window into the
			// allocation; the base keeps the obligation.
			if base := sliceBase(c.info, rhs); base != nil && hasFacts(s, base) {
				c.use(rhs, s)
				c.retire(obj, s)
				continue
			}
			c.escapeExpr(rhs, s)
		}
		c.retire(obj, s)
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
			if obj := c.info.ObjectOf(n); obj != nil {
				if rel, ok := dischargedFact(s, obj); ok {
					c.reportf(n.Pos(), c.p.UseAfter, obj.Name(), c.clause(rel))
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
	p := c.p
	c.use(call.Fun, s)
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.info.Uses[id].(*types.Builtin); ok {
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
	kind, argIdx := c.comp.ops.Classify(c.info, call)
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		kind = OpBorrow // conversion
	}
	var done []fact
	switch kind {
	case OpRelease, OpTransfer:
		verb, msg := p.ReleaseVerb, p.ReleaseAfter
		if kind == OpTransfer {
			verb, msg = p.TransferVerb, p.TransferAfter
		}
		if fn := analysis.Callee(c.info, call); verb == "" && fn != nil {
			verb = fn.Name() + "()"
		}
		for i, arg := range call.Args {
			obj := c.ident(arg)
			if i != argIdx || obj == nil {
				c.use(arg, s)
				continue
			}
			if rel, ok := dischargedFact(s, obj); ok {
				if kind == OpRelease && rel.verb == verb && p.ReleaseTwice != "" {
					c.reportf(call.Pos(), p.ReleaseTwice, obj.Name(), c.line(rel.pos))
				} else {
					c.reportf(call.Pos(), msg, obj.Name(), verb, c.clause(rel))
				}
			}
			done = append(done, fact{obj: obj, st: discharged, verb: verb, pos: call.Pos()})
		}
	case OpNone:
		// A callee met before its summary (a call cycle in summary mode) is
		// summarized first, or reads as Escapes while in progress.
		callee := analysis.Callee(c.info, call)
		var sig *types.Signature
		if callee != nil {
			c.comp.summarize(callee)
			sig, _ = callee.Type().(*types.Signature)
		}
		for i, arg := range call.Args {
			obj := c.ident(arg)
			if obj == nil || !hasFacts(s, obj) {
				c.escapeExpr(arg, s)
				continue
			}
			eff := Escapes
			if sig != nil && !(sig.Variadic() && i >= sig.Params().Len()-1) {
				eff = c.comp.Effect(callee, i)
			}
			switch eff {
			case Borrows:
				c.use(arg, s)
			case Consumes:
				if rel, ok := dischargedFact(s, obj); ok {
					c.reportf(call.Pos(), p.ConsumeAfter, obj.Name(), callee.Name(), c.clause(rel))
				}
				done = append(done, fact{obj: obj, st: discharged, verb: callee.Name() + "()", pos: call.Pos()})
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
		if rel, ok := dischargedFact(s, obj); ok {
			c.reportf(e.Pos(), c.p.UseAfter, obj.Name(), c.clause(rel))
		}
		c.retire(obj, s)
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
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := c.info.ObjectOf(id); obj != nil {
				c.retire(obj, s)
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
	var kept []fact
	gone := map[types.Object]bool{}
	for f := range exit {
		switch f.st {
		case held:
			kept = append(kept, f)
		case discharged:
			gone[f.obj] = true
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].pos < kept[j].pos })
	for _, f := range kept {
		switch {
		case !c.params[f.obj]:
			c.reportf(f.pos, c.p.Leak, f.obj.Name())
		case gone[f.obj]:
			c.reportf(f.pos, c.p.Mixed, f.obj.Name())
		}
	}
}

// Messages are formatted only while reporting: reportf, line and clause
// are no-ops during the fixpoint and in summary mode.

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.report {
		c.pass.Reportf(pos, format, args...)
	}
}

func (c *checker) line(pos token.Pos) int {
	if !c.report {
		return 0
	}
	return c.pass.Fset.Position(pos).Line
}

func (c *checker) clause(f fact) string {
	if !c.report {
		return ""
	}
	return c.p.Clause(f.verb, c.line(f.pos))
}

func (c *checker) ident(e ast.Expr) types.Object {
	return analysis.IdentObject(c.info, e)
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

// heldFact and dischargedFact return obj's earliest held/discharged fact.
func heldFact(s state, obj types.Object) (fact, bool)       { return earliest(s, obj, held) }
func dischargedFact(s state, obj types.Object) (fact, bool) { return earliest(s, obj, discharged) }

func earliest(s state, obj types.Object, st status) (fact, bool) {
	var best fact
	found := false
	for f := range s {
		if f.obj == obj && f.st == st && (!found || f.pos < best.pos) {
			best, found = f, true
		}
	}
	return best, found
}

// hasFacts reports whether obj is tracked: held or discharged on some
// path.
func hasFacts(s state, obj types.Object) bool {
	for f := range s {
		if f.obj == obj && f.st != escaped {
			return true
		}
	}
	return false
}

// dropFacts forgets obj's held and discharged facts; an escaped fact
// stays.
func dropFacts(s state, obj types.Object) {
	for f := range s {
		if f.obj == obj && f.st != escaped {
			delete(s, f)
		}
	}
}
