// Package bufreuse statically enforces the paper's §2.3 origin-buffer
// contract: the buffer handed to a non-blocking Put/Get/Amsend (and their
// strided variants) belongs to the library until a counter proves the
// transfer no longer reads it. Writing to it earlier races with the
// transfer — on real hardware, with the adapter's DMA; in the simulator,
// with the modelled copy — and the runtime cannot detect it.
//
// One lending checker enforces the rule; a table of rows says which calls
// lend which arguments and which counter retires the loan. Two analyzers
// run it over two row sets:
//
//   - bufreuse (Analyzer): a call with a resolvable origin counter lends
//     its buffers until that counter is waited on;
//   - rndvpin (PinAnalyzer): a Put or PutStrided issued with a nil origin
//     counter may still borrow the caller's buffer — above the crossover
//     the library pins it for zero-copy direct placement until the
//     transfer drains (DESIGN.md §12). With no origin counter to wait on,
//     only a wait on the completion counter (which fires causally after
//     the payload left the buffer) or a fence proves the drain. A call
//     with an unresolvable (non-nil) origin expression is neither pass's
//     business: the caller may well wait on it.
//
// The checker is flow-sensitive: each function body is lowered to a CFG
// (internal/analysis/cfg) and a may-analysis is run to a fixpoint with
// internal/analysis/dataflow. The abstract state is the set of outstanding
// (buffer, retiring counter) loans; states merge by union at joins, so a
// loan is outstanding at a program point if it is outstanding on ANY path
// into it. A write to a buffer outstanding on some path is reported: a
// wait that happens only inside one branch, or a Put whose wait is after
// the loop (leaving the loan pending across the back edge), does not hide
// the race.
//
// Kills: Waitcntr/Getcntr/Setcntr on the loan's counter retires it (a loan
// with no counter survives every wait), a Fence/Gfence/Barrier/Close
// retires everything, and rebinding the buffer name retires its loans (the
// lent-out array is no longer reachable through the name). A wait whose
// counter expression the checker cannot resolve to a variable also
// retires everything — the checker underreports rather than cry wolf.
package bufreuse

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
)

// Analyzer is the bufreuse pass: the lending checker over lendRows.
var Analyzer = &analysis.Analyzer{
	Name: "bufreuse",
	Doc:  "report writes to an origin buffer before its origin counter is waited on, on any path",
	Run:  func(pass *analysis.Pass) error { return run(pass, lendRows) },
}

// PinAnalyzer is the rndvpin pass: the lending checker over pinRows.
var PinAnalyzer = &analysis.Analyzer{
	Name: "rndvpin",
	Doc:  "report writes to a rendezvous-pinned origin buffer (nil origin counter) before its completion counter or a fence retires the pin",
	Run:  func(pass *analysis.Pass) error { return run(pass, pinRows) },
}

// A row is one lapi.Task method's lending rule.
type row struct {
	method    string
	bufs      []int // buffer argument indices
	org, cmpl int   // origin- and completion-counter argument indices (-1: none)
	// nilOrg selects the calls the row applies to: those whose origin
	// counter is the nil literal, or else those whose origin counter
	// resolves to a variable.
	nilOrg bool
	// retireCmpl: the completion counter retires the loan, else the
	// origin counter.
	retireCmpl bool
	// msg formats a write report from buffer, method, line and counter;
	// msgNoCntr from the first three when the retiring slot names no
	// counter.
	msg, msgNoCntr string
}

const (
	lentMsg      = "origin buffer %s of %s (line %d) written before Waitcntr/Getcntr on its origin counter %s: the buffer belongs to LAPI until the origin counter fires (§2.3)"
	pinMsg       = "origin buffer %s of nil-origin %s (line %d) written before Waitcntr/Getcntr on its completion counter %s: above the rendezvous crossover the buffer is pinned for zero-copy until the transfer drains (DESIGN.md §12)"
	pinNoCntrMsg = "origin buffer %s of nil-origin %s (line %d) written with no counter to wait on: only Fence/Gfence can retire a rendezvous pin issued without counters (DESIGN.md §12)"
)

var lendRows = []row{
	{method: "Put", bufs: []int{3}, org: 5, cmpl: 6, msg: lentMsg},
	{method: "Get", bufs: []int{3}, org: 5, cmpl: -1, msg: lentMsg},
	{method: "Amsend", bufs: []int{3, 4}, org: 6, cmpl: 7, msg: lentMsg},
	{method: "PutStrided", bufs: []int{4}, org: 6, cmpl: 7, msg: lentMsg},
	{method: "GetStrided", bufs: []int{4}, org: 6, cmpl: -1, msg: lentMsg},
}

var pinRows = []row{
	{method: "Put", bufs: []int{3}, org: 5, cmpl: 6, nilOrg: true, retireCmpl: true, msg: pinMsg, msgNoCntr: pinNoCntrMsg},
	{method: "PutStrided", bufs: []int{4}, org: 6, cmpl: 7, nilOrg: true, retireCmpl: true, msg: pinMsg, msgNoCntr: pinNoCntrMsg},
}

func run(pass *analysis.Pass, rows []row) error {
	if pass.Lookup(analysis.LapiPath) == nil {
		return nil
	}
	// Each body gets its own graph; the CFG builder treats nested literals
	// as opaque values.
	pass.Bodies(func(_ *types.Func, _ *types.Signature, body *ast.BlockStmt) {
		check(pass, rows, body)
	})
	return nil
}

func check(pass *analysis.Pass, rows []row, body *ast.BlockStmt) {
	g := cfg.New(body)
	c := &checker{pass: pass, rows: rows}
	res := dataflow.Solve(g, c)
	c.report = true
	res.Walk(g, c)
}

// rec is one outstanding loan: buf was lent by a call of row's method (at
// line) until cntr fires; cntr is nil when the retiring slot named no
// counter (then only a fence retires it).
type rec struct {
	buf  types.Object
	cntr types.Object
	row  *row
	line int
}

// state is the may-set of outstanding loans.
type state = dataflow.Set[rec]

type checker struct {
	dataflow.MaySet[rec]
	pass   *analysis.Pass
	rows   []row
	report bool
}

func (c *checker) Entry() state { return state{} }

// Transfer applies one CFG leaf. Function literals run at an unknown time
// and defer/go registrations only evaluate arguments (deferred calls
// reappear as bare calls in the exit block), so those subtrees are skipped.
func (c *checker) Transfer(n ast.Node, s state) state {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			c.call(n, s)
		case *ast.AssignStmt:
			c.assign(n, s)
		case *ast.IncDecStmt:
			if obj := c.writeTarget(n.X, s); obj != nil {
				c.reportWrite(n.Pos(), obj, s)
			}
		}
		return true
	})
	return s
}

// call handles one call expression: a call matching a row lends its
// buffers, wait ops retire loans, copy into a lent buffer is a write.
func (c *checker) call(call *ast.CallExpr, s state) {
	info := c.pass.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" && len(call.Args) == 2 {
			if obj := c.writeTarget(call.Args[0], s); obj != nil {
				c.reportWrite(call.Pos(), obj, s)
			}
			return
		}
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		return
	}
	switch {
	case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "Waitcntr", "Getcntr", "Setcntr"):
		if len(call.Args) < 2 {
			return
		}
		cntr := analysis.IdentObject(c.pass.Pkg.Info, call.Args[1])
		for r := range s {
			// An unresolvable counter expression may name any counter: retire
			// everything rather than report around an opaque wait.
			if cntr == nil || (r.cntr != nil && r.cntr == cntr) {
				delete(s, r)
			}
		}
	case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", "Fence", "Gfence", "Barrier", "Close"):
		for r := range s {
			delete(s, r)
		}
	case analysis.IsMethodOf(fn, analysis.LapiPath, "Task", fn.Name()):
		// Any other lapi.Task method lends what its rows say.
		for i := range c.rows {
			if row := &c.rows[i]; row.method == fn.Name() {
				c.lend(call, row, s)
			}
		}
	}
}

// lend records the loans of one call that row applies to.
func (c *checker) lend(call *ast.CallExpr, row *row, s state) {
	if len(call.Args) <= max(row.org, row.cmpl) {
		return
	}
	info, org := c.pass.Pkg.Info, call.Args[row.org]
	if row.nilOrg && !analysis.IsNil(info, org) || !row.nilOrg && analysis.IdentObject(info, org) == nil {
		return
	}
	slot := row.org
	if row.retireCmpl {
		slot = row.cmpl
	}
	cntr := analysis.IdentObject(info, call.Args[slot])
	line := c.pass.Fset.Position(call.Pos()).Line
	for _, i := range row.bufs {
		if buf := analysis.IdentObject(info, call.Args[i]); buf != nil {
			s[rec{buf: buf, cntr: cntr, row: row, line: line}] = true
		}
	}
}

// assign handles writes on the left-hand sides of an assignment. The CFG's
// synthesized range-binding assignments (empty Rhs) land here too and
// simply retire the rebound names.
func (c *checker) assign(a *ast.AssignStmt, s state) {
	for _, lhs := range a.Lhs {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr, *ast.SliceExpr:
			if obj := c.writeTarget(l, s); obj != nil {
				c.reportWrite(a.Pos(), obj, s)
			}
		case *ast.Ident:
			obj := c.pass.Pkg.Info.ObjectOf(l)
			if obj == nil || !tracked(s, obj) {
				continue
			}
			// buf = append(buf, ...) may write the lent backing array; any
			// other rebinding just retires the name's loans.
			if c.appendsTo(a.Rhs, obj) {
				c.reportWrite(a.Pos(), obj, s)
			} else {
				for r := range s {
					if r.buf == obj {
						delete(s, r)
					}
				}
			}
		}
	}
}

// writeTarget resolves the base identifier of an index/slice expression if
// its object is currently lent on some path.
func (c *checker) writeTarget(e ast.Expr, s state) types.Object {
	if obj := analysis.BaseObject(c.pass.Pkg.Info, e); obj != nil && tracked(s, obj) {
		return obj
	}
	return nil
}

// appendsTo reports whether any rhs is append(obj, ...).
func (c *checker) appendsTo(rhs []ast.Expr, obj types.Object) bool {
	for _, e := range rhs {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := c.pass.Pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && c.pass.Pkg.Info.ObjectOf(arg) == obj {
			return true
		}
	}
	return false
}

func tracked(s state, obj types.Object) bool {
	for r := range s {
		if r.buf == obj {
			return true
		}
	}
	return false
}

// reportWrite emits one diagnostic for a write to a buffer outstanding on
// some path. Several loans may name the buffer (e.g. a Put in each
// branch); the earliest is reported, deterministically.
func (c *checker) reportWrite(pos token.Pos, obj types.Object, s state) {
	if !c.report {
		return
	}
	var hits []rec
	for r := range s {
		if r.buf == obj {
			hits = append(hits, r)
		}
	}
	if len(hits) == 0 {
		return
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.line != b.line {
			return a.line < b.line
		}
		if a.row.method != b.row.method {
			return a.row.method < b.row.method
		}
		return cntrName(a) < cntrName(b)
	})
	r := hits[0]
	if r.cntr == nil {
		c.pass.Reportf(pos, r.row.msgNoCntr, obj.Name(), r.row.method, r.line)
		return
	}
	c.pass.Reportf(pos, r.row.msg, obj.Name(), r.row.method, r.line, r.cntr.Name())
}

func cntrName(r rec) string {
	if r.cntr == nil {
		return ""
	}
	return r.cntr.Name()
}
