// Package teardownpath enforces gateway invariant 10: the server's
// outstanding-frame counter (srv.frames, an atomic.Int64 bumped next to
// every pooled Alloc and Release) stays truthful on every control-flow
// path, teardown branches included. Server.InflightFrames reports it, and
// the churn, end-to-end and malformed-input tests poll it to prove that a
// closed gateway holds no pooled frame. An Alloc that is never counted
// hides a leaked frame from those checks, and a Release that is never
// discounted (or a double count) makes a clean gateway look leaky — either
// way the leak checks stop proving anything.
//
// The pass activates only in packages that actually touch a field named
// frames of type sync/atomic.Int64 via Add (today: internal/gateway) and
// then checks, per function, a path-sensitive pairing discipline:
//
//   - every pooled Alloc (the obligation.BufferOps protocol: endpoint
//     Alloc on a pooled transport) is followed by frames.Add(1) on every
//     path out of the function;
//   - every pooled Release is followed by frames.Add(-1) on every path;
//   - frames.Add(1) without a pending Alloc, and frames.Add(-1) without
//     a preceding Release, are counted twice by definition;
//   - a frame handed to another goroutine while an Alloc is still
//     uncounted races the receiver's Release+Add(-1) against this
//     goroutine's Add(1), so the counter can dip below zero.
//
// The abstraction is a per-path pair of saturating pending counters
// (allocations not yet counted, releases not yet discounted), merged as
// a may-set over paths — deliberately not per-frame ownership, which is
// buflifetime's job. The two passes compose: buflifetime proves each
// frame is discharged exactly once; teardownpath proves the bookkeeping
// the leak checks read moves in lockstep.
package teardownpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
	"golapi/internal/analysis/obligation"
)

// Analyzer is the teardownpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "teardownpath",
	Doc:  "every pooled Alloc/Release pairs with frames.Add(±1) on every path, and no frame crosses a goroutine uncounted",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ops := obligation.NewBufferOps(pass)
	if ops == nil || !usesFrameCounter(pass) {
		return nil
	}
	r := &runner{pass: pass, ops: ops}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					r.check(n.Body)
				}
			case *ast.FuncLit:
				r.check(n.Body)
			}
			return true
		})
	}
	return nil
}

// usesFrameCounter is the activation gate: some call in the package is
// frames.Add(±1) on an atomic counter field.
func usesFrameCounter(pass *analysis.Pass) bool {
	found := false
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && frameAddDelta(pass.Pkg.Info, call) != 0 {
				found = true
			}
			return !found
		})
	}
	return found
}

// frameAddDelta returns +1/-1 when call is frames.Add(1) / frames.Add(-1)
// on a field named frames of type sync/atomic.Int64, else 0.
func frameAddDelta(info *types.Info, call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" || len(call.Args) != 1 {
		return 0
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok || field.Sel.Name != "frames" {
		return 0
	}
	if !analysis.IsMethodOf(analysis.Callee(info, call), "sync/atomic", "Int64", "Add") {
		return 0
	}
	switch arg := ast.Unparen(call.Args[0]).(type) {
	case *ast.BasicLit:
		if arg.Value == "1" {
			return 1
		}
	case *ast.UnaryExpr:
		if arg.Op == token.SUB {
			if lit, ok := ast.Unparen(arg.X).(*ast.BasicLit); ok && lit.Value == "1" {
				return -1
			}
		}
	}
	return 0
}

type runner struct {
	pass *analysis.Pass
	ops  *obligation.BufferOps
}

func (r *runner) check(body *ast.BlockStmt) {
	g := cfg.New(body)
	c := &checker{r: r, seen: map[reportKey]bool{}}
	res := dataflow.Solve(g, c)
	exit, reachable := res.Out(g, g.Exit, c)
	c.report = true
	res.Walk(g, c)
	if reachable {
		c.reportExit(exit)
	}
}

// counts is one path's pending bookkeeping: a allocations not yet
// counted (apos = the first), r releases not yet discounted (rpos = the
// first). Both saturate at 2, keeping the state space finite over loops.
type counts struct {
	a, r       uint8
	apos, rpos token.Pos
}

type state = dataflow.Set[counts]

type reportKey struct {
	pos token.Pos
	msg string
}

type checker struct {
	dataflow.MaySet[counts]
	r      *runner
	report bool
	seen   map[reportKey]bool
}

func (c *checker) Entry() state { return state{counts{}: true} }

// event is one bookkeeping-relevant operation inside a leaf node, in
// source order.
type event struct {
	kind eventKind
	pos  token.Pos
}

type eventKind int

const (
	evAlloc eventKind = iota
	evRelease
	evCountUp
	evCountDown
	evSend
)

func (c *checker) Transfer(n ast.Node, s state) state {
	info := c.r.pass.Pkg.Info
	var events []event
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // checked as its own function
		case *ast.SendStmt:
			if t := info.TypeOf(m.Value); t != nil && c.r.ops.Tracks(t) {
				events = append(events, event{evSend, m.Pos()})
			}
		case *ast.CallExpr:
			switch frameAddDelta(info, m) {
			case 1:
				events = append(events, event{evCountUp, m.Pos()})
				return true
			case -1:
				events = append(events, event{evCountDown, m.Pos()})
				return true
			}
			switch kind, _ := c.r.ops.Classify(info, m); kind {
			case obligation.OpAcquire:
				events = append(events, event{evAlloc, m.Pos()})
			case obligation.OpRelease:
				events = append(events, event{evRelease, m.Pos()})
			}
		}
		return true
	})
	for _, ev := range events {
		s = c.apply(ev, s)
	}
	return s
}

// apply advances every path's counters across one event, reporting
// mismatches witnessed by any member.
func (c *checker) apply(ev event, s state) state {
	out := make(state, len(s))
	for k := range s {
		switch ev.kind {
		case evAlloc:
			if k.a == 0 {
				k.apos = ev.pos
			}
			if k.a < 2 {
				k.a++
			}
		case evRelease:
			if k.r == 0 {
				k.rpos = ev.pos
			}
			if k.r < 2 {
				k.r++
			}
		case evCountUp:
			if k.a > 0 {
				k.a--
				if k.a == 0 {
					k.apos = 0
				}
			} else {
				c.reportf(ev.pos, "frames.Add(1) without a pending pooled Alloc on some path: the outstanding-frame count overstates and Close will wedge")
			}
		case evCountDown:
			if k.r > 0 {
				k.r--
				if k.r == 0 {
					k.rpos = 0
				}
			} else {
				c.reportf(ev.pos, "frames.Add(-1) without a preceding Release on some path: the outstanding-frame count can go negative")
			}
		case evSend:
			if k.a > 0 {
				c.reportf(ev.pos, "frame handed to another goroutine while the Alloc at line %d is still uncounted: its Release may be discounted before this goroutine's frames.Add(1)", c.line(k.apos))
			}
		}
		out[k] = true
	}
	return out
}

// reportExit reports pending counters surviving to the function exit.
func (c *checker) reportExit(exit state) {
	allocs := map[token.Pos]bool{}
	rels := map[token.Pos]bool{}
	for k := range exit {
		if k.a > 0 {
			allocs[k.apos] = true
		}
		if k.r > 0 {
			rels[k.rpos] = true
		}
	}
	for _, pos := range sortedPos(allocs) {
		c.reportf(pos, "pooled Alloc not counted: no frames.Add(1) on some path to return, so Close frees the pool under a live frame")
	}
	for _, pos := range sortedPos(rels) {
		c.reportf(pos, "pooled Release not discounted: no frames.Add(-1) on some path to return, so Close waits on a frame already home")
	}
}

func sortedPos(set map[token.Pos]bool) []token.Pos {
	out := make([]token.Pos, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reportf deduplicates across state members: several paths witnessing the
// same mismatch at the same site are one finding.
func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if !c.report {
		return
	}
	key := reportKey{pos, format}
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.r.pass.Reportf(pos, format, args...)
}

func (c *checker) line(pos token.Pos) int {
	return c.r.pass.Fset.Position(pos).Line
}
