// access.go collects every unit's shared-state accesses (struct fields and
// package-level variables, instance-blind) with the must-lockset in force
// at each one, plus the channel/WaitGroup release/acquire operations the
// happens-before rules match up. Accesses through function-local objects
// freshly built in the same unit (composite literals, new, make) are
// skipped: the object is unshared until published, and publication is what
// the spawn/channel rules model.
package concurrency

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golapi/internal/analysis"
	"golapi/internal/analysis/callgraph"
)

type accessKey struct {
	obj    *types.Var
	pos    token.Pos
	write  bool
	atomic bool
}

// collectAccesses fills u.Accesses and u.Syncs. Freshness (u.fresh) must
// already be resolved.
func (m *Model) collectAccesses(u *Unit) {
	c := &collector{m: m, u: u, info: u.Pkg.Info, seen: make(map[accessKey]bool)}
	rangeBind := u.graphOf().RangeBind
	m.replayLocks(u, u.Entry, func(leaf ast.Node, locks LockSet, atExit bool) {
		// Deferred calls replayed in the Exit block run at function end:
		// their release operations (defer wg.Done, defer close) must sort
		// after every in-body access for the happens-before position rules.
		c.syncPos = token.NoPos
		if atExit {
			c.syncPos = u.Body.End()
		}
		c.leaf(leaf, locks, rangeBind)
	})
	if u.Entry.Has(SerializedLock) {
		// A unit running on the serialization domain observes everything
		// published into the domain by Post* calls: the matching acquire
		// for the Post release above, positioned at entry.
		u.Syncs = append(u.Syncs, SyncOp{Obj: SerializedLock, Kind: SyncAcquire, Pos: u.Body.Pos()})
	}
}

// freshLocals finds local variables bound (at declaration) from composite
// literals, new, or make: objects no other goroutine can see yet.
func (m *Model) freshLocals(u *Unit) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	info := u.Pkg.Info
	note := func(lhs ast.Expr, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && isFreshExpr(rhs) {
			if v, ok := info.Defs[id].(*types.Var); ok {
				fresh[v] = true
			}
		}
	}
	m.inspect(u.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) {
						note(n.Lhs[i], rhs)
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				if i < len(n.Names) {
					note(n.Names[i], rhs)
				}
			}
		}
		return true
	})
	return fresh
}

// resolveFreshness marks constructor-fresh locals per unit, then extends
// freshness interprocedurally: a parameter (or method receiver) is fresh
// when its unit is only ever invoked by direct static calls and every call
// site passes an expression rooted at a fresh object of the caller — the
// t.coll.init(t) constructor-helper idiom. Writes through such parameters
// happen before the object is published, exactly like their intra-unit
// counterparts, and carry the same approximation (freshness is not killed
// by an escape later in the same function).
func (m *Model) resolveFreshness() {
	for _, u := range m.Units {
		u.fresh = m.freshLocals(u)
	}
	// A unit reachable other than by direct static call (spawned, stored
	// into a function value, or dispatched through an interface) receives
	// arguments the call-site scan below cannot see: disqualified.
	opaque := make(map[*Unit]bool)
	for _, s := range m.Spawns {
		opaque[s.Root] = true
	}
	for _, u := range m.boundUnits() {
		opaque[u] = true
	}
	for _, u := range m.Units {
		for _, e := range u.edges {
			if e.kind == callgraph.Interface {
				opaque[e.to] = true
			}
		}
	}
	for round := 0; round < 3; round++ {
		dirty := make(map[*types.Var]bool)
		owner := make(map[*types.Var]*Unit) // every parameter with a call site
		for _, u := range m.Units {
			info := u.Pkg.Info
			m.inspect(u.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.Callee(info, call)
				if fn == nil {
					return true
				}
				v := m.unitOf[fn]
				if v == nil || v.Fn == nil || opaque[v] {
					return true
				}
				sig, ok := v.Fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				if recv := sig.Recv(); recv != nil {
					owner[recv] = v
					sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					dirty[recv] = dirty[recv] || !isSel || !m.freshExpr(u, sel.X)
				}
				for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
					p := sig.Params().At(i)
					owner[p] = v
					dirty[p] = dirty[p] || !m.freshExpr(u, call.Args[i])
				}
				return true
			})
		}
		changed := false
		for p, v := range owner {
			if !dirty[p] && !v.fresh[p] {
				v.fresh[p] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// freshExpr reports whether e denotes (part of) a fresh object in u: a
// fresh-building expression itself, or a selector/index/deref chain rooted
// at a variable u knows to be fresh.
func (m *Model) freshExpr(u *Unit, e ast.Expr) bool {
	e = ast.Unparen(e)
	if isFreshExpr(e) {
		return true
	}
	base := chainRoot(e)
	if base == nil {
		return false
	}
	v, ok := u.Pkg.Info.Uses[base].(*types.Var)
	return ok && u.fresh[v]
}

// chainRoot unwraps a selector/index/deref/address chain to its base
// identifier, or nil.
func chainRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isFreshExpr reports whether e builds a brand-new object.
func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new" || id.Name == "make"
		}
	}
	return false
}

type collector struct {
	m    *Model
	u    *Unit
	info *types.Info
	seen map[accessKey]bool
	// syncPos overrides sync-op positions while replaying the Exit block's
	// deferred calls (they run at function end, not where defer appears).
	syncPos token.Pos
}

// leaf scans one CFG leaf with its in-force lockset. writeSet and consumed
// are populated on the fly: ast.Inspect is pre-order, so an assignment is
// visited before its left-hand sides and a selector chain's head before
// its parts.
func (c *collector) leaf(leaf ast.Node, locks LockSet, rangeBind map[*ast.AssignStmt]ast.Expr) {
	writeSet := make(map[ast.Expr]bool)
	consumed := make(map[ast.Node]bool)
	c.m.inspect(leaf, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			// Inline literals are attributed to this unit (they run,
			// approximately, here), holding ⟨serialized⟩ when their
			// signature says so.
			if serializedFunc(c.info.TypeOf(x)) && !locks.Has(SerializedLock) {
				c.leaf(x.Body, locks.with(SerializedLock), rangeBind)
				return false
			}
			return true
		case *ast.AssignStmt:
			if op, ok := rangeBind[x]; ok {
				// Synthesized range binding: ranging over a channel is a
				// receive.
				if t := c.info.TypeOf(op); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						c.sync(op, SyncAcquire, x.TokPos)
					}
				}
				return false // Lhs are fresh per-iteration bindings
			}
			if x.Tok != token.DEFINE {
				for _, l := range x.Lhs {
					writeSet[l] = true
				}
			}
		case *ast.IncDecStmt:
			writeSet[x.X] = true
		case *ast.SendStmt:
			c.sync(x.Chan, SyncRelease, x.Pos())
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.sync(x.X, SyncAcquire, x.Pos())
			}
		case *ast.DeferStmt:
			// Effects of the deferred call itself are replayed in the Exit
			// block by the CFG builder; here only arguments are evaluated.
			consumed[x.Call] = true
		case *ast.CallExpr:
			if !consumed[x] && c.call(x, locks, consumed) {
				return false
			}
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
			if !consumed[n] {
				c.ref(n.(ast.Expr), writeSet[n.(ast.Expr)], locks, consumed)
			}
		}
		return true
	})
}

// call handles special call forms: builtin close (a release), sync/atomic
// functions, and WaitGroup Done/Wait. Returns true when the subtree is
// fully handled.
func (c *collector) call(call *ast.CallExpr, locks LockSet, consumed map[ast.Node]bool) bool {
	if ch := closedChan(c.info, call); ch != nil {
		c.sync(ch, SyncRelease, call.Pos())
		return false
	}
	fn := analysis.Callee(c.info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if isPost(fn) {
		// Post/PostArg/Do publish into the serialization domain under the
		// runtime lock: everything written before the call happens-before
		// any access made holding ⟨serialized⟩ — a session reading a
		// request, then running it under Do.
		c.syncOn(SerializedLock, SyncRelease, call.Pos())
		return false
	}
	if fn.Pkg().Path() == "sync/atomic" {
		// Typed atomics (atomic.Int64, ...) are intrinsically safe.
		if sig, _ := fn.Type().(*types.Signature); sig == nil || sig.Recv() == nil {
			c.atomicCall(call, fn, locks, consumed)
		}
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if analysis.IsMethodOf(fn, "sync", "WaitGroup", "Done") {
			c.sync(sel.X, SyncRelease, call.Pos())
		} else if analysis.IsMethodOf(fn, "sync", "WaitGroup", "Wait") {
			c.sync(sel.X, SyncAcquire, call.Pos())
		}
	}
	return false
}

// atomicCall records a function-style sync/atomic operation on its target.
func (c *collector) atomicCall(call *ast.CallExpr, fn *types.Func, locks LockSet, consumed map[ast.Node]bool) {
	if len(call.Args) == 0 {
		return
	}
	name := fn.Name()
	write := !strings.HasPrefix(name, "Load")
	addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return
	}
	target := addr.X
	obj, _ := c.trackedObj(target)
	// Consume the address-of chain so it is not also recorded as a plain
	// read by the generic walk.
	markChain(consumed, call.Args[0])
	if obj == nil {
		return
	}
	c.record(&Access{
		Unit:   c.u,
		Obj:    obj,
		Pos:    call.Pos(),
		Write:  write,
		Atomic: true,
		Wide64: strings.HasSuffix(name, "64"),
		Locks:  locks.clone(),
	})
}

// markChain consumes the pure reference chain of e (idents, selectors,
// stars, indexes) so the generic walk skips it; index expressions remain
// visible (they are ordinary reads).
func markChain(consumed map[ast.Node]bool, e ast.Expr) {
	for {
		consumed[e] = true
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			consumed[x] = true
			e = x.X
		case *ast.StarExpr:
			consumed[x] = true
			e = x.X
		case *ast.IndexExpr:
			consumed[x] = true
			e = x.X
		case *ast.UnaryExpr:
			consumed[x] = true
			if x.Op != token.AND {
				return
			}
			e = x.X
		case *ast.Ident:
			consumed[x] = true
			return
		default:
			return
		}
	}
}

// ref records one access through a reference chain: the tracked object is
// the deepest field of the chain (or the package-level/base variable), the
// base decides freshness.
func (c *collector) ref(e ast.Expr, write bool, locks LockSet, consumed map[ast.Node]bool) {
	obj, indexed := c.trackedObj(e)
	markChain(consumed, e)
	if obj == nil {
		return
	}
	c.record(&Access{
		Unit:    c.u,
		Obj:     obj,
		Pos:     e.Pos(),
		Write:   write,
		Indexed: indexed,
		Locks:   locks.clone(),
	})
}

// trackedObj resolves a reference chain to the variable the race passes
// track: the outermost field selected, or a package-level variable. It
// returns nil for locals, parameters, fresh-object chains, and variables
// of intrinsically synchronized types. indexed reports whether an index
// is applied to the tracked object itself (element storage).
func (c *collector) trackedObj(e ast.Expr) (tracked *types.Var, indexed bool) {
	var obj *types.Var
	sawIndex := false
	cur := ast.Unparen(e)
loop:
	for {
		switch x := cur.(type) {
		case *ast.Ident:
			v, ok := c.info.Uses[x].(*types.Var)
			if !ok {
				return nil, false
			}
			if c.u.fresh[v] {
				return nil, false // freshly built local object: unshared
			}
			if obj == nil {
				if !analysis.IsPkgLevel(v) {
					return nil, false // plain local or parameter
				}
				obj = v
			} else if !analysis.IsPkgLevel(v) && !referenceLike(v.Type()) {
				// Field chain rooted in a value-typed local or parameter
				// (cfg := DefaultConfig(); cfg.X = ...): a private copy.
				return nil, false
			}
			break loop
		case *ast.SelectorExpr:
			if v, ok := c.info.Uses[x.Sel].(*types.Var); ok {
				if v.IsField() {
					if obj == nil {
						obj = v
					}
					cur = ast.Unparen(x.X)
					continue
				}
				// Qualified package variable (pkg.Var).
				if obj == nil {
					if !analysis.IsPkgLevel(v) {
						return nil, false
					}
					obj = v
				}
				break loop
			}
			return nil, false // method value or qualified function
		case *ast.StarExpr:
			cur = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if obj == nil {
				sawIndex = true // index applied to the tracked object itself
			}
			cur = ast.Unparen(x.X)
		default:
			// Chain rooted in a call or other rvalue: the base object is
			// unknown; fields selected from it are tracked only when the
			// chain found one (obj != nil) — handled below.
			break loop
		}
	}
	if obj == nil || obj.Name() == "_" {
		return nil, false
	}
	if isIntrinsicSync(obj.Type()) {
		return nil, false
	}
	return obj, sawIndex
}

// referenceLike reports whether a base variable of type t can alias
// memory shared with other goroutines (pointer, slice, map, channel,
// interface); a struct/array/basic-typed local holds a private copy.
func referenceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

// isIntrinsicSync reports whether t is a type whose own synchronization
// makes field-level race tracking meaningless: everything in sync and
// sync/atomic.
func isIntrinsicSync(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			return isIntrinsicSync(ptr.Elem())
		}
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// sync records one release/acquire operation on a channel or WaitGroup.
func (c *collector) sync(e ast.Expr, kind SyncKind, pos token.Pos) {
	c.syncOn(analysis.ChainObj(c.info, e), kind, pos)
}

// syncOn records one release/acquire operation on obj, if any.
func (c *collector) syncOn(obj types.Object, kind SyncKind, pos token.Pos) {
	if obj == nil {
		return
	}
	if c.syncPos.IsValid() {
		pos = c.syncPos
	}
	c.u.Syncs = append(c.u.Syncs, SyncOp{Obj: obj, Kind: kind, Pos: pos})
}

func (c *collector) record(a *Access) {
	k := accessKey{obj: a.Obj, pos: a.Pos, write: a.Write, atomic: a.Atomic}
	if c.seen[k] {
		return
	}
	c.seen[k] = true
	c.u.Accesses = append(c.u.Accesses, a)
}
