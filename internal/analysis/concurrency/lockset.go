// lockset.go is the must-lockset half of the concurrency model: a forward
// dataflow over each unit's CFG tracking which mutexes are certainly held,
// intersected at control-flow merges (a lock held on only one path into a
// join is not "held" after it — the loop-carried release case), plus the
// interprocedural entry-lockset fixpoint (a callee's entry set is the
// intersection of the locksets at its static call sites).
package concurrency

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
	"golapi/internal/analysis/dataflow"
)

// SerializedLock is the pseudo-lock of the runtime serialization domains
// (exec's big lock, the sim engine's coroutine switch, the epoch-barrier seam).
var SerializedLock types.Object = types.NewVar(token.NoPos, nil, "⟨serialized⟩", types.Typ[types.Invalid])

// A LockSet is a set of mutexes (identified by their variable or field,
// instance-blind) plus possibly the ⟨serialized⟩ pseudo-lock.
type LockSet map[types.Object]struct{}

func (ls LockSet) add(o types.Object)      { ls[o] = struct{}{} }
func (ls LockSet) remove(o types.Object)   { delete(ls, o) }
func (ls LockSet) Has(o types.Object) bool { _, ok := ls[o]; return ok }

// Intersects reports whether two locksets share a lock.
func (ls LockSet) Intersects(other LockSet) bool {
	a, b := ls, other
	if len(b) < len(a) {
		a, b = b, a
	}
	for o := range a {
		if _, ok := b[o]; ok {
			return true
		}
	}
	return false
}

func (ls LockSet) clone() LockSet {
	out := make(LockSet, len(ls))
	for o := range ls {
		out[o] = struct{}{}
	}
	return out
}

// intersect mutates ls to ls ∩ other and reports whether it shrank.
func (ls LockSet) intersect(other LockSet) bool {
	changed := false
	for o := range ls {
		if _, ok := other[o]; !ok {
			delete(ls, o)
			changed = true
		}
	}
	return changed
}

func (ls LockSet) union(other LockSet) {
	for o := range other {
		ls[o] = struct{}{}
	}
}

func (ls LockSet) equal(other LockSet) bool {
	if len(ls) != len(other) {
		return false
	}
	for o := range ls {
		if _, ok := other[o]; !ok {
			return false
		}
	}
	return true
}

// String renders a lockset for diagnostics, deterministically.
func (ls LockSet) String() string {
	if len(ls) == 0 {
		return "no locks"
	}
	names := make([]string, 0, len(ls))
	for o := range ls {
		names = append(names, o.Name())
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// lockProblem is the intraprocedural must-lockset dataflow.
type lockProblem struct {
	unit  *Unit
	entry LockSet
	roots map[*ast.FuncLit]bool // literals that are separate units: opaque
}

func (p *lockProblem) Entry() LockSet          { return p.entry.clone() }
func (p *lockProblem) Clone(s LockSet) LockSet { return s.clone() }

// Merge is set intersection: must-analysis.
func (p *lockProblem) Merge(dst, src LockSet) LockSet {
	dst.intersect(src)
	return dst
}

func (p *lockProblem) Equal(a, b LockSet) bool { return a.equal(b) }

// Transfer applies Lock/Unlock effects of every call nested in one leaf.
// Deferred calls act only when replayed in the Exit block (the DeferStmt
// leaf is argument evaluation), and root literals are their own units.
func (p *lockProblem) Transfer(n ast.Node, s LockSet) LockSet {
	info := p.unit.Pkg.Info
	ast.Inspect(n, func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			return !p.roots[x]
		}
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil {
			return true
		}
		acquire, release, ok := mutexOp(fn)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := chainObj(info, sel.X)
		if obj == nil {
			return true
		}
		if acquire {
			s.add(obj)
		} else if release {
			s.remove(obj)
		}
		return true
	})
	return s
}

// mutexOp classifies sync.Mutex / sync.RWMutex methods. RLock is treated
// as the same lock as Lock: a reader and the writer can never be
// concurrent, which is the property the race check needs (two concurrent
// RLock-holding writers would be missed — a deliberate approximation).
func mutexOp(fn *types.Func) (acquire, release, ok bool) {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "sync" {
		return false, false, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false, false, false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return false, false, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return false, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return true, false, true
	case "Unlock", "RUnlock":
		return false, true, true
	}
	return false, false, false
}

// graphOf builds (and caches) the unit's CFG.
func (u *Unit) graphOf() *cfg.Graph {
	if u.graph == nil {
		u.graph = cfg.New(u.Body)
	}
	return u.graph
}

// resolveLocksets runs the interprocedural entry-lockset fixpoint. Entry
// locksets only shrink (intersection over call sites) from an initial ⊤,
// so the rounds terminate; the round cap is a safety net for pathological
// call graphs, erring toward larger locksets (fewer reports).
func (m *Model) resolveLocksets() {
	// Seed roots. A unit may be both spawned and called; seeds intersect.
	for _, s := range m.Spawns {
		seed := LockSet{}
		if s.Serialized {
			seed.add(SerializedLock)
		}
		s.Root.seeds = append(s.Root.seeds, seed)
	}
	called := make(map[*Unit]bool)
	for _, u := range m.Units {
		for _, e := range u.edges {
			called[e.to] = true
		}
	}
	for _, u := range m.Units {
		if !called[u] && len(u.seeds) == 0 {
			u.seeds = append(u.seeds, LockSet{}) // main-class root
		}
	}

	top := func(u *Unit) LockSet {
		// ⊤ is represented as nil Entry; contributions replace it.
		return nil
	}
	for _, u := range m.Units {
		u.Entry = top(u)
	}

	// The per-unit dataflow solve dominates the model's build time, and a
	// unit whose entry set did not change since the last round contributes
	// exactly what it contributed then — so cache each unit's call-site
	// contributions keyed on the entry it ran from and replay them instead
	// of re-solving. Cached locksets are only ever read by meet().
	type siteContrib struct {
		to *Unit
		ls LockSet
	}
	contribCache := make(map[*Unit][]siteContrib)
	cacheEntry := make(map[*Unit]LockSet)

	for round := 0; round < 6; round++ {
		contrib := make(map[*Unit]LockSet)
		meet := func(v *Unit, ls LockSet) {
			if cur, ok := contrib[v]; ok {
				cur.intersect(ls)
			} else {
				contrib[v] = ls.clone()
			}
		}
		for _, u := range m.Units {
			for _, seed := range u.seeds {
				meet(u, seed)
			}
		}
		for _, u := range m.Units {
			if u.ambient || len(u.Classes) == 0 {
				// Uncalled API surface (ambient) and unreached units (no
				// goroutine class executes them — e.g. a local callback
				// literal whose invocation the model cannot resolve): their
				// artificial empty-lockset context would drag every callee's
				// entry meet to ⊥. Real external callers are bound by the
				// same documented contracts the in-module call sites exhibit.
				continue
			}
			entry := u.Entry
			if entry == nil {
				if round == 0 {
					// First round: run every unit from its contractual
					// floor so locksets at call sites exist at all.
					entry = m.contractualLocks(u)
				} else {
					continue
				}
			}
			if prev, ok := cacheEntry[u]; ok && prev.equal(entry) {
				for _, c := range contribCache[u] {
					meet(c.to, c.ls)
				}
				continue
			}
			var sites []siteContrib
			m.callSiteLocks(u, entry, func(v *Unit, ls LockSet) {
				sites = append(sites, siteContrib{v, ls})
				meet(v, ls)
			})
			contribCache[u] = sites
			cacheEntry[u] = entry.clone()
		}
		changed := false
		for _, u := range m.Units {
			ls, ok := contrib[u]
			if !ok {
				continue
			}
			ls.union(m.contractualLocks(u))
			if u.Entry == nil || !u.Entry.equal(ls) {
				u.Entry = ls
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Units never contributed to (unreached): contractual floor only.
	for _, u := range m.Units {
		if u.Entry == nil {
			u.Entry = m.contractualLocks(u)
		}
	}
}

// callSiteLocks solves u's lockset dataflow from the given entry set and
// feeds the lockset observed at each outgoing call site to meet().
func (m *Model) callSiteLocks(u *Unit, entry LockSet, meet func(*Unit, LockSet)) {
	if len(u.edges) == 0 {
		return
	}
	siteEdges := make(map[ast.Node][]*edge, len(u.edges))
	for _, e := range u.edges {
		siteEdges[e.site] = append(siteEdges[e.site], e)
	}
	g := u.graphOf()
	p := &lockProblem{unit: u, entry: entry, roots: m.rootLit}
	res := dataflow.Solve(g, p)
	for _, blk := range g.Blocks {
		in, ok := res.In[blk]
		if !ok {
			continue
		}
		s := in.clone()
		for _, leaf := range blk.Nodes {
			// Call sites nested in this leaf observe the leaf's in-state.
			ast.Inspect(leaf, func(n ast.Node) bool {
				for _, e := range siteEdges[n] {
					ls := s.clone()
					if e.serialized {
						ls.add(SerializedLock)
					}
					meet(e.to, ls)
				}
				return true
			})
			s = p.Transfer(leaf, s)
		}
	}
}

// locksAt replays the unit's solved lockset to each position, used by the
// access collector: returns a callback-driven walk over leaves with the
// current must-lockset.
func (m *Model) walkWithLocks(u *Unit, visit func(leaf ast.Node, locks LockSet, rangeBind map[*ast.AssignStmt]ast.Expr, atExit bool)) {
	g := u.graphOf()
	p := &lockProblem{unit: u, entry: u.Entry, roots: m.rootLit}
	res := dataflow.Solve(g, p)
	for _, blk := range g.Blocks {
		in, ok := res.In[blk]
		if !ok {
			continue
		}
		s := in.clone()
		for _, leaf := range blk.Nodes {
			visit(leaf, s, g.RangeBind, blk == g.Exit)
			s = p.Transfer(leaf, s)
		}
	}
}
