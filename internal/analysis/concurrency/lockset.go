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
	"maps"
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
func (ls LockSet) Has(o types.Object) bool { _, ok := ls[o]; return ok }

// with returns a copy of ls that also holds o.
func (ls LockSet) with(o types.Object) LockSet {
	out := ls.clone()
	out.add(o)
	return out
}

// intersects reports whether two sets share a member.
func intersects[K comparable, V any](a, b map[K]V) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
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

// intersect mutates ls to ls ∩ other.
func (ls LockSet) intersect(other LockSet) {
	maps.DeleteFunc(ls, func(o types.Object, _ struct{}) bool { return !other.Has(o) })
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
	m     *Model
	unit  *Unit
	entry LockSet
}

func (p *lockProblem) Entry() LockSet          { return p.entry.clone() }
func (p *lockProblem) Clone(s LockSet) LockSet { return s.clone() }

// Merge is set intersection: must-analysis.
func (p *lockProblem) Merge(dst, src LockSet) LockSet {
	dst.intersect(src)
	return dst
}

func (p *lockProblem) Equal(a, b LockSet) bool { return maps.Equal(a, b) }

// Transfer applies Lock/Unlock effects of every call nested in one leaf.
// Deferred calls act only when replayed in the Exit block (the DeferStmt
// leaf is argument evaluation), and root literals are their own units.
func (p *lockProblem) Transfer(n ast.Node, s LockSet) LockSet {
	info := p.unit.Pkg.Info
	p.m.inspect(n, func(nn ast.Node) bool {
		if _, ok := nn.(*ast.DeferStmt); ok {
			return false
		}
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil {
			return true
		}
		acquire, release := mutexOp(fn)
		if !acquire && !release {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := analysis.ChainObj(info, sel.X)
		if obj == nil {
			return true
		}
		if acquire {
			s.add(obj)
		} else if release {
			delete(s, obj)
		}
		return true
	})
	return s
}

// mutexOp classifies sync.Mutex / sync.RWMutex methods. RLock is treated
// as the same lock as Lock: a reader and the writer can never be
// concurrent, which is the property the race check needs (two concurrent
// RLock-holding writers would be missed — a deliberate approximation).
func mutexOp(fn *types.Func) (acquire, release bool) {
	for _, mu := range []string{"Mutex", "RWMutex"} {
		acquire = acquire || analysis.IsMethodOf(fn, "sync", mu, "Lock", "RLock")
		release = release || analysis.IsMethodOf(fn, "sync", mu, "Unlock", "RUnlock")
	}
	return acquire, release
}

// graphOf builds (and caches) the unit's CFG.
func (u *Unit) graphOf() *cfg.Graph {
	if u.graph == nil {
		u.graph = cfg.New(u.Body)
	}
	return u.graph
}

// resolveLocksets runs the interprocedural entry-lockset fixpoint: an
// entry is the intersection of the locksets at its call sites. Every
// entry starts at ⊤ (a nil Entry), which contributions replace. Round 0
// runs every unit from its contractual floor, so a later round can also
// raise an entry, as a caller's ⟨serialized⟩ reaches it one call level per
// round; the rounds stop when no entry changes.
func (m *Model) resolveLocksets() {
	// Seed roots. A unit may be both spawned and called; seeds intersect.
	for _, s := range m.Spawns {
		seed := LockSet{}
		if s.Serialized {
			seed.add(SerializedLock)
		}
		s.Root.seeds = append(s.Root.seeds, seed)
	}
	for _, u := range m.Units {
		if !m.called[u] && len(u.seeds) == 0 {
			u.seeds = append(u.seeds, LockSet{}) // main-class root
		}
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

	// The cap is a safety net for pathological call graphs. It must
	// exceed the deepest chain ⟨serialized⟩ travels: lapi's arena lookups
	// sit seven calls below a workload body.
	const maxEntryRounds = 16
	for round := 0; round < maxEntryRounds; round++ {
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
					entry = contractualLocks(u)
				} else {
					continue
				}
			}
			if prev, ok := cacheEntry[u]; ok && maps.Equal(prev, entry) {
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
			maps.Copy(ls, contractualLocks(u))
			if u.Entry == nil || !maps.Equal(u.Entry, ls) {
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
			u.Entry = contractualLocks(u)
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
	// Call sites nested in a leaf observe the leaf's in-state, plus
	// ⟨serialized⟩ inside an inline literal that holds it by contract.
	var visit func(n ast.Node, s LockSet)
	visit = func(n ast.Node, s LockSet) {
		ast.Inspect(n, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && !s.Has(SerializedLock) && serializedFunc(u.Pkg.Info.TypeOf(lit)) {
				visit(lit.Body, s.with(SerializedLock))
				return false
			}
			for _, e := range siteEdges[n] {
				ls := s.clone()
				if e.serialized {
					ls.add(SerializedLock)
				}
				meet(e.to, ls)
			}
			return true
		})
	}
	m.replayLocks(u, entry, func(leaf ast.Node, s LockSet, _ bool) { visit(leaf, s) })
}

// replayLocks solves u's must-lockset dataflow from entry and calls visit
// for every CFG leaf with the lockset held before it; atExit marks the
// Exit block's leaves (deferred calls replayed at function end). visit
// must not keep locks, which the replay goes on to update.
func (m *Model) replayLocks(u *Unit, entry LockSet, visit func(leaf ast.Node, locks LockSet, atExit bool)) {
	g := u.graphOf()
	p := &lockProblem{m: m, unit: u, entry: entry}
	res := dataflow.Solve(g, p)
	for _, blk := range g.Blocks {
		in, ok := res.In[blk]
		if !ok {
			continue
		}
		s := in.clone()
		for _, leaf := range blk.Nodes {
			visit(leaf, s, blk == g.Exit)
			s = p.Transfer(leaf, s)
		}
	}
}
