// hb.go is the happens-before half of the model: fork-join detection
// (WaitGroup and done-channel joins), the may-race pair test the racefree
// and atomicmix passes share, and the no-return fixpoint behind goteardown
// (exit reachability with calls to never-returning functions cutting
// blocks, and ranges over never-closed channels cutting the loop exit).
package concurrency

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golapi/internal/analysis"
	"golapi/internal/analysis/cfg"
)

// joinSpawns marks spawns fork-joined with their parent: the spawned unit
// releases (WaitGroup.Done, channel close/send) something the parent
// acquires (Wait, receive) after the spawn site.
func (m *Model) joinSpawns() {
	for _, s := range m.Spawns {
		if s.Joined {
			continue
		}
	search:
		for _, r := range s.Root.Syncs {
			if r.Kind != SyncRelease {
				continue
			}
			for _, q := range s.Parent.Syncs {
				if q.Kind == SyncAcquire && q.Obj == r.Obj && q.Pos > s.Pos {
					s.Joined = true
					s.JoinPos = q.Pos
					break search
				}
			}
		}
	}
}

// joinWindow returns (memoized) the set of units the parent calls between
// the spawn and its join: the only code the parent class can execute while
// the joined class is alive.
func (m *Model) joinWindow(s *Spawn) map[*Unit]bool {
	if s.window == nil {
		s.window = callsFrom(s.Parent, func(p token.Pos) bool { return p > s.Pos && p < s.JoinPos })
	}
	return s.window
}

// preWindow returns (memoized) the units transitively reachable from call
// sites in the parent before the spawn statement: constructor-phase code
// that completes before the spawned class exists. Instance-blind like the
// rest of the model: another root calling the same constructor
// concurrently with this spawn's class is not distinguished.
func (m *Model) preWindow(s *Spawn) map[*Unit]bool {
	if s.prewin == nil {
		// A loop spawn has instances alive on the second iteration while
		// the "pre-spawn" constructor code runs again: no safe window.
		s.prewin = callsFrom(s.Parent, func(p token.Pos) bool { return !s.InLoop && p < s.Pos })
	}
	return s.prewin
}

// callsFrom returns the units reachable from those call sites of u whose
// position satisfies in.
func callsFrom(u *Unit, in func(token.Pos) bool) map[*Unit]bool {
	var seeds []*Unit
	for _, e := range u.edges {
		if in(e.site.Pos()) {
			seeds = append(seeds, e.to)
		}
	}
	return reach(map[*Unit]bool{}, nil, seeds...)
}

// inWindow reports whether code of unit u at pos can execute while joined
// spawn s is alive: in the parent between spawn and join, or in a unit the
// parent calls from inside that window. With no known join position
// everything overlaps.
func (m *Model) inWindow(s *Spawn, u *Unit, pos token.Pos) bool {
	if s.JoinPos == 0 {
		return true
	}
	if u == s.Parent {
		return pos > s.Pos && pos < s.JoinPos
	}
	return m.joinWindow(s)[u]
}

// NoReturn reports whether the unit's exit is statically unreachable, with
// a diagnostic reason.
func (u *Unit) NoReturn() (bool, string) { return u.noReturn, u.noReason }

// markNoReturn computes, to a fixpoint, which units can never return:
// directly (infinite loop, empty select, every path panics — the CFG
// builder already models those) or transitively (every path calls a unit
// that never returns, or ranges over a channel nothing ever closes).
func (m *Model) markNoReturn() {
	for round, changed := 0, true; round < 5 && changed; round++ {
		changed = false
		for _, u := range m.Units {
			if !u.noReturn {
				if ok, reason := m.exitReachable(u); !ok {
					u.noReturn, u.noReason, changed = true, reason, true
				}
			}
		}
	}
}

// exitReachable walks u's CFG from the entry, cutting block successors at
// calls to never-returning units and the head→after edge of ranges over
// never-closed channels, and reports whether the exit block survives.
func (m *Model) exitReachable(u *Unit) (bool, string) {
	g := u.graphOf()
	cuts, cutReasons := m.rangeCuts(u, g)
	reason := ""
	visited := make([]bool, len(g.Blocks))
	var stack []*cfg.Block
	push := func(b *cfg.Block) {
		if !visited[b.Index] {
			visited[b.Index] = true
			stack = append(stack, b)
		}
	}
	push(g.Entry)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == g.Exit {
			return true, ""
		}
		terminated := false
		for _, leaf := range b.Nodes {
			if r := m.leafNoReturnCall(u, leaf); r != "" {
				terminated = true
				if reason == "" {
					reason = r
				}
				break
			}
		}
		if terminated {
			continue
		}
		for _, s := range b.Succs {
			if cuts[b] == s {
				if reason == "" {
					reason = cutReasons[b]
				}
				continue
			}
			push(s)
		}
	}
	if reason == "" {
		reason = "no path reaches a return (infinite loop or select with no exit)"
	}
	return false, reason
}

// rangeCuts finds `for ... range ch` loops over channels no module code
// ever closes: their head→after edge cannot be taken (the receive blocks
// forever instead), so it is cut from the reachability walk.
func (m *Model) rangeCuts(u *Unit, g *cfg.Graph) (map[*cfg.Block]*cfg.Block, map[*cfg.Block]string) {
	info := u.Pkg.Info
	names := make(map[ast.Node]string) // range operand -> channel name
	m.inspect(u.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return true
		}
		obj := analysis.ChainObj(info, rs.X)
		if obj == nil || m.closed[m.canonChan(obj)] {
			return true // unresolvable operand, or something closes it
		}
		names[rs.X] = obj.Name()
		return true
	})
	if len(names) == 0 {
		return nil, nil
	}
	cuts := make(map[*cfg.Block]*cfg.Block)
	reasons := make(map[*cfg.Block]string)
	for _, blk := range g.Blocks {
		if len(blk.Nodes) == 0 {
			continue
		}
		name, ok := names[blk.Nodes[len(blk.Nodes)-1]]
		if !ok {
			continue
		}
		// The operand leaf flows straight into the range head.
		for _, head := range blk.Succs {
			if head.Kind != "range.head" {
				continue
			}
			for _, after := range head.Succs {
				if after.Kind == "range.after" {
					cuts[head] = after
					reasons[head] = fmt.Sprintf("ranges over channel %s, which nothing closes", name)
				}
			}
		}
	}
	return cuts, reasons
}

// leafNoReturnCall reports (with a reason) whether the leaf contains a
// call to a unit known not to return. Spawned and deferred calls do not
// block the current goroutine here.
func (m *Model) leafNoReturnCall(u *Unit, leaf ast.Node) string {
	info := u.Pkg.Info
	reason := ""
	m.inspect(leaf, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			fn := analysis.Callee(info, x)
			if fn == nil {
				return true
			}
			if v := m.unitOf[fn]; v != nil && v.noReturn {
				reason = fmt.Sprintf("calls %s, which never returns", fn.Name())
				return false
			}
		}
		return true
	})
	return reason
}

// --- main-goroutine timeline -----------------------------------------------

// loopSpansOf returns (memoized) the extents of loop statements in u's
// body, excluding nested root literals (separate units).
func (m *Model) loopSpansOf(u *Unit) [][2]token.Pos {
	if spans, ok := m.loopSpans[u]; ok {
		return spans
	}
	spans := [][2]token.Pos{}
	m.inspect(u.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			spans = append(spans, [2]token.Pos{x.Pos(), x.End()})
		}
		return true
	})
	m.loopSpans[u] = spans
	return spans
}

// inLoopPos reports whether pos sits inside a loop statement of u.
func (m *Model) inLoopPos(u *Unit, pos token.Pos) bool {
	for _, sp := range m.loopSpansOf(u) {
		if pos >= sp[0] && pos < sp[1] {
			return true
		}
	}
	return false
}

// mainView computes (memoized) the main-goroutine timeline around a
// singleton spawn: `after` holds units reachable from call sites that
// execute once the spawned class exists (post-spawn sites in the spawner
// and in every transitive caller of it); `best` holds, for each unit on
// the call chain leading to the spawn, the earliest chain call position —
// accesses before it precede the spawn. A chain site inside a loop maps to
// NoPos (the body re-runs while the class is alive, nothing is safely
// before). Units in neither set completed before the spawn call.
func (m *Model) mainView(s *Spawn) (after map[*Unit]bool, best map[*Unit]token.Pos) {
	if s.mafter == nil {
		s.mbest = m.callChains([]callerSite{{s.Parent, s.Pos}}, false, true)
		s.mafter = make(map[*Unit]bool)
		for u, p := range s.mbest {
			for _, e := range u.edges {
				if e.site.Pos() > p {
					reach(s.mafter, nil, e.to)
				}
			}
		}
	}
	return s.mafter, s.mbest
}

// callChains walks the call chains into the seed sites backward, caller
// by caller, and returns for each unit on them the earliest chain call
// position in it (the latest, when latest is set). With loops set, a site
// inside a loop counts as NoPos: the loop runs the call again.
func (m *Model) callChains(seeds []callerSite, latest, loops bool) map[*Unit]token.Pos {
	bound := make(map[*Unit]token.Pos)
	work := append([]callerSite(nil), seeds...)
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if loops && m.inLoopPos(it.unit, it.pos) {
			it.pos = token.NoPos
		}
		if old, seen := bound[it.unit]; seen && (latest && old >= it.pos || !latest && old <= it.pos) {
			continue
		}
		bound[it.unit] = it.pos
		work = append(work, m.callers[it.unit]...)
	}
	return bound
}

// --- caller-side publication -----------------------------------------------

// An ownedSync is a sync operation together with the unit it occurs in,
// for class-membership checks at the use site.
type ownedSync struct {
	owner *Unit
	op    SyncOp
}

// coveringSyncs walks the caller chains of u and collects, when release is
// true, release operations positioned after every call chain into u (the
// handler writes via a helper, then sends the reply), and otherwise
// acquire operations positioned before every call chain into u (the
// requester receives the reply, then reads via a helper). Loop recurrence
// is deliberately ignored, matching the intra-unit rule: the send-in-loop
// / receive-in-loop rendezvous pairs iteration n's release with iteration
// n's acquire, which is the idiom this rule exists for.
func (m *Model) coveringSyncs(u *Unit, release bool) []ownedSync {
	key := covKey{u, release}
	if out, ok := m.cov[key]; ok {
		return out
	}
	// For releases, the latest chain site in each unit (ops must follow
	// it); for acquires, the earliest (ops must precede it).
	var out []ownedSync
	for v, p := range m.callChains(m.callers[u], release, false) {
		for _, op := range v.Syncs {
			if release && op.Kind == SyncRelease && op.Pos > p || !release && op.Kind == SyncAcquire && op.Pos < p {
				out = append(out, ownedSync{v, op})
			}
		}
	}
	m.cov[key] = out
	return out
}

// --- may-race pair test ----------------------------------------------------

// classList returns a unit's classes in deterministic order.
func classList(u *Unit) []ClassID {
	out := make([]ClassID, 0, len(u.Classes))
	for c := range u.Classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Concurrent reports whether accesses a and b may race: some pair of
// goroutine classes runs them in parallel with disjoint locksets and no
// happens-before rule orders that pair. The second result names the racy
// class pair (a's class first) when the first is true.
func (m *Model) Concurrent(a, b *Access) (bool, [2]ClassID) {
	if intersects(a.Locks, b.Locks) {
		return false, [2]ClassID{}
	}
	// A slice's elements and its header are distinct storage: an element
	// write (s[i] = x) does not conflict with a header read (s == nil,
	// len(s)) once the header is published. Writes to the header (append,
	// reassignment) still conflict with element access, and maps get no
	// exemption (element access goes through the shared table).
	if a.Obj == b.Obj && a.Indexed != b.Indexed {
		if _, isSlice := a.Obj.Type().Underlying().(*types.Slice); isSlice {
			hdr := a // the non-indexed (header) side
			if a.Indexed {
				hdr = b
			}
			if !hdr.Write {
				return false, [2]ClassID{}
			}
		}
	}
	for _, ca := range classList(a.Unit) {
		if ca == MainClass && !a.Unit.mainReal {
			continue // unknown-context API surface: no main context to pair
		}
		for _, cb := range classList(b.Unit) {
			if cb == MainClass && !b.Unit.mainReal {
				continue
			}
			if !m.comboConcurrent(a, ca, b, cb) {
				continue
			}
			// Classes confined to disjoint programs (a lapibench sweep and
			// the lapigate runtime, say) never share a process.
			oa, ob := m.classOrigins(a, ca), m.classOrigins(b, cb)
			if len(oa) > 0 && len(ob) > 0 && !intersects(oa, ob) {
				continue
			}
			if m.ordered(a, ca, b, cb) || m.ordered(b, cb, a, ca) {
				continue
			}
			return true, [2]ClassID{ca, cb}
		}
	}
	return false, [2]ClassID{}
}

// comboConcurrent reports whether classes ca and cb can be in flight
// simultaneously executing a and b. Distinct classes usually can, with one
// carve-out: a sweep job's spawner is parked inside the parallel.Map /
// ForEach call for the whole sweep, so a sweep class is never concurrent
// with the classes executing its spawning unit (unless that class has many
// instances — a loop spawn — in which case an un-parked sibling remains),
// and two sweeps overlap only when one launches the other. A class races
// with itself only when its spawn sits in a loop (many instances) and the
// location is a package-level variable: two instances' accesses to the
// *same instance's* fields are treated as disjoint (instance-blind field
// identity would otherwise flood per-instance state with reports; the
// shardshare pass owns the sweep-sibling contract).
func (m *Model) comboConcurrent(a *Access, ca ClassID, b *Access, cb ClassID) bool {
	if ca != cb {
		sa, sb := m.sweepOf(ca), m.sweepOf(cb)
		if sa != nil && sb != nil {
			return sa.Parent.Classes[cb] || sb.Parent.Classes[ca] // nested sweeps only
		}
		if sa != nil && sa.Parent.Classes[cb] && !m.multiInstance(cb) {
			return false
		}
		if sb != nil && sb.Parent.Classes[ca] && !m.multiInstance(ca) {
			return false
		}
		// A fork-joined class only overlaps its parent's (singleton) class
		// inside the spawn→join window: reads after wg.Wait — in the parent
		// or anything it calls later — cannot race the joined goroutines.
		ja, jb := m.SpawnOf(ca), m.SpawnOf(cb)
		if ja != nil && ja.Joined && ja.Kind != SpawnSweep &&
			ja.Parent.Classes[cb] && !m.multiInstance(cb) && !m.inWindow(ja, b.Unit, b.Pos) {
			return false
		}
		if jb != nil && jb.Joined && jb.Kind != SpawnSweep &&
			jb.Parent.Classes[ca] && !m.multiInstance(ca) && !m.inWindow(jb, a.Unit, a.Pos) {
			return false
		}
		// Two fork-joined classes whose parents both run on the singleton
		// main goroutine (an ablation sweep and a cluster bring-up, say)
		// overlap only when one is spawned inside the other's dynamic
		// extent — the generalization of the nested-sweeps rule.
		if ja != nil && ja.Joined && jb != nil && jb.Joined &&
			mainOnly(ja.Parent) && mainOnly(jb.Parent) {
			return ja.Parent.Classes[cb] || jb.Parent.Classes[ca] ||
				m.inWindow(ja, jb.Parent, jb.Pos) || m.inWindow(jb, ja.Parent, ja.Pos)
		}
		return true
	}
	s := m.SpawnOf(ca)
	if s == nil || !s.InLoop {
		return false
	}
	return analysis.IsPkgLevel(a.Obj) && analysis.IsPkgLevel(b.Obj)
}

// mainOnly reports whether MainClass is the only class executing u.
func mainOnly(u *Unit) bool {
	return len(u.Classes) == 1 && u.Classes[MainClass]
}

// sweepOf returns c's spawn when it is a sweep job, else nil.
func (m *Model) sweepOf(c ClassID) *Spawn {
	if s := m.SpawnOf(c); s != nil && s.Kind == SpawnSweep {
		return s
	}
	return nil
}

// multiInstance reports whether more than one goroutine of class c can be
// alive at once (its spawn statement sits in a loop).
func (m *Model) multiInstance(c ClassID) bool {
	s := m.SpawnOf(c)
	return s != nil && s.InLoop
}

// ordered reports whether access a (running as class ca) happens before
// access b (running as class cb) under one of the happens-before rules:
//
//   - pre-spawn program order: a sits in the unit that spawns cb, textually
//     before the spawn site;
//   - blocking fork-join: a runs in a sweep job (parallel.Map/ForEach
//     returns only after every job finishes) and b sits in the sweep's
//     parent after the call site;
//   - release/acquire publication: a release operation (send, close,
//     WaitGroup.Done) after a in a's unit is matched by an acquire
//     (receive, range, Wait) on the same channel/WaitGroup before b in
//     b's unit.
func (m *Model) ordered(a *Access, ca ClassID, b *Access, cb ClassID) bool {
	if s := m.SpawnOf(cb); s != nil && ca != cb {
		if s.Parent == a.Unit && a.Pos < s.Pos {
			return true
		}
		// Pre-spawn callees: code the spawning unit calls before the spawn
		// site (NewTask → collectives.init before rt.Go) runs before the
		// class exists. Approximate: ca must itself execute the spawning
		// unit, and a's unit is reachable from a pre-spawn call site.
		if s.Parent.Classes[ca] && m.preWindow(s)[a.Unit] {
			return true
		}
		// Main-goroutine timeline: for a singleton spawn, a unit the main
		// goroutine executes is on the call chain leading to the spawn
		// (ordered up to the chain call site), reachable from post-spawn
		// sites (not ordered), or off-chain — a completed call made before
		// the spawn (ordered).
		if ca == MainClass && !s.InLoop {
			after, best := m.mainView(s)
			if !after[a.Unit] {
				if p, onChain := best[a.Unit]; onChain {
					if p != token.NoPos && a.Pos < p {
						return true
					}
				} else {
					return true
				}
			}
		}
	}
	if s := m.SpawnOf(ca); s != nil && s.Kind == SpawnSweep {
		if s.Parent == b.Unit && b.Pos > s.Pos && ca != cb {
			return true
		}
	}
	// Release/acquire publication. The release may follow a in a's own
	// unit, or sit in a caller that runs a via a helper and then releases
	// (the dispatcher handler writes through a constructor, then sends the
	// reply); symmetrically the acquire may precede b in b's unit or in a
	// caller that acquired before calling down (the requester receives the
	// reply, then reads through an accessor).
	var rels []types.Object
	for _, r := range a.Unit.Syncs {
		if r.Kind == SyncRelease && r.Pos >= a.Pos {
			rels = append(rels, r.Obj)
		}
	}
	for _, or := range m.coveringSyncs(a.Unit, true) {
		if or.owner.Classes[ca] {
			rels = append(rels, or.op.Obj)
		}
	}
	if len(rels) == 0 {
		return false
	}
	acquired := func(obj types.Object) bool {
		for _, q := range b.Unit.Syncs {
			if q.Kind == SyncAcquire && q.Obj == obj && q.Pos <= b.Pos {
				return true
			}
		}
		for _, oa := range m.coveringSyncs(b.Unit, false) {
			if oa.owner.Classes[cb] && oa.op.Obj == obj {
				return true
			}
		}
		return false
	}
	for _, obj := range rels {
		if acquired(obj) {
			return true
		}
	}
	return false
}

// FieldMisaligned64 reports whether a struct field holding a 64-bit value
// may land at a non-8-aligned offset on 32-bit platforms (GOARCH=386
// sizes), which breaks function-style 64-bit atomics. The check is per
// owning struct; nesting of the struct itself is not modeled.
func (m *Model) FieldMisaligned64(obj *types.Var) bool {
	sizes := &types.StdSizes{WordSize: 4, MaxAlign: 4}
	for _, named := range m.g.Named {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		idx := -1
		fields := make([]*types.Var, st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			fields[i] = st.Field(i)
			if fields[i] == obj {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		offs := sizes.Offsetsof(fields)
		return offs[idx]%8 != 0
	}
	return false
}
