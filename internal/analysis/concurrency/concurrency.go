// Package concurrency is the static concurrency model under lapivet's race
// passes (racefree, atomicmix, goteardown — invariants 12–14), built once
// per module load (Pass.Shared) and shared by all three. Call resolution
// belongs to internal/analysis/callgraph: the model follows all three kinds
// of its edges (static, interface dispatch, bound function value) and adds
// edges of its own only where a runtime API, not a call, runs the code.
// What the model owns:
//
//   - Spawn classes. Each go statement, exec.Runtime.Go activity,
//     sim.Engine.Go process, Runtime.After / time.AfterFunc timer,
//     parallel.Map / ForEach sweep job and registered callback (SetDeliver,
//     RegisterHandler, sim Schedule) mints one goroutine class, also when
//     the function reaches the spawn API through in-module wrappers (spawn
//     forwarding, forward.go). A unit's classes are every class that can
//     be executing it, propagated over the edges.
//
//   - Serialized edges. Post/PostArg/PostPacket/PostDone and RealRuntime.Do
//     run their argument under the runtime's big lock (internal/exec
//     contract), and parallel.Hooks barrier callbacks run with every engine
//     parked: both are edges whose callee holds the pseudo-lock
//     ⟨serialized⟩, as do runtime activities, simulated processes (the
//     engine resumes one coroutine at a time), registered callbacks, the
//     exec and sim packages themselves, and any function taking an
//     exec.Context or *sim.Proc. Distinct runtime instances collapse into
//     the one pseudo-lock: objects move between runtimes by message, which
//     buflifetime checks.
//
//   - Locksets: a must-hold forward dataflow over each unit's CFG
//     (sync.Mutex / RWMutex regions, deferred unlocks replayed at exit),
//     intersected at merges; a unit's entry lockset is the intersection
//     over its call sites, to a fixpoint. Mutex identity is the variable
//     or field, instance-blind.
//
//   - Happens-before beyond locks: constructor freshness, pre-spawn program
//     order, fork-join (sweep jobs; WaitGroup or done-channel joins), and
//     release/acquire publication (a send, close or Done matched by a
//     receive or Wait; a Post matched by the domain's entry).
//
// The model is a may-happens-before over must-locksets: a reported pair
// has no evident synchronization of any kind, which keeps the race passes
// quiet on correctly synchronized code; no report is no proof of race
// freedom.
package concurrency

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"

	"golapi/internal/analysis"
	"golapi/internal/analysis/callgraph"
	"golapi/internal/analysis/cfg"
)

// A ClassID identifies one goroutine class. MainClass is the program's
// original goroutine (and any code only ever reached outside a spawn).
type ClassID int

// MainClass is the implicit class of un-spawned code.
const MainClass ClassID = 0

// SpawnKind distinguishes how a goroutine class comes into being.
type SpawnKind int

const (
	// SpawnGo is a plain go statement.
	SpawnGo SpawnKind = iota
	// SpawnRT is an exec.Runtime.Go activity (serialized).
	SpawnRT
	// SpawnSim is a sim.Engine.Go process (a coroutine of the engine, serialized).
	SpawnSim
	// SpawnAfter is a Runtime.After or time.AfterFunc timer callback.
	SpawnAfter
	// SpawnSweep is a parallel.Map/ForEach job (fork-joined with caller).
	SpawnSweep
	// SpawnEscape is a callback handed to a registration surface
	// (SetDeliver, RegisterHandler, Schedule, ...): it runs later, on the
	// owning runtime's serialization domain.
	SpawnEscape
)

var spawnKinds = [...]string{"go statement", "runtime activity", "simulated process",
	"timer callback", "sweep job", "registered callback"}

func (k SpawnKind) String() string {
	if k >= 0 && int(k) < len(spawnKinds) {
		return spawnKinds[k]
	}
	return "goroutine"
}

// A Spawn is one spawn site: the birth of a goroutine class.
type Spawn struct {
	Class      ClassID
	Kind       SpawnKind
	Pos        token.Pos
	Parent     *Unit // unit containing the spawn statement
	Root       *Unit // unit the new goroutine starts in
	Serialized bool  // root runs under the ⟨serialized⟩ pseudo-lock
	Joined     bool  // fork-joined with the parent before it returns
	InLoop     bool  // spawn statement sits in a loop (many instances)
	// JoinPos is the parent-side acquire position for a joined spawn (the
	// wg.Wait / done-channel receive); the parent class only overlaps the
	// spawned class between Pos and JoinPos. NoPos when unknown.
	JoinPos token.Pos
	// window memoizes the units the parent calls inside (Pos, JoinPos);
	// prewin the units it calls before Pos (constructor phase).
	window map[*Unit]bool
	prewin map[*Unit]bool
	// mafter/mbest memoize the main-goroutine timeline split around this
	// spawn: units reachable only after it exists, and for units on the
	// call chain leading to it, the earliest chain call position.
	mafter map[*Unit]bool
	mbest  map[*Unit]token.Pos
}

// A Unit is one analyzable function body: a declared function or method,
// or a function literal that is spawned, bound to a function-typed
// field/variable, or registered as a callback. Code of other (inline)
// function literals is attributed to the enclosing unit.
type Unit struct {
	Fn   *types.Func  // nil for function-literal units
	Lit  *ast.FuncLit // nil for declared functions
	Body *ast.BlockStmt
	Pkg  *analysis.Package

	// Classes is the set of goroutine classes that may execute this unit.
	Classes map[ClassID]bool
	// Entry is the must-lockset on entry (intersection over call sites,
	// plus contractual grants). Nil until Build resolves it.
	Entry LockSet
	// Accesses are the unit's field/package-variable accesses.
	Accesses []*Access
	// Syncs are the unit's channel/WaitGroup synchronization operations.
	Syncs []SyncOp

	graph *cfg.Graph
	edges []*edge
	// fresh holds local variables bound from composite literals / new in
	// this unit: accesses through them touch an unshared object.
	fresh map[*types.Var]bool
	// seed entry locksets (spawn roots, main roots), intersected.
	seeds []LockSet
	// ambient marks a unit with no in-module caller, spawn, or binding
	// that is not a real program root (func main / init): exported API
	// surface whose calling context the module does not establish. Its
	// MainClass seed is an artifact of the closed-world assumption, so the
	// race passes do not pair its accesses under MainClass.
	ambient bool
	// mainReal marks MainClass membership witnessed by a call chain from a
	// real program root (func main / init); MainClass inherited only from
	// ambient roots is a closed-world artifact and is not paired.
	mainReal bool
	noReturn bool // exit unreachable (after never-closed-channel pruning)
	noReason string
}

// Name renders the unit for diagnostics.
func (u *Unit) Name() string {
	if u.Fn != nil {
		return u.Fn.Name()
	}
	return "func literal"
}

// An edge is one call of another unit: resolved by the call graph, or
// the model's own (a Post*/Do, a parallel.Hooks callback, a function
// value passed to an ordinary call).
type edge struct {
	site       ast.Node // the *ast.CallExpr (or Hooks value) at the caller
	to         *Unit
	kind       callgraph.Kind // how the call graph resolved it; Static for the model's own
	serialized bool           // routed through Post*/Do/Hooks: callee holds ⟨serialized⟩
}

// A callerSite is one inbound call: who calls a unit, and where.
type callerSite struct {
	unit *Unit
	pos  token.Pos
}

// A covKey names one caller-side publication query.
type covKey struct {
	u       *Unit
	release bool
}

// A SyncKind classifies one synchronization operation.
type SyncKind int

const (
	// SyncRelease publishes: channel send, close, WaitGroup.Done.
	SyncRelease SyncKind = iota
	// SyncAcquire observes: channel receive (incl. range), WaitGroup.Wait.
	SyncAcquire
)

// A SyncOp is one channel or WaitGroup operation, for release/acquire
// happens-before matching. Obj identifies the channel/WaitGroup variable
// or field, instance-blind.
type SyncOp struct {
	Obj  types.Object
	Kind SyncKind
	Pos  token.Pos
}

// An Access is one read or write of a struct field or package-level
// variable.
type Access struct {
	Unit   *Unit
	Obj    *types.Var // the field or package-scope variable
	Pos    token.Pos
	Write  bool
	Atomic bool // performed through sync/atomic functions
	Wide64 bool // 64-bit function-style atomic (alignment-sensitive)
	// Indexed marks an access through an index applied to the tracked
	// object (t.events[i] = ...): element storage, not the slice header.
	Indexed bool
	Locks   LockSet
}

// Model is the whole-module concurrency model.
type Model struct {
	Fset   *token.FileSet
	Units  []*Unit // declared functions then literal units, in creation order
	Spawns []*Spawn

	g      *callgraph.Graph
	unitOf map[*types.Func]*Unit
	// litUnit holds the literals that are units of their own (spawned,
	// bound, posted, registered, hooked); any other literal is inline code
	// of its enclosing unit.
	litUnit map[*ast.FuncLit]*Unit
	// hooks holds the parallel.Hooks callback fields: a Hooks callback runs
	// from its literal's serialized edge, not from RunEpochs' calls.
	hooks map[types.Object]bool
	// called marks units something in the module calls, spawns or binds.
	called map[*Unit]bool
	// closed records channel fields/variables that some module code
	// closes; a range over a never-closed channel cannot terminate.
	closed map[types.Object]bool
	// callers is the reverse call graph: for each unit, the units that
	// call it and the call-site positions (for after-the-spawn walks).
	callers map[*Unit][]callerSite
	// chanAlias maps a local channel variable to the field it is stored
	// into (s.out = ch, cmd{res: res}): sends on one and receives on
	// the other are the same channel for release/acquire matching.
	chanAlias map[types.Object]types.Object
	// cov memoizes caller-side publication: for a unit, the releases that
	// follow (or acquires that precede) every call chain reaching it.
	// loopSpans memoizes loop statement extents per unit.
	cov       map[covKey][]ownedSync
	loopSpans map[*Unit][][2]token.Pos
	// forward maps function-typed parameters to the spawn kind their
	// arguments run under (interprocedural spawn forwarding, forward.go).
	forward map[*types.Var]SpawnKind
	// origins maps each unit to the program roots (func main units) that
	// can reach it; empty/absent means no known program (ambient-only).
	origins map[*Unit]map[*Unit]bool
}

// Get returns the module's concurrency model, built once per load and
// shared across passes and packages.
func Get(pass *analysis.Pass) *Model {
	return pass.Shared("concurrency", func() any { return build(pass) }).(*Model)
}

// SpawnOf returns the spawn site of a class, or nil for MainClass.
func (m *Model) SpawnOf(c ClassID) *Spawn {
	if c <= MainClass || int(c) > len(m.Spawns) {
		return nil
	}
	return m.Spawns[c-1]
}

// ClassName renders a class for diagnostics.
func (m *Model) ClassName(c ClassID) string {
	s := m.SpawnOf(c)
	if s == nil {
		return "the main goroutine"
	}
	pos := m.Fset.Position(s.Pos)
	return fmt.Sprintf("the %s at %s:%d", s.Kind, filepath.Base(pos.Filename), pos.Line)
}

func build(pass *analysis.Pass) *Model {
	m := &Model{
		Fset:      pass.Fset,
		g:         callgraph.Get(pass),
		unitOf:    make(map[*types.Func]*Unit),
		litUnit:   make(map[*ast.FuncLit]*Unit),
		hooks:     make(map[types.Object]bool),
		closed:    make(map[types.Object]bool),
		callers:   make(map[*Unit][]callerSite),
		chanAlias: make(map[types.Object]types.Object),
		cov:       make(map[covKey][]ownedSync),
		loopSpans: make(map[*Unit][][2]token.Pos),
	}
	if h, ok := pass.NamedType(analysis.ParallelPath, "Hooks").(*types.Named); ok {
		st := h.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			m.hooks[st.Field(i)] = true
		}
	}
	for _, fn := range m.g.All() {
		fb := m.g.Funcs[fn]
		u := &Unit{Fn: fn, Body: fb.Body, Pkg: fb.Pkg, Classes: map[ClassID]bool{}}
		m.unitOf[fn] = u
		m.Units = append(m.Units, u)
	}

	// Phase A: spawn sites, bound literals, escapes, closed channels. Scans
	// the full body of every declared unit (literals included): a spawn
	// inside an inline literal still creates a class.
	for _, u := range m.Units {
		m.scanStructure(u)
	}

	// Aliases are complete after phase A: fold close()d locals onto their
	// canonical (stored-into) channel names.
	for obj := range m.closed {
		m.closed[m.canonChan(obj)] = true
	}

	// Phase A½: interprocedural spawn forwarding — workload literals passed
	// to functions that hand their parameter to a spawn API (cluster's
	// Run wrappers) become spawn roots of the summarized kind.
	m.forward = m.forwardKinds()
	m.applyForwarding()

	// Phase B: call edges, per unit, skipping subtrees of literals that
	// became their own units.
	for _, u := range m.Units {
		m.collectEdges(u)
	}

	m.called = make(map[*Unit]bool)
	for _, u := range m.Units {
		for _, e := range u.edges {
			m.called[e.to] = true
			m.callers[e.to] = append(m.callers[e.to], callerSite{unit: u, pos: e.site.Pos()})
		}
	}
	for _, s := range m.Spawns {
		m.called[s.Root] = true
	}
	for _, u := range m.boundUnits() {
		m.called[u] = true
	}
	m.propagateClasses()
	m.resolveOrigins()
	m.resolveLocksets()
	m.resolveFreshness()
	for _, u := range m.Units {
		m.collectAccesses(u)
	}
	for _, u := range m.Units {
		for i := range u.Syncs {
			u.Syncs[i].Obj = m.canonChan(u.Syncs[i].Obj)
		}
	}
	m.joinSpawns()
	m.markNoReturn()
	return m
}

// unit returns the unit of a call target, making a literal one on first
// use.
func (m *Model) unit(t callgraph.Target) *Unit {
	if t.Fn != nil {
		return m.unitOf[t.Fn]
	}
	u := m.litUnit[t.Lit]
	if u == nil {
		u = &Unit{Lit: t.Lit, Body: t.Lit.Body, Pkg: t.Pkg, Classes: map[ClassID]bool{}}
		m.litUnit[t.Lit] = u
		m.Units = append(m.Units, u)
	}
	return u
}

// unitForExpr resolves a function-valued expression to a unit: a literal
// (made a unit of its own) or a named function or method value. Returns
// nil for parameters and other dynamic values.
func (m *Model) unitForExpr(parent *Unit, e ast.Expr) *Unit {
	if t, ok := m.g.Value(parent.Pkg, e); ok {
		return m.unit(t)
	}
	return nil
}

// inspect is ast.Inspect over n without the function literals that are
// units of their own: their code is theirs, not n's unit's.
func (m *Model) inspect(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && m.litUnit[lit] != nil {
			return false
		}
		return f(n)
	})
}

// boundUnits returns the units of every function value the call graph
// binds to a field or variable other than a parallel.Hooks callback.
func (m *Model) boundUnits() []*Unit {
	var out []*Unit
	for obj, bs := range m.g.Bound {
		if !m.hooks[obj] {
			for _, b := range bs {
				out = append(out, m.unit(b.To))
			}
		}
	}
	return out
}

// spawn records a new goroutine class.
func (m *Model) spawn(parent *Unit, root *Unit, pos token.Pos, kind SpawnKind, inLoop bool) {
	if root == nil {
		return // dynamic operand (e.g. a func parameter): implementation plumbing
	}
	s := &Spawn{
		Class:      ClassID(len(m.Spawns) + 1),
		Kind:       kind,
		Pos:        pos,
		Parent:     parent,
		Root:       root,
		Serialized: kind == SpawnRT || kind == SpawnSim || kind == SpawnEscape,
		Joined:     kind == SpawnSweep,
		InLoop:     inLoop,
	}
	if kind == SpawnSweep {
		// Map/ForEach return only after every job completes: the parent's
		// overlap window is the call expression itself — empty.
		s.JoinPos = pos
	}
	m.Spawns = append(m.Spawns, s)
}

// inspectLoops calls visit for every node under body, in ast.Inspect
// order, with whether it sits in the body of a for or range statement.
func inspectLoops(body *ast.BlockStmt, visit func(n ast.Node, inLoop bool)) {
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		var header []ast.Node
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case nil:
			return false
		case *ast.ForStmt:
			header, loopBody = []ast.Node{n.Init, n.Cond, n.Post}, n.Body
		case *ast.RangeStmt:
			header, loopBody = []ast.Node{n.Key, n.Value, n.X}, n.Body
		default:
			visit(n, depth > 0)
			return true
		}
		for _, h := range header {
			if h != nil {
				ast.Inspect(h, walk)
			}
		}
		depth++
		ast.Inspect(loopBody, walk)
		depth--
		return false
	}
	ast.Inspect(body, walk)
}

// scanStructure walks one declared unit's full body for spawn sites,
// registration escapes, parallel.Hooks barrier callbacks, the literals
// the call graph binds, channel aliases and close() calls.
func (m *Model) scanStructure(u *Unit) {
	info := u.Pkg.Info
	inspectLoops(u.Body, func(n ast.Node, inLoop bool) {
		if kind, fn, ok := m.spawnSite(info, n); ok {
			m.spawn(u, m.unitForExpr(u, fn), n.Pos(), kind, inLoop)
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			m.scanCall(u, n, inLoop)
		case *ast.AssignStmt:
			for _, t := range m.g.Stores[n] {
				m.unit(t)
			}
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					m.bindChanAlias(u, n.Lhs[i], rhs)
				}
			}
		case *ast.CompositeLit:
			for _, t := range m.g.Stores[n] {
				m.unit(t)
			}
			m.scanCompositeLit(u, n)
		}
	})
}

// spawnSite classifies n as a spawn site: a go statement, or a call of a
// spawn API (exec's Go and After, sim.Engine.Go, time.AfterFunc, a
// parallel sweep). It returns the kind and the function-valued expression
// whose code the new class runs.
func (m *Model) spawnSite(info *types.Info, n ast.Node) (SpawnKind, ast.Expr, bool) {
	switch n := n.(type) {
	case *ast.GoStmt:
		return SpawnGo, n.Call.Fun, true
	case *ast.CallExpr:
		if job := analysis.SweepJob(info, n); job != nil {
			return SpawnSweep, job, true
		}
		fn := analysis.Callee(info, n)
		if fn == nil || len(n.Args) != 2 {
			break
		}
		switch {
		case inPkg(fn, analysis.ExecPath, "Go"):
			return SpawnRT, n.Args[1], true
		case inPkg(fn, analysis.SimPath, "Go"):
			return SpawnSim, n.Args[1], true
		case inPkg(fn, analysis.ExecPath, "After"), inPkg(fn, "time", "AfterFunc"):
			return SpawnAfter, n.Args[1], true
		}
	}
	return 0, nil, false
}

// scanCall records a close() call, or the callbacks a registration
// surface takes, each of which escapes to a class of its own.
func (m *Model) scanCall(u *Unit, call *ast.CallExpr, inLoop bool) {
	info := u.Pkg.Info
	if ch := closedChan(info, call); ch != nil {
		if obj := analysis.ChainObj(info, ch); obj != nil {
			m.closed[obj] = true
		}
	} else if fn := analysis.Callee(info, call); fn != nil && isRegistration(fn) {
		for _, arg := range call.Args {
			if t := info.TypeOf(arg); t != nil && isFunc(t) {
				m.spawn(u, m.unitForExpr(u, arg), call.Pos(), SpawnEscape, inLoop)
			}
		}
	}
}

// closedChan returns the channel a call of the builtin close closes, or
// nil for any other call.
func closedChan(info *types.Info, call *ast.CallExpr) ast.Expr {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) == 1 {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
			return call.Args[0]
		}
	}
	return nil
}

// scanCompositeLit records channel-typed locals stored into fields, and
// the serialized edges to parallel.Hooks barrier callbacks.
func (m *Model) scanCompositeLit(u *Unit, lit *ast.CompositeLit) {
	info := u.Pkg.Info
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		field, ok := info.Uses[key].(*types.Var)
		if !ok {
			continue
		}
		if _, isChan := field.Type().Underlying().(*types.Chan); isChan {
			m.aliasChan(info, kv.Value, field)
		} else if m.hooks[field] && isFunc(field.Type()) {
			// Barrier callbacks run with every engine parked: the
			// epoch-barrier seam, on the serialization domain.
			if tgt := m.unitForExpr(u, kv.Value); tgt != nil {
				u.edges = append(u.edges, &edge{site: kv.Value, to: tgt, serialized: true})
			}
		}
	}
}

// bindChanAlias records `x.field = ch` stores of channel-typed locals into
// fields or package variables: the two names are one channel for the
// release/acquire rules.
func (m *Model) bindChanAlias(u *Unit, lhs, rhs ast.Expr) {
	info := u.Pkg.Info
	t := info.TypeOf(rhs)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return
	}
	obj := analysis.ChainObj(info, lhs)
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); !ok || (!v.IsField() && !analysis.IsPkgLevel(v)) {
		return
	}
	m.aliasChan(info, rhs, obj)
}

// aliasChan maps the local channel variable in src (if any) to canonical
// object canon.
func (m *Model) aliasChan(info *types.Info, src ast.Expr, canon types.Object) {
	local := analysis.ChainObj(info, src)
	if local == nil || local == canon {
		return
	}
	if v, ok := local.(*types.Var); !ok || v.IsField() || analysis.IsPkgLevel(v) {
		return // only locals are re-pointed at their stored-into name
	}
	m.chanAlias[local] = canon
}

// canonChan resolves a channel identity through the alias map.
func (m *Model) canonChan(obj types.Object) types.Object {
	for i := 0; i < 4; i++ {
		next, ok := m.chanAlias[obj]
		if !ok {
			return obj
		}
		obj = next
	}
	return obj
}

// collectEdges records every call in a unit (skipping the subtrees of
// other units' literals) as edges to callee units: what the call graph
// resolves, plus the model's own Post*/Do edges and function values
// passed to ordinary calls.
func (m *Model) collectEdges(u *Unit) {
	info := u.Pkg.Info
	// A go statement's call is not a synchronous edge: the callee runs as
	// its own class (already a spawn root), never on the caller's.
	goCalls := make(map[*ast.CallExpr]bool)
	m.inspect(u.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goCalls[n.Call] = true
		case *ast.CallExpr:
			if !goCalls[n] {
				m.callEdges(u, info, n)
			}
		}
		return true
	})
}

// callEdges appends the edges of one call site to u.
func (m *Model) callEdges(u *Unit, info *types.Info, call *ast.CallExpr) {
	add := func(es []callgraph.Edge, serialized bool) {
		for _, e := range es {
			if !m.hooks[e.Via] {
				u.edges = append(u.edges, &edge{site: call, to: m.unit(e.To), kind: e.Kind, serialized: serialized})
			}
		}
	}
	fn := analysis.Callee(info, call)
	if fn != nil && isPost(fn) && len(call.Args) >= 1 {
		// Post/PostArg/PostPacket/PostDone/Do run the posted function
		// under the runtime lock (internal/exec contract), Do on the
		// caller's goroutine.
		add(m.g.Values(u.Pkg, call.Args[0]), true)
		return
	}
	add(m.g.Resolve(u.Pkg, call), false)
	if fn == nil || m.modeled(fn) {
		return
	}
	// Function-valued arguments passed to an ordinary in-module or stdlib
	// call (sort.Slice, wallMs-style helpers) are treated as invoked
	// synchronously at the call site — unless the callee's parameter
	// forwards to a spawn API (cluster's Run wrappers), which phase A½
	// already modeled as a spawn.
	cps := m.calleeParams(fn)
	for i, arg := range call.Args {
		if i < len(cps) {
			if _, fwd := m.forward[cps[i]]; fwd {
				continue
			}
		}
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && m.litUnit[lit] == nil {
			continue // inline literal: body attributed to u
		}
		if t := info.TypeOf(arg); t != nil && isFunc(t) {
			if tgt := m.unitForExpr(u, arg); tgt != nil && tgt != u {
				u.edges = append(u.edges, &edge{site: call, to: tgt})
			}
		}
	}
}

// propagateClasses seeds goroutine classes at spawn roots and main-class
// roots (units nothing in the module calls or spawns) and propagates them
// over the edges to a fixpoint.
func (m *Model) propagateClasses() {
	work := make([]*Unit, 0, len(m.Units))
	add := func(u *Unit, c ClassID) {
		if !u.Classes[c] {
			u.Classes[c] = true
			work = append(work, u)
		}
	}
	var roots []*Unit
	for _, u := range m.Units {
		if !m.called[u] {
			add(u, MainClass)
			u.ambient = !u.programRoot()
			if !u.ambient {
				roots = append(roots, u)
			}
		}
	}
	for _, s := range m.Spawns {
		add(s.Root, s.Class)
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range u.edges {
			for c := range u.Classes {
				add(e.to, c)
			}
		}
	}

	// A unit's MainClass membership is genuine only when some chain from a
	// real program root (func main / init) reaches it. MainClass seeded by
	// an ambient root (uncalled API surface) is a closed-world artifact,
	// and so is the MainClass it passes to its callees.
	for u := range reach(map[*Unit]bool{}, nil, roots...) {
		u.mainReal = true
	}
}

// reach adds to seen every unit reachable from seeds over call edges and,
// given spawnsFrom, from a spawning unit to the roots it spawns, and
// returns seen. Units already in seen are not walked again.
func reach(seen map[*Unit]bool, spawnsFrom map[*Unit][]*Spawn, seeds ...*Unit) map[*Unit]bool {
	var work []*Unit
	visit := func(u *Unit) {
		if !seen[u] {
			seen[u] = true
			work = append(work, u)
		}
	}
	for _, u := range seeds {
		visit(u)
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range u.edges {
			visit(e.to)
		}
		for _, s := range spawnsFrom[u] {
			visit(s.Root)
		}
	}
	return seen
}

// resolveOrigins computes, for every unit, the set of program roots (func
// main units of package main) that can reach it — over call edges, and
// through spawn sites (a spawned goroutine belongs to the programs that
// execute its spawning unit). The module holds several distinct programs
// (cmd/lapigate, cmd/lapibench, the examples); two goroutine classes whose
// origin sets are known and disjoint never share a process, so their
// accesses cannot race. Units reachable only from ambient API surface get
// an empty set — "no known program" — which is never grounds for
// suppression.
func (m *Model) resolveOrigins() {
	m.origins = make(map[*Unit]map[*Unit]bool)
	spawnsFrom := make(map[*Unit][]*Spawn)
	for _, s := range m.Spawns {
		spawnsFrom[s.Parent] = append(spawnsFrom[s.Parent], s)
	}
	for _, root := range m.Units {
		if root.Fn == nil || root.Fn.Name() != "main" || root.Pkg.Types.Name() != "main" {
			continue
		}
		for u := range reach(map[*Unit]bool{}, spawnsFrom, root) {
			if m.origins[u] == nil {
				m.origins[u] = make(map[*Unit]bool)
			}
			m.origins[u][root] = true
		}
	}
}

// classOrigins returns the programs under which access acc, executing as
// class c, can happen: the origin set of the class's spawning unit (for
// MainClass, of the accessing unit itself).
func (m *Model) classOrigins(acc *Access, c ClassID) map[*Unit]bool {
	if s := m.SpawnOf(c); s != nil {
		return m.origins[s.Parent]
	}
	return m.origins[acc.Unit]
}

// programRoot reports whether the unit is a genuine entry point the
// runtime itself calls on the main goroutine: func main in package main,
// or a package init function.
func (u *Unit) programRoot() bool {
	if u.Fn == nil {
		return false
	}
	if u.Fn.Name() == "init" {
		return true
	}
	return u.Fn.Name() == "main" && u.Pkg.Types.Name() == "main"
}

// --- API recognizers -------------------------------------------------------

// inPkg reports whether fn is declared in the package at path under one of
// names (a function, or a method of any type there).
func inPkg(fn *types.Func, path string, names ...string) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == path && slices.Contains(names, fn.Name())
}

// isPost reports whether fn runs its function argument on the runtime's
// serialization domain: Post, PostArg, PostPacket, PostDone, Do.
func isPost(fn *types.Func) bool {
	return inPkg(fn, analysis.ExecPath, "Post", "PostArg", "PostPacket", "PostDone", "Do")
}

// isRegistration reports whether fn is a callback-registration surface:
// the callback is stored and invoked later on the owning runtime's
// serialization domain (SetDeliver, RegisterHandler, Schedule, ...).
func isRegistration(fn *types.Func) bool {
	name := fn.Name()
	if strings.HasPrefix(name, "Set") || strings.HasPrefix(name, "Register") {
		return len(funcParams(fn)) > 0 && analysis.InModule(fn.Pkg())
	}
	return inPkg(fn, analysis.SimPath, "Schedule", "ScheduleAt")
}

// modeled reports whether the model handles fn's function arguments at
// the call site: a spawn API, a post, or a registration.
func (m *Model) modeled(fn *types.Func) bool {
	return inPkg(fn, analysis.ExecPath, "Go", "After") || inPkg(fn, analysis.SimPath, "Go") ||
		inPkg(fn, "time", "AfterFunc") || inPkg(fn, analysis.ParallelPath, "Map", "ForEach") ||
		isPost(fn) || isRegistration(fn)
}

func isFunc(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// contractualLocks returns the locks a unit holds by API contract,
// independent of call sites: code in the exec and sim packages implements
// the serialization domains themselves (realrt's big lock, the engine's
// one-at-a-time coroutine switch), and a function taking an exec.Context
// or *sim.Proc may only run on its runtime's domain.
func contractualLocks(u *Unit) LockSet {
	var t types.Type
	if u.Fn != nil {
		t = u.Fn.Type()
	} else {
		t = u.Pkg.Info.TypeOf(u.Lit)
	}
	ls := LockSet{}
	if u.Pkg.Path == analysis.ExecPath || u.Pkg.Path == analysis.SimPath || serializedFunc(t) {
		ls.add(SerializedLock)
	}
	return ls
}

// serializedFunc reports whether t is a function type with an
// exec.Context or *sim.Proc parameter. Such a function only ever runs on
// a serialized activity, and so does such an inline literal, whatever the
// function that builds it holds: a workload body returned by a
// constructor is called by the runtime, not by the constructor.
func serializedFunc(t types.Type) bool {
	sig, _ := t.(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			switch path, name := named.Obj().Pkg().Path(), named.Obj().Name(); {
			case path == analysis.ExecPath && name == "Context", path == analysis.SimPath && name == "Proc":
				return true
			}
		}
	}
	return false
}
