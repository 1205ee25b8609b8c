// Package concurrency is the static concurrency core under lapivet's race
// passes (racefree, atomicmix, goteardown — invariants 12–14). It builds a
// whole-module model of the program's goroutine structure and, on top of
// the shared CFG/dataflow substrate, a happens-before/lockset approximation
// of its synchronization:
//
//   - Spawn sites: go statements, exec.Runtime.Go activities, sim.Engine.Go
//     processes, Runtime.After / time.AfterFunc timers, and parallel.Map /
//     parallel.ForEach sweep jobs. Each site is one goroutine class; a
//     function's class set is every class that can be executing it,
//     propagated over the static call graph (interface method calls are
//     resolved to every module implementation, and dynamic calls through
//     function-typed fields — the gateway's s.enqueueFn PostArg handoff —
//     through a binding map of every function value stored into them).
//
//   - Locksets: a must-hold forward dataflow over each function's CFG
//     (sync.Mutex / sync.RWMutex Lock/Unlock regions, with deferred
//     unlocks replayed at exit by the CFG builder), joined by intersection
//     at merges. Entry locksets are interprocedural: the intersection of
//     the locksets observed at every static call site, to a fixpoint.
//     Mutex identity is the mutex variable or field, instance-blind.
//
//   - The serialization domains of this codebase are modeled as one
//     pseudo-lock ⟨serialized⟩: code spawned via exec.Runtime.Go or posted
//     via Post/PostArg/PostPacket/PostDone/After runs under the runtime's
//     big lock (internal/exec contract); sim.Engine processes are
//     coroutines that the engine's hub resumes one at a time (a process
//     runs only between the hub's next and its own yield); parallel.Hooks
//     barrier callbacks (Barrier, OnQuiesce, TakeOutbox) run with every
//     engine parked — the epoch-barrier seam that orders shard outbox
//     writes against ResolveSpine reads; and callbacks handed to
//     registration surfaces (SetDeliver, RegisterHandler, Schedule) are
//     invoked on the owning runtime's domain. Distinct runtime instances
//     are collapsed into the one pseudo-lock: cross-runtime sharing of a
//     single object is out of scope here (objects move between runtimes by
//     message, which buflifetime checks).
//
//   - Happens-before edges beyond locks: constructor freshness (accesses
//     through a local built from a composite literal or new in the same
//     function), pre-spawn program order (an access in the spawning
//     function textually before the go/Go statement precedes everything
//     the spawned goroutine does), fork-join (sweep jobs and goroutines
//     joined by a WaitGroup Add/Done/Wait or a done-channel close/receive
//     in the spawning function), and release/acquire publication (a
//     channel send/close or WaitGroup.Done after the access in one class,
//     matched by a receive/Wait before the access in the other).
//
// The model is deliberately a *may*-happens-before over *must*-locksets:
// a reported pair has no evident synchronization of any kind, which keeps
// the race passes quiet on correctly synchronized code; absence of a
// report is not a proof of race freedom. The whole model is built once per
// module load (Pass.Shared) and shared by all three passes.
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

// Import paths of the runtime layers whose synchronization the model
// understands.
const (
	ExecPath     = "golapi/internal/exec"
	SimPath      = "golapi/internal/sim"
	ParallelPath = "golapi/internal/parallel"
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

func (k SpawnKind) String() string {
	switch k {
	case SpawnGo:
		return "go statement"
	case SpawnRT:
		return "runtime activity"
	case SpawnSim:
		return "simulated process"
	case SpawnAfter:
		return "timer callback"
	case SpawnSweep:
		return "sweep job"
	case SpawnEscape:
		return "registered callback"
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

// An edge is one resolved call: static, interface-resolved, or dynamic
// through a function-value binding.
type edge struct {
	site       ast.Node // the *ast.CallExpr (or binding expr) at the caller
	to         *Unit
	serialized bool // call is routed through Post*/hooks: callee holds ⟨serialized⟩
}

// A callerSite is one inbound call: who calls a unit, and where.
type callerSite struct {
	unit *Unit
	pos  token.Pos
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
	Units  []*Unit // declared functions then bound literals, source order
	Spawns []*Spawn

	unitOf  map[*types.Func]*Unit
	litUnit map[*ast.FuncLit]*Unit
	rootLit map[*ast.FuncLit]bool
	// bindings maps a function-typed field/variable to the units whose
	// values are stored into it anywhere in the module.
	bindings map[types.Object][]*Unit
	// closed records channel fields/variables that some module code
	// closes; a range over a never-closed channel cannot terminate.
	closed  map[types.Object]bool
	spawnBy map[ClassID]*Spawn
	// ifaceImpls memoizes interface-method resolution.
	ifaceImpls map[*types.Func][]*Unit
	namedTypes []*types.Named
	// callers is the reverse call graph: for each unit, the units that
	// call it and the call-site positions (for after-the-spawn walks).
	callers map[*Unit][]callerSite
	// chanAlias maps a local channel variable to the field it is stored
	// into (s.out = ch, ctlCmd{res: res}): sends on one and receives on
	// the other are the same channel for release/acquire matching.
	chanAlias map[types.Object]types.Object
	// covRel/covAcq memoize caller-side publication: for a unit, the
	// releases that follow (resp. acquires that precede) every call chain
	// reaching it. loopSpans memoizes loop statement extents per unit.
	covRel    map[*Unit][]ownedSync
	covAcq    map[*Unit][]ownedSync
	loopSpans map[*Unit][][2]token.Pos
	// forward maps function-typed parameters to the spawn kind their
	// arguments run under (interprocedural spawn forwarding, forward.go).
	forward map[*types.Var]SpawnKind
	// origins maps each unit to the program roots (func main units) that
	// can reach it; empty/absent means no known program (ambient-only).
	origins map[*Unit]map[*Unit]bool

	execPkg, simPkg, parallelPkg *types.Package
}

// Get returns the module's concurrency model, built once per load and
// shared across passes and packages.
func Get(pass *analysis.Pass) *Model {
	return pass.Shared("concurrency", func() any { return build(pass) }).(*Model)
}

// SpawnOf returns the spawn site of a class, or nil for MainClass.
func (m *Model) SpawnOf(c ClassID) *Spawn { return m.spawnBy[c] }

// ClassName renders a class for diagnostics.
func (m *Model) ClassName(c ClassID) string {
	s := m.spawnBy[c]
	if s == nil {
		return "the main goroutine"
	}
	pos := m.Fset.Position(s.Pos)
	return fmt.Sprintf("the %s at %s:%d", s.Kind, shortFile(pos.Filename), pos.Line)
}

func shortFile(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}

func build(pass *analysis.Pass) *Model {
	m := &Model{
		Fset:       pass.Fset,
		unitOf:     make(map[*types.Func]*Unit),
		litUnit:    make(map[*ast.FuncLit]*Unit),
		rootLit:    make(map[*ast.FuncLit]bool),
		bindings:   make(map[types.Object][]*Unit),
		closed:     make(map[types.Object]bool),
		spawnBy:    make(map[ClassID]*Spawn),
		ifaceImpls: make(map[*types.Func][]*Unit),
		callers:    make(map[*Unit][]callerSite),
		chanAlias:  make(map[types.Object]types.Object),
	}
	if p := pass.Lookup(ExecPath); p != nil {
		m.execPkg = p
	}
	if p := pass.Lookup(SimPath); p != nil {
		m.simPkg = p
	}
	if p := pass.Lookup(ParallelPath); p != nil {
		m.parallelPkg = p
	}

	// Declared units, in deterministic source order.
	idx := pass.FuncIndex()
	fns := make([]*types.Func, 0, len(idx))
	for fn := range idx {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		pi, pj := m.Fset.Position(fns[i].Pos()), m.Fset.Position(fns[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	for _, fn := range fns {
		fb := idx[fn]
		u := &Unit{Fn: fn, Body: fb.Body, Pkg: fb.Pkg, Classes: map[ClassID]bool{}}
		m.unitOf[fn] = u
		m.Units = append(m.Units, u)
	}
	m.collectNamedTypes(pass)

	// Phase A: spawn sites, bindings, escapes, closed channels. Scans the
	// full body of every declared unit (literals included): a spawn inside
	// an inline literal still creates a class.
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
	m.applyForwarding(m.forward)

	// Phase B: call edges, per unit, skipping subtrees of literals that
	// became their own units.
	for _, u := range m.Units {
		m.collectEdges(u)
	}

	for _, u := range m.Units {
		for _, e := range u.edges {
			m.callers[e.to] = append(m.callers[e.to], callerSite{unit: u, pos: e.site.Pos()})
		}
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

// collectNamedTypes indexes every named non-interface type declared in the
// module, for interface-method resolution.
func (m *Model) collectNamedTypes(pass *analysis.Pass) {
	for _, pkg := range pass.ModulePackages() {
		scope := pkg.Types.Scope()
		names := scope.Names()
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			m.namedTypes = append(m.namedTypes, named)
		}
	}
}

// unitForExpr resolves a function-valued expression to a unit: a literal
// (promoted to a root unit), a named function or method value, or a
// method expression. Returns nil for parameters and other dynamic values.
func (m *Model) unitForExpr(parent *Unit, e ast.Expr) *Unit {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.FuncLit); ok {
		if u := m.litUnit[lit]; u != nil {
			return u
		}
		u := &Unit{Lit: lit, Body: lit.Body, Pkg: parent.Pkg, Classes: map[ClassID]bool{}}
		m.litUnit[lit] = u
		m.rootLit[lit] = true
		m.Units = append(m.Units, u)
		return u
	}
	if fn, ok := analysis.ObjectOf(parent.Pkg.Info, e).(*types.Func); ok {
		return m.unitOf[fn]
	}
	return nil
}

// spawn records a new goroutine class.
func (m *Model) spawn(parent *Unit, root *Unit, pos token.Pos, kind SpawnKind, inLoop bool) *Spawn {
	if root == nil {
		return nil // dynamic operand (e.g. a func parameter): implementation plumbing
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
	m.spawnBy[s.Class] = s
	return s
}

// scanStructure walks one declared unit's full body for spawn sites,
// function-value bindings, registration escapes, parallel.Hooks barrier
// callbacks, and close() calls.
func (m *Model) scanStructure(u *Unit) {
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(nodeBody(n), walk)
			loopDepth--
			// Conditions/operands: scanned conservatively as non-loop.
			return false
		case *ast.GoStmt:
			m.spawn(u, m.unitForExpr(u, n.Call.Fun), n.Pos(), SpawnGo, loopDepth > 0)
			// Arguments (and a spawned literal's body) are scanned by the
			// outer traversal; the Fun operand must not ALSO bind.
			return true
		case *ast.CallExpr:
			m.scanCall(u, n, loopDepth > 0)
			return true
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					m.bindFuncValue(u, n.Lhs[i], rhs)
					m.bindChanAlias(u, n.Lhs[i], rhs)
				}
			}
			return true
		case *ast.CompositeLit:
			m.scanCompositeLit(u, n)
			return true
		}
		return true
	}
	ast.Inspect(u.Body, walk)
}

// nodeBody returns the body block of a loop statement.
func nodeBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// scanCall classifies one call expression during the structure scan:
// spawn APIs, post/registration surfaces, close().
func (m *Model) scanCall(u *Unit, call *ast.CallExpr, inLoop bool) {
	info := u.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if obj := chainObj(info, call.Args[0]); obj != nil {
				m.closed[obj] = true
			}
			return
		}
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		return
	}
	switch {
	case m.isExecGo(fn) && len(call.Args) == 2:
		m.spawn(u, m.unitForExpr(u, call.Args[1]), call.Pos(), SpawnRT, inLoop)
	case m.isSimGo(fn) && len(call.Args) == 2:
		m.spawn(u, m.unitForExpr(u, call.Args[1]), call.Pos(), SpawnSim, inLoop)
	case m.isExecAfter(fn) && len(call.Args) == 2:
		m.spawn(u, m.unitForExpr(u, call.Args[1]), call.Pos(), SpawnAfter, inLoop)
	case isTimeAfterFunc(fn) && len(call.Args) == 2:
		m.spawn(u, m.unitForExpr(u, call.Args[1]), call.Pos(), SpawnAfter, inLoop)
	case m.isSweepEntry(fn) && len(call.Args) >= 3:
		m.spawn(u, m.unitForExpr(u, call.Args[len(call.Args)-1]), call.Pos(), SpawnSweep, inLoop)
	case m.isRegistration(fn):
		for _, arg := range call.Args {
			if t := info.TypeOf(arg); t != nil {
				if _, ok := t.Underlying().(*types.Signature); ok {
					m.spawn(u, m.unitForExpr(u, arg), call.Pos(), SpawnEscape, inLoop)
				}
			}
		}
	}
}

// scanCompositeLit records function values stored into struct fields via
// composite literals — both ordinary function-typed fields (bindings for
// later dynamic calls) and parallel.Hooks barrier callbacks.
func (m *Model) scanCompositeLit(u *Unit, lit *ast.CompositeLit) {
	info := u.Pkg.Info
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	isHooks := m.isHooksType(t)
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
		fieldObj, ok := info.Uses[key].(*types.Var)
		if !ok {
			continue
		}
		if _, isChan := fieldObj.Type().Underlying().(*types.Chan); isChan {
			m.aliasChan(info, kv.Value, fieldObj)
			continue
		}
		if _, isFn := fieldObj.Type().Underlying().(*types.Signature); !isFn {
			continue
		}
		if tgt := m.unitForExpr(u, kv.Value); tgt != nil {
			if isHooks {
				// Barrier callbacks run with every engine parked: the
				// epoch-barrier seam, on the serialization domain.
				u.edges = append(u.edges, &edge{site: kv.Value, to: tgt, serialized: true})
			} else {
				m.bindings[fieldObj] = append(m.bindings[fieldObj], tgt)
			}
		}
	}
}

// bindFuncValue records `x.field = fn` / `var = fn` bindings of function
// values, so later dynamic calls (f(), Post(f, ...)) resolve.
func (m *Model) bindFuncValue(u *Unit, lhs, rhs ast.Expr) {
	info := u.Pkg.Info
	t := info.TypeOf(rhs)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Signature); !ok {
		return
	}
	obj := chainObj(info, lhs)
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); !ok || v.Name() == "_" {
		_ = v
		return
	}
	// Fields, package variables, and plain locals all bind: a local closure
	// variable (kernel := func(...){...}) may be invoked from a spawned
	// workload literal, so its literal must be a unit of its own rather
	// than code attributed to the (differently-classed) enclosing function.
	if tgt := m.unitForExpr(u, rhs); tgt != nil {
		m.bindings[obj] = append(m.bindings[obj], tgt)
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
	obj := chainObj(info, lhs)
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); !ok || (!v.IsField() && !isPkgLevel(v)) {
		return
	}
	m.aliasChan(info, rhs, obj)
}

// aliasChan maps the local channel variable in src (if any) to canonical
// object canon.
func (m *Model) aliasChan(info *types.Info, src ast.Expr, canon types.Object) {
	local := chainObj(info, src)
	if local == nil || local == canon {
		return
	}
	if v, ok := local.(*types.Var); !ok || v.IsField() || isPkgLevel(v) {
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

// collectEdges resolves every call in a unit (skipping root-literal
// subtrees, which are their own units) to callee units.
func (m *Model) collectEdges(u *Unit) {
	info := u.Pkg.Info
	// A go statement's call is not a synchronous edge: the callee runs as
	// its own class (already a spawn root), never on the caller's.
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && m.rootLit[lit] && m.litUnit[lit] != u {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || goCalls[call] {
			return true
		}
		if fn := analysis.Callee(info, call); fn != nil {
			if m.isPost(fn) && len(call.Args) >= 1 {
				// Post/PostArg/PostPacket/PostDone run the posted function
				// synchronously on the caller's goroutine, under the
				// runtime lock (internal/exec contract).
				if tgt := m.postTarget(u, call.Args[0]); tgt != nil {
					for _, t := range tgt {
						u.edges = append(u.edges, &edge{site: call, to: t, serialized: true})
					}
				}
				return true
			}
			if to := m.unitOf[fn]; to != nil {
				u.edges = append(u.edges, &edge{site: call, to: to})
			} else if impls := m.interfaceImpls(fn); impls != nil {
				for _, to := range impls {
					u.edges = append(u.edges, &edge{site: call, to: to})
				}
			}
			// Function-valued arguments passed to an ordinary in-module or
			// stdlib call (sort.Slice, wallMs-style helpers) are treated
			// as invoked synchronously at the call site — unless the
			// callee's parameter forwards to a spawn API (cluster's Run
			// wrappers), which phase A½ already modeled as a spawn.
			if !m.isSpawnAPI(fn) && !m.isRegistration(fn) {
				cps := calleeParams(m, fn)
				for i, arg := range call.Args {
					if i < len(cps) {
						if _, fwd := m.forward[cps[i]]; fwd {
							continue
						}
					}
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && !m.rootLit[lit] {
						continue // inline literal: body attributed to u
					}
					if t := info.TypeOf(arg); t != nil {
						if _, isFn := t.Underlying().(*types.Signature); isFn {
							if tgt := m.unitForExpr(u, arg); tgt != nil && tgt != u {
								u.edges = append(u.edges, &edge{site: call, to: tgt})
							}
						}
					}
				}
			}
			return true
		}
		// Dynamic call through a bound function-typed field/variable.
		if obj := chainObj(info, call.Fun); obj != nil {
			for _, t := range m.bindings[obj] {
				u.edges = append(u.edges, &edge{site: call, to: t})
			}
		}
		return true
	})
}

// postTarget resolves the first argument of a Post* call: a bound field,
// a method value, or a literal.
func (m *Model) postTarget(u *Unit, e ast.Expr) []*Unit {
	if tgt := m.unitForExpr(u, e); tgt != nil {
		return []*Unit{tgt}
	}
	if obj := chainObj(u.Pkg.Info, e); obj != nil {
		return m.bindings[obj]
	}
	return nil
}

// interfaceImpls resolves an interface method to every implementing
// method declared in the module.
func (m *Model) interfaceImpls(fn *types.Func) []*Unit {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	rt := sig.Recv().Type()
	if !types.IsInterface(rt) {
		return nil
	}
	switch rt.(type) {
	case *types.TypeParam, *types.Interface:
		// A constraint method (u.Close() on a type parameter) or an
		// anonymous-interface method would resolve to every module type
		// with that signature, flooding unrelated types with the
		// caller's class. Only named module interfaces are resolved.
		return nil
	}
	if fn.Pkg() == nil || !inModule(fn.Pkg()) {
		// Resolving stdlib interface methods (io.Closer.Close, ...) to
		// every module implementation floods unrelated types with the
		// caller's class; only module-declared interfaces are resolved.
		return nil
	}
	if impls, ok := m.ifaceImpls[fn]; ok {
		return impls
	}
	iface, ok := rt.Underlying().(*types.Interface)
	if !ok {
		m.ifaceImpls[fn] = nil
		return nil
	}
	var impls []*Unit
	for _, named := range m.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
		if method, ok := obj.(*types.Func); ok {
			if u := m.unitOf[method]; u != nil {
				impls = append(impls, u)
			}
		}
	}
	m.ifaceImpls[fn] = impls
	return impls
}

// propagateClasses seeds goroutine classes at spawn roots and main-class
// roots (units nothing in the module calls or spawns) and propagates them
// over the edges to a fixpoint.
func (m *Model) propagateClasses() {
	called := make(map[*Unit]bool)
	for _, u := range m.Units {
		for _, e := range u.edges {
			called[e.to] = true
		}
	}
	for _, s := range m.Spawns {
		called[s.Root] = true
	}
	for _, targets := range m.bindings {
		for _, t := range targets {
			called[t] = true
		}
	}
	work := make([]*Unit, 0, len(m.Units))
	add := func(u *Unit, c ClassID) {
		if !u.Classes[c] {
			u.Classes[c] = true
			work = append(work, u)
		}
	}
	for _, u := range m.Units {
		if !called[u] {
			add(u, MainClass)
			u.ambient = !u.programRoot()
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

	// Propagate real-main-context along call edges: a unit's MainClass
	// membership is genuine only when some chain from a real program root
	// (func main / init) reaches it. MainClass seeded by an ambient root
	// (uncalled API surface) is a closed-world artifact, and so is the
	// MainClass it passes to its callees.
	var frontier []*Unit
	for _, u := range m.Units {
		if u.Classes[MainClass] && !called[u] && !u.ambient {
			u.mainReal = true
			frontier = append(frontier, u)
		}
	}
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, e := range u.edges {
			if !e.to.mainReal {
				e.to.mainReal = true
				frontier = append(frontier, e.to)
			}
		}
	}
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
	var work []*Unit
	for _, u := range m.Units {
		if u.Fn != nil && u.Fn.Name() == "main" && u.Pkg.Types.Name() == "main" {
			m.origins[u] = map[*Unit]bool{u: true}
			work = append(work, u)
		}
	}
	flow := func(from, to *Unit) bool {
		dst := m.origins[to]
		if dst == nil {
			dst = make(map[*Unit]bool)
			m.origins[to] = dst
		}
		changed := false
		for root := range m.origins[from] {
			if !dst[root] {
				dst[root] = true
				changed = true
			}
		}
		return changed
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range u.edges {
			if flow(u, e.to) {
				work = append(work, e.to)
			}
		}
		for _, s := range spawnsFrom[u] {
			if flow(u, s.Root) {
				work = append(work, s.Root)
			}
		}
	}
}

// classOrigins returns the programs under which access acc, executing as
// class c, can happen: the origin set of the class's spawning unit (for
// MainClass, of the accessing unit itself).
func (m *Model) classOrigins(acc *Access, c ClassID) map[*Unit]bool {
	if s := m.spawnBy[c]; s != nil {
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

// isPkgLevel reports whether v is declared at package scope.
func isPkgLevel(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// chainObj resolves an expression to the identity object the concurrency
// model tracks: the deepest field of a selector chain, or a package-level
// or local variable. Instance-blind by construction.
func chainObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[e.Sel]; obj != nil {
			return obj
		}
	case *ast.StarExpr:
		return chainObj(info, e.X)
	case *ast.IndexExpr:
		return chainObj(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return chainObj(info, e.X)
		}
	}
	return nil
}

// --- API recognizers -------------------------------------------------------

func (m *Model) isExecGo(fn *types.Func) bool {
	return m.execPkg != nil && fn.Pkg() == m.execPkg && fn.Name() == "Go"
}

func (m *Model) isSimGo(fn *types.Func) bool {
	return m.simPkg != nil && fn.Pkg() == m.simPkg && fn.Name() == "Go"
}

func (m *Model) isExecAfter(fn *types.Func) bool {
	return m.execPkg != nil && fn.Pkg() == m.execPkg && fn.Name() == "After"
}

func isTimeAfterFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "AfterFunc"
}

func (m *Model) isSweepEntry(fn *types.Func) bool {
	return m.parallelPkg != nil && fn.Pkg() == m.parallelPkg &&
		(fn.Name() == "Map" || fn.Name() == "ForEach")
}

func (m *Model) isPost(fn *types.Func) bool {
	if m.execPkg == nil || fn.Pkg() != m.execPkg {
		return false
	}
	switch fn.Name() {
	case "Post", "PostArg", "PostPacket", "PostDone":
		return true
	}
	return false
}

// isRegistration reports whether fn is a callback-registration surface:
// the callback is stored and invoked later on the owning runtime's
// serialization domain (SetDeliver, RegisterHandler, Schedule, ...).
func (m *Model) isRegistration(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	name := fn.Name()
	if len(name) >= 3 && name[:3] == "Set" && hasFuncParam(fn) {
		return inModule(pkg)
	}
	if len(name) >= 8 && name[:8] == "Register" && hasFuncParam(fn) {
		return inModule(pkg)
	}
	if m.simPkg != nil && pkg == m.simPkg && (name == "Schedule" || name == "ScheduleAt") {
		return true
	}
	return false
}

func inModule(pkg *types.Package) bool {
	const prefix = "golapi/"
	p := pkg.Path()
	return len(p) >= len(prefix) && p[:len(prefix)] == prefix
}

func hasFuncParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if _, ok := sig.Params().At(i).Type().Underlying().(*types.Signature); ok {
			return true
		}
	}
	return false
}

func (m *Model) isSpawnAPI(fn *types.Func) bool {
	return m.isExecGo(fn) || m.isSimGo(fn) || m.isExecAfter(fn) || isTimeAfterFunc(fn) ||
		m.isSweepEntry(fn) || m.isPost(fn)
}

// contractualLocks returns the locks a unit holds by API contract,
// independent of call sites: code in the exec and sim packages implements
// the serialization domains themselves (realrt's big lock, the engine's
// one-at-a-time coroutine switch), and any function taking an exec.Context or
// *sim.Proc may only run on its runtime's domain.
func (m *Model) contractualLocks(u *Unit) LockSet {
	ls := LockSet{}
	pkgPath := u.Pkg.Path
	if pkgPath == ExecPath || pkgPath == SimPath {
		ls.add(SerializedLock)
		return ls
	}
	sig := u.signature()
	if sig == nil {
		return ls
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isSerializedCtxType(t, m.execPkg, m.simPkg) {
			ls.add(SerializedLock)
			return ls
		}
	}
	return ls
}

func (u *Unit) signature() *types.Signature {
	if u.Fn != nil {
		sig, _ := u.Fn.Type().(*types.Signature)
		return sig
	}
	if u.Lit != nil {
		if t := u.Pkg.Info.TypeOf(u.Lit); t != nil {
			sig, _ := t.(*types.Signature)
			return sig
		}
	}
	return nil
}

// isSerializedCtxType reports whether t is exec.Context or *sim.Proc.
func isSerializedCtxType(t types.Type, execPkg, simPkg *types.Package) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if execPkg != nil && obj.Pkg() == execPkg && obj.Name() == "Context" {
		return true
	}
	if simPkg != nil && obj.Pkg() == simPkg && obj.Name() == "Proc" {
		return true
	}
	return false
}
