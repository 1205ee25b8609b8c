package concurrency

import (
	"bytes"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"golapi/internal/analysis"
)

// loadModel builds the concurrency model over the cm fixture package.
func loadModel(t *testing.T) *Model { return loadFixture(t, "cm") }

// loadFixture builds the concurrency model over one fixture package.
func loadFixture(t *testing.T, fixture string) *Model {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	var m *Model
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "captures the concurrency model",
		Run: func(pass *analysis.Pass) error {
			m = Get(pass)
			return nil
		},
	}
	if _, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{probe}); err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	if m == nil {
		t.Fatal("probe did not run")
	}
	return m
}

// named returns the declared unit with the given function name.
func named(t *testing.T, m *Model, name string) *Unit {
	t.Helper()
	for _, u := range m.Units {
		if u.Fn != nil && u.Fn.Name() == name {
			return u
		}
	}
	t.Fatalf("no unit named %s", name)
	return nil
}

// spawnRootOf returns the root unit of the single spawn whose parent is
// the named unit.
func spawnRootOf(t *testing.T, m *Model, parent string) (*Unit, *Spawn) {
	t.Helper()
	p := named(t, m, parent)
	for _, s := range m.Spawns {
		if s.Parent == p {
			return s.Root, s
		}
	}
	t.Fatalf("no spawn with parent %s", parent)
	return nil, nil
}

// hasSync reports whether u records a sync op of the given kind on an
// object with the given name.
func hasSync(u *Unit, kind SyncKind, objName string) bool {
	for _, op := range u.Syncs {
		if op.Kind == kind && op.Obj != nil && op.Obj.Name() == objName {
			return true
		}
	}
	return false
}

// TestChannelEdges: close(done) in the spawned goroutine is a release, the
// parent's <-done the matching acquire — the channel publication edge.
func TestChannelEdges(t *testing.T) {
	m := loadModel(t)
	root, _ := spawnRootOf(t, m, "chanRelease")
	if !hasSync(root, SyncRelease, "done") {
		t.Errorf("spawned goroutine: no release on done; syncs: %v", root.Syncs)
	}
	if !hasSync(named(t, m, "chanRelease"), SyncAcquire, "done") {
		t.Error("chanRelease: no acquire on done (the <-done receive)")
	}
}

// TestWaitGroupEdges: wg.Done releases, wg.Wait acquires, and the spawn is
// recognized as fork-joined with a join position at the Wait.
func TestWaitGroupEdges(t *testing.T) {
	m := loadModel(t)
	root, s := spawnRootOf(t, m, "wgJoin")
	if !hasSync(root, SyncRelease, "wg") {
		t.Errorf("spawned goroutine: no release on wg; syncs: %v", root.Syncs)
	}
	if !hasSync(named(t, m, "wgJoin"), SyncAcquire, "wg") {
		t.Error("wgJoin: no acquire on wg (the Wait)")
	}
	if !s.Joined {
		t.Error("spawn not marked fork-joined despite Add/Done/Wait")
	}
	if s.JoinPos == 0 {
		t.Error("joined spawn has no JoinPos (the wg.Wait site)")
	}
}

// TestBarrierHook: a literal bound to a parallel.Hooks callback field runs
// with every engine parked — its unit must hold ⟨serialized⟩.
func TestBarrierHook(t *testing.T) {
	m := loadModel(t)
	for _, u := range m.Units {
		for _, a := range u.Accesses {
			if a.Obj.Name() == "shared" {
				if !u.Entry.Has(SerializedLock) {
					t.Errorf("Barrier hook unit entry = %v, want ⟨serialized⟩", u.Entry)
				}
				return
			}
		}
	}
	t.Fatal("no unit accesses shared: Hooks literal not modeled")
}

// TestPostArgEdges: rt.PostArg is a release into the serialization domain;
// the posted handler starts with the matching acquire and a serialized
// entry lockset.
func TestPostArgEdges(t *testing.T) {
	m := loadModel(t)
	if !hasSync(named(t, m, "postArg"), SyncRelease, SerializedLock.Name()) {
		t.Error("postArg: PostArg call did not record a ⟨serialized⟩ release")
	}
	h := named(t, m, "handle")
	if !h.Entry.Has(SerializedLock) {
		t.Errorf("handle entry = %v, want ⟨serialized⟩", h.Entry)
	}
	if !hasSync(h, SyncAcquire, SerializedLock.Name()) {
		t.Error("handle: no ⟨serialized⟩ acquire at entry")
	}
}

// lockNamesAt returns the lockset of the first access to objName in u.
func lockNamesAt(t *testing.T, u *Unit, objName string) LockSet {
	t.Helper()
	for _, a := range u.Accesses {
		if a.Obj.Name() == objName {
			return a.Locks
		}
	}
	t.Fatalf("%s: no access to %s", u.Fn.Name(), objName)
	return nil
}

// TestLocksetJoin: the must-lockset at a CFG merge is the intersection of
// the incoming paths — a lock held on only one branch is not held after
// the join, while a lock held on the only path survives.
func TestLocksetJoin(t *testing.T) {
	m := loadModel(t)
	if ls := lockNamesAt(t, named(t, m, "branchLock"), "val"); len(ls) != 0 {
		t.Errorf("branchLock val lockset = %v, want empty (mu held on one path only)", ls)
	}
	ls := lockNamesAt(t, named(t, m, "bothLock"), "val2")
	if len(ls) != 1 {
		t.Fatalf("bothLock val2 lockset = %v, want exactly mu", ls)
	}
	for o := range ls {
		if o.Name() != "mu" {
			t.Errorf("bothLock val2 lockset holds %s, want mu", o.Name())
		}
	}
}

// TestContextLiteralHoldsSerialized: an inline literal that takes an
// exec.Context holds ⟨serialized⟩ whatever its enclosing function holds,
// and the grant reaches the end of an eight-call chain below it.
func TestContextLiteralHoldsSerialized(t *testing.T) {
	m := loadModel(t)
	if ls := lockNamesAt(t, named(t, m, "workload"), "bodyHits"); !ls.Has(SerializedLock) {
		t.Errorf("workload body: bodyHits lockset = %v, want ⟨serialized⟩", ls)
	}
	if d := named(t, m, "depth8"); !d.Entry.Has(SerializedLock) {
		t.Errorf("depth8 entry = %v, want ⟨serialized⟩", d.Entry)
	}
}

// accessesTo returns every access to the location named objName.
func accessesTo(m *Model, objName string) []*Access {
	var out []*Access
	for _, u := range m.Units {
		for _, a := range u.Accesses {
			if a.Obj.Name() == objName {
				out = append(out, a)
			}
		}
	}
	return out
}

// anyConcurrent reports whether some pair of accesses to objName, one of
// them a write, is concurrent in the model — racefree's verdict.
func anyConcurrent(t *testing.T, m *Model, objName string) bool {
	t.Helper()
	accs := accessesTo(m, objName)
	if len(accs) < 2 {
		t.Fatalf("%s: %d accesses, want at least 2", objName, len(accs))
	}
	for i, a := range accs {
		for _, b := range accs[i+1:] {
			if a.Write || b.Write {
				if racy, _ := m.Concurrent(a, b); racy {
					return true
				}
			}
		}
	}
	return false
}

// TestDoDomain: RealRuntime.Do runs its callback on the serialization
// domain like a Post, and publishes what the caller wrote before it. A
// field written in a Do callback and in a Post callback is clean, as is a
// write before the Do; the same write after the Do, outside both, races.
func TestDoDomain(t *testing.T) {
	m := loadModel(t)
	if !named(t, m, "doRun").Entry.Has(SerializedLock) {
		t.Errorf("doRun entry = %v, want ⟨serialized⟩", named(t, m, "doRun").Entry)
	}
	root, _ := spawnRootOf(t, m, "doSession")
	if !hasSync(root, SyncRelease, SerializedLock.Name()) {
		t.Error("doSession goroutine: Do call did not record a ⟨serialized⟩ release")
	}
	if anyConcurrent(t, m, "inDo") {
		t.Error("inDo: Do-callback and Post-callback writes reported concurrent")
	}
	if anyConcurrent(t, m, "published") {
		t.Error("published: the write before Do is not ordered before the Post callback's read")
	}
	if !anyConcurrent(t, m, "outside") {
		t.Error("outside: the write outside Do and Post is not reported concurrent with the Post callback")
	}
}

// TestModelGolden pins the model itself, not only the race passes'
// messages: for each fixture, every spawn and, per unit, its goroutine
// classes, its entry lockset and its call edges (site line, target,
// serialized), against testdata/model.golden. On a mismatch the actual
// dump is left in $TMPDIR/lapivet-model.golden.
func TestModelGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, fixture := range []string{"cm", "cr"} {
		m := loadFixture(t, fixture)
		fmt.Fprintf(&buf, "== %s\n", fixture)
		dumpModel(&buf, m, func(p token.Pos) string {
			pos := m.Fset.Position(p)
			return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		})
	}
	got := buf.Bytes()
	want, err := os.ReadFile(filepath.Join("testdata", "model.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	out := filepath.Join(os.TempDir(), "lapivet-model.golden")
	if err := os.WriteFile(out, got, 0o644); err == nil {
		t.Logf("actual output written to %s", out)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("model differs from testdata/model.golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// dumpModel writes every spawn, then one line per unit in m.Units order
// (its classes and entry lockset) followed by one line per call edge, with
// positions rendered by at.
func dumpModel(w io.Writer, m *Model, at func(token.Pos) string) {
	unit := func(u *Unit) string { return u.Name() + "@" + at(u.Body.Pos()) }
	class := func(c ClassID) string {
		if s := m.SpawnOf(c); s != nil {
			return fmt.Sprintf("#%d %s@%s", c, s.Kind, at(s.Pos))
		}
		return "#0 main"
	}
	for _, s := range m.Spawns {
		fmt.Fprintf(w, "spawn %s parent=%s root=%s serialized=%t joined=%t inloop=%t",
			class(s.Class), unit(s.Parent), unit(s.Root), s.Serialized, s.Joined, s.InLoop)
		if s.JoinPos.IsValid() {
			fmt.Fprintf(w, " join=%s", at(s.JoinPos))
		}
		fmt.Fprintln(w)
	}
	for _, u := range m.Units {
		var classes, locks []string
		for _, c := range classList(u) {
			classes = append(classes, class(c))
		}
		for o := range u.Entry {
			name := o.Name()
			if o.Pos().IsValid() {
				name += "@" + at(o.Pos())
			}
			locks = append(locks, name)
		}
		sort.Strings(locks)
		fmt.Fprintf(w, "unit %s classes=[%s] entry={%s}\n", unit(u), strings.Join(classes, ", "), strings.Join(locks, " "))
		for _, e := range u.edges {
			fmt.Fprintf(w, "  %s -> %s", at(e.site.Pos()), unit(e.to))
			if e.serialized {
				fmt.Fprint(w, " serialized")
			}
			fmt.Fprintln(w)
		}
	}
}
