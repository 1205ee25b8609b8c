package callgraph_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"golapi/internal/analysis"
	"golapi/internal/analysis/callgraph"
)

// load type-checks the cg fixture and hands back a pass plus its graph.
func load(t *testing.T) (*analysis.Package, *callgraph.Graph) {
	t.Helper()
	dir := filepath.Join("testdata", "src", "cg")
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	var g *callgraph.Graph
	capture := &analysis.Analyzer{
		Name: "capture",
		Run: func(pass *analysis.Pass) error {
			g = callgraph.Get(pass)
			return nil
		},
	}
	if _, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{capture}); err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	return pkg, g
}

func fn(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	f, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no function %q in fixture", name)
	}
	return f
}

func TestEdges(t *testing.T) {
	pkg, g := load(t)
	a, b, c := fn(t, pkg, "a"), fn(t, pkg, "b"), fn(t, pkg, "c")

	got := g.Calls[a]
	if len(got) != 2 || got[0] != b || got[1] != c {
		t.Errorf("Calls[a] = %v, want [b c] (distinct, first-call-site order)", got)
	}
	if len(g.Calls[c]) != 0 {
		t.Errorf("Calls[c] = %v, want none", g.Calls[c])
	}
	if len(g.Calls[fn(t, pkg, "viaValue")]) != 0 {
		t.Errorf("dynamic call through a function value produced an edge: %v", g.Calls[fn(t, pkg, "viaValue")])
	}

	// The method m has an edge to c; find m via the named type.
	tn := pkg.Types.Scope().Lookup("t").(*types.TypeName)
	var m *types.Func
	named := tn.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "m" {
			m = named.Method(i)
		}
	}
	if m == nil {
		t.Fatal("method m not found")
	}
	if got := g.Calls[m]; len(got) != 1 || got[0] != c {
		t.Errorf("Calls[t.m] = %v, want [c]", got)
	}
}

// firstCall returns the first call expression in fn's body.
func firstCall(t *testing.T, g *callgraph.Graph, fn *types.Func) *ast.CallExpr {
	t.Helper()
	var call *ast.CallExpr
	ast.Inspect(g.Funcs[fn].Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && call == nil {
			call = c
		}
		return call == nil
	})
	if call == nil {
		t.Fatalf("no call in %s", fn.Name())
	}
	return call
}

// TestResolve: a call resolves to its static callee, to every module
// implementation of a module interface's method, or to every value bound
// to the field it calls through; a call through a parameter nothing is
// stored into resolves to nothing.
func TestResolve(t *testing.T) {
	pkg, g := load(t)
	edges := func(name string) []string {
		var out []string
		for _, e := range g.Resolve(pkg, firstCall(t, g, fn(t, pkg, name))) {
			via := ""
			if e.Via != nil {
				via = " via " + e.Via.Name()
			}
			name := strings.ReplaceAll(e.To.Fn.FullName(), pkg.Path+".", "")
			out = append(out, fmt.Sprintf("%d %s%s", e.Kind, name, via))
		}
		return out
	}
	for _, c := range []struct {
		fn   string
		want []string
	}{
		{"a", []string{fmt.Sprintf("%d b", callgraph.Static)}},
		{"viaInterface", []string{
			fmt.Sprintf("%d (sq).area", callgraph.Interface),
			fmt.Sprintf("%d (tri).area", callgraph.Interface),
		}},
		{"viaField", []string{fmt.Sprintf("%d c via fn", callgraph.Bound)}},
		{"viaValue", nil},
	} {
		if got := edges(c.fn); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("Resolve in %s = %v, want %v", c.fn, got, c.want)
		}
	}
}

func TestPostOrder(t *testing.T) {
	pkg, g := load(t)
	order := g.PostOrder()
	if len(order) != len(g.Funcs) {
		t.Fatalf("PostOrder returned %d functions, graph has %d", len(order), len(g.Funcs))
	}
	idx := map[*types.Func]int{}
	for i, f := range order {
		if _, dup := idx[f]; dup {
			t.Fatalf("PostOrder lists %s twice", f.Name())
		}
		idx[f] = i
	}
	a, b, c := fn(t, pkg, "a"), fn(t, pkg, "b"), fn(t, pkg, "c")
	if !(idx[c] < idx[b] && idx[b] < idx[a]) {
		t.Errorf("PostOrder not callee-first: c=%d b=%d a=%d", idx[c], idx[b], idx[a])
	}
	// The loop1/loop2 cycle must terminate and include both.
	l1, l2 := fn(t, pkg, "loop1"), fn(t, pkg, "loop2")
	if _, ok := idx[l1]; !ok {
		t.Error("loop1 missing from PostOrder")
	}
	if _, ok := idx[l2]; !ok {
		t.Error("loop2 missing from PostOrder")
	}
}

func TestAllDeterministic(t *testing.T) {
	_, g := load(t)
	first := g.All()
	for run := 0; run < 3; run++ {
		again := g.All()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("All() order changed between calls at index %d", i)
			}
		}
	}
}
