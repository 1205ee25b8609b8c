package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"golapi/internal/analysis/cfg"
)

// assigned is a toy may-analysis: the set of variable names that may have
// been assigned on some path. It exercises merge-at-join, loop
// convergence, and Walk determinism.
type assigned struct {
	MaySet[string]
	// transfers counts Transfer invocations, to show Solve iterates loops.
	transfers int
}

type nameSet = Set[string]

func (a *assigned) Entry() nameSet { return nameSet{} }
func (a *assigned) Transfer(n ast.Node, s nameSet) nameSet {
	a.transfers++
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				s[id.Name] = true
			}
		}
	}
	return s
}

func buildGraph(t *testing.T, src, name string) (*cfg.Graph, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package x\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return cfg.New(fd.Body), fset
		}
	}
	t.Fatalf("no function %q", name)
	return nil, nil
}

func names(s nameSet) string {
	var ns []string
	for k := range s {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	return strings.Join(ns, ",")
}

func TestMergeAtJoin(t *testing.T) {
	g, _ := buildGraph(t, `
func f(c bool) {
	if c {
		a := 1
		_ = a
	} else {
		b := 2
		_ = b
	}
	done := true
	_ = done
}`, "f")
	p := &assigned{}
	res := Solve(g, p)
	out, ok := res.Out(g, g.Exit, p)
	if !ok {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	if got := names(out); got != "a,b,c,done" && got != "a,b,done" {
		// "c" only if the parameter were assigned; accept either form but
		// require both branch facts and the post-join fact.
		t.Errorf("exit state %q; want a,b,done present", got)
	}
	for _, want := range []string{"a", "b", "done"} {
		if !out[want] {
			t.Errorf("fact %q missing at exit (join lost a branch)", want)
		}
	}
}

func TestLoopConverges(t *testing.T) {
	g, _ := buildGraph(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		x := i
		_ = x
	}
	tail := 1
	_ = tail
}`, "f")
	p := &assigned{}
	res := Solve(g, p)
	out, ok := res.Out(g, g.Exit, p)
	if !ok {
		t.Fatal("exit unreachable")
	}
	// The loop-body fact must survive the back edge and reach the exit.
	if !out["x"] || !out["tail"] || !out["i"] {
		t.Errorf("exit state %q; want i, x, tail", names(out))
	}
	if p.transfers == 0 {
		t.Error("no transfers recorded")
	}
}

func TestEarlyReturnStatesStaySeparate(t *testing.T) {
	g, _ := buildGraph(t, `
func f(c bool) {
	if c {
		early := 1
		_ = early
		return
	}
	late := 2
	_ = late
}`, "f")
	p := &assigned{}
	res := Solve(g, p)
	// Find the block holding "late := 2": its in-state must not contain
	// "early" (that fact only flows to the exit via the return edge).
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "late" {
					if res.In[blk]["early"] {
						t.Errorf("early-return fact leaked into the fall-through path: %q", names(res.In[blk]))
					}
					return
				}
			}
		}
	}
	t.Fatal("late assignment not found")
}

func TestUnreachableBlocksAbsent(t *testing.T) {
	g, _ := buildGraph(t, `
func f() {
	return
	x := 1 //nolint
	_ = x
}`, "f")
	p := &assigned{}
	res := Solve(g, p)
	for _, blk := range g.Blocks {
		if blk.Kind == "unreachable" {
			if _, ok := res.In[blk]; ok && len(blk.Preds) == 0 {
				t.Errorf("unreachable block #%d has an in-state", blk.Index)
			}
		}
	}
}

func TestWalkVisitsEachNodeOnce(t *testing.T) {
	g, _ := buildGraph(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		x := i
		_ = x
	}
}`, "f")
	p := &assigned{}
	res := Solve(g, p)
	counter := &assigned{}
	res.Walk(g, counter)
	nodes := 0
	for _, blk := range g.Blocks {
		if _, ok := res.In[blk]; ok {
			nodes += len(blk.Nodes)
		}
	}
	if counter.transfers != nodes {
		t.Errorf("Walk transferred %d times over %d reachable nodes", counter.transfers, nodes)
	}
}
