package obligation_test

import (
	"bytes"
	"fmt"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"golapi/internal/analysis"
	"golapi/internal/analysis/creditflow"
	"golapi/internal/analysis/obligation"
)

// effectsFixtures are the ownership fixtures whose summaries the golden
// pins, relative to internal/analysis.
var effectsFixtures = []string{
	"obligation/testdata/src/sum",
	"buflifetime/testdata/src/bl",
	"buflifetime/testdata/src/blx",
	"creditflow/testdata/src/cf",
	"teardownpath/testdata/src/tp",
}

// TestEffectsGolden pins every per-parameter Effect and every transfer
// channel the summary mode computes for the functions of each ownership
// fixture, under both protocols (buffer and request), against
// testdata/effects.golden. On a mismatch the actual dump is left in
// $TMPDIR/lapivet-effects.golden.
func TestEffectsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, fixture := range effectsFixtures {
		dumpFixture(t, &buf, fixture)
	}
	got := buf.Bytes()
	want, err := os.ReadFile(filepath.Join("testdata", "effects.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	out := filepath.Join(os.TempDir(), "lapivet-effects.golden")
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
			t.Fatalf("effects differ from testdata/effects.golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// dumpFixture loads one fixture and writes, per protocol, one line per
// function declared in it (its parameters' effects) and one line per
// transfer channel it declares.
func dumpFixture(t *testing.T, w *bytes.Buffer, fixture string) {
	t.Helper()
	dir := filepath.Join("..", filepath.FromSlash(fixture))
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	protocols := []struct {
		name string
		ops  func(*analysis.Pass) obligation.Ops
	}{
		{"buffer", func(pass *analysis.Pass) obligation.Ops {
			if ops := obligation.NewBufferOps(pass); ops != nil {
				return ops
			}
			return nil
		}},
		{"request", func(pass *analysis.Pass) obligation.Ops {
			if ops := creditflow.NewRequestOps(pass); ops != nil {
				return ops
			}
			return nil
		}},
	}
	for _, p := range protocols {
		fmt.Fprintf(w, "== %s %s\n", path.Base(fixture), p.name)
		dump := &analysis.Analyzer{
			Name: "dump",
			Run: func(pass *analysis.Pass) error {
				ops := p.ops(pass)
				if ops == nil {
					fmt.Fprintln(w, "inactive")
					return nil
				}
				writeEffects(w, pass, obligation.New(pass, ops))
				return nil
			},
		}
		if _, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{dump}); err != nil {
			t.Fatal(err)
		}
	}
}

// writeEffects dumps the analyzed package's summaries and transfer
// channels in source order.
func writeEffects(w *bytes.Buffer, pass *analysis.Pass, comp *obligation.Computer) {
	var objs []types.Object
	for _, obj := range pass.Pkg.Info.Defs {
		if obj != nil {
			objs = append(objs, obj)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	qual := types.RelativeTo(pass.Pkg.Types)
	for _, obj := range objs {
		pos := pass.Fset.Position(obj.Pos())
		where := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		if comp.IsTransferChan(obj) {
			fmt.Fprintf(w, "chan %s %s\n", obj.Name(), where)
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sum, ok := comp.Of(fn)
		if !ok {
			continue
		}
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = "(" + types.TypeString(recv.Type(), qual) + ")." + name
		}
		fmt.Fprintf(w, "func %s %s:", name, where)
		params := fn.Type().(*types.Signature).Params()
		for i, eff := range sum.Params {
			pname := params.At(i).Name()
			if pname == "" {
				pname = "_"
			}
			fmt.Fprintf(w, " %s=%s", pname, eff)
		}
		fmt.Fprintln(w)
	}
}
