package obligation_test

import (
	"go/types"
	"path/filepath"
	"testing"

	"golapi/internal/analysis"
	"golapi/internal/analysis/obligation"
)

func load(t *testing.T) (*analysis.Package, *obligation.Computer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", "sum")
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	var comp *obligation.Computer
	capture := &analysis.Analyzer{
		Name: "capture",
		Run: func(pass *analysis.Pass) error {
			ops := obligation.NewBufferOps(pass)
			if ops == nil {
				t.Fatal("NewBufferOps returned nil: fabric.Transport not loaded")
			}
			comp = obligation.New(pass, ops)
			return nil
		},
	}
	if _, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{capture}); err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	return pkg, comp
}

func fn(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	f, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %q in fixture", name)
	}
	return f
}

func TestEffects(t *testing.T) {
	pkg, comp := load(t)
	cases := []struct {
		fn   string
		arg  int
		want obligation.Effect
	}{
		{"release", 1, obligation.Consumes},
		{"release", 0, obligation.Escapes}, // untracked Transport param
		{"borrow", 0, obligation.Borrows},
		{"escape", 0, obligation.Escapes},
		{"maybe", 1, obligation.MayConsume},
		{"wrap", 1, obligation.Consumes}, // transitive, through release's summary
		{"recur", 1, obligation.Escapes}, // recursion breaks conservatively
		{"send", 1, obligation.Consumes}, // channel send transfers the obligation
		{"deferRelease", 1, obligation.Consumes},
		{"returned", 0, obligation.Escapes},
	}
	for _, c := range cases {
		if got := comp.Effect(fn(t, pkg, c.fn), c.arg); got != c.want {
			t.Errorf("Effect(%s, %d) = %v, want %v", c.fn, c.arg, got, c.want)
		}
	}
}

func TestEffectUnknown(t *testing.T) {
	pkg, comp := load(t)
	if got := comp.Effect(nil, 0); got != obligation.Escapes {
		t.Errorf("Effect(nil) = %v, want escapes", got)
	}
	if got := comp.Effect(fn(t, pkg, "borrow"), 7); got != obligation.Escapes {
		t.Errorf("out-of-range arg = %v, want escapes", got)
	}
}

func TestTransferChan(t *testing.T) {
	pkg, comp := load(t)
	send := fn(t, pkg, "send")
	sig := send.Type().(*types.Signature)
	ch := sig.Params().At(0)
	if !comp.IsTransferChan(ch) {
		t.Error("send's channel parameter not marked as a transfer channel")
	}
	if comp.IsTransferChan(sig.Params().At(1)) {
		t.Error("the buffer parameter is not a channel; must not be marked")
	}
	if comp.IsTransferChan(nil) {
		t.Error("nil object must not be a transfer channel")
	}
}
