package stats_test

import (
	"strings"
	"testing"

	"golapi/internal/analysis"
	"golapi/internal/analysis/atomicmix"
	"golapi/internal/analysis/concurrency"
	"golapi/internal/analysis/goteardown"
	"golapi/internal/analysis/racefree"
)

// TestConcurrencyClean pins the Counters accounting story: the fixed
// names' array is touched only through sync/atomic and the per-shard table
// only under mu, so racefree, atomicmix (which also checks the alignment of
// the 64-bit function-style atomics) and goteardown pass this package with
// zero suppressions — Counters stays safe to share between the simulator,
// the transport goroutines and the epoch barrier without per-caller
// discipline. The probe asserts the representation structurally (the model
// resolves the v-field accesses as atomic and the shard-field accesses
// under the mu lockset) rather than relying on the passes having merely
// found nothing to say.
func TestConcurrencyClean(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}

	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "verifies every fixed-counter access is atomic and every per-shard access is under mu",
		Run: func(pass *analysis.Pass) error {
			m := concurrency.Get(pass)
			atomics, guarded := 0, 0
			for _, u := range m.Units {
				if u.Pkg != pass.Pkg {
					continue
				}
				for _, a := range u.Accesses {
					pos := l.Fset.Position(a.Pos)
					switch a.Obj.Name() {
					case "v":
						if !a.Atomic {
							t.Errorf("%s:%d: plain access to Counters.v", pos.Filename, pos.Line)
						}
						atomics++
					case "shard":
						held := false
						for o := range a.Locks {
							if o.Name() == "mu" {
								held = true
							}
						}
						if !held {
							t.Errorf("%s:%d: access to Counters.shard not under mu (lockset %v)", pos.Filename, pos.Line, a.Locks)
						}
						guarded++
					}
				}
			}
			if atomics == 0 {
				t.Error("model resolved no atomic accesses to Counters.v: the guarantee is vacuous")
			}
			if guarded == 0 {
				t.Error("model resolved no accesses to Counters.shard: the guarantee is vacuous")
			}
			return nil
		},
	}
	if _, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{probe}); err != nil {
		t.Fatalf("RunPackage(probe): %v", err)
	}

	passes := []*analysis.Analyzer{racefree.Analyzer, atomicmix.Analyzer, goteardown.Analyzer}
	diags, _, err := analysis.RunPackage(l, pkg, passes)
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		name := pos.Filename
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		t.Errorf("%s:%d: [%s] %s", name, pos.Line, d.Analyzer, d.Message)
	}
}
