// Package racefree is lapivet invariant 12: no struct field or
// package-level variable may be written by one goroutine class and read or
// written by another with disjoint locksets and no happens-before edge.
// The heavy lifting — goroutine classes, must-locksets, the ⟨serialized⟩
// runtime domains, fork-join and release/acquire edges — lives in the
// shared internal/analysis/concurrency model; this pass pairs up the
// model's accesses and reports the survivors.
//
// One report is issued per racy location (the first racy pair in source
// order, anchored at its write), not per pair: a shared field touched from
// many places would otherwise bury the signal. Accesses performed through
// sync/atomic are excluded here — mixing atomic and plain access to one
// location is atomicmix's finding, not a lock violation.
//
// Intentionally unsynchronized state (monotonic hints, test-only knobs) is
// suppressed per line with //lapivet:ignore racefree <reason>.
package racefree

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"

	"golapi/internal/analysis"
	"golapi/internal/analysis/concurrency"
)

// Analyzer is the racefree pass.
var Analyzer = &analysis.Analyzer{
	Name: "racefree",
	Doc:  "report cross-goroutine accesses with no common lock or happens-before edge",
	Run:  run,
}

type finding struct {
	pkg *analysis.Package
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	m := concurrency.Get(pass)
	findings := pass.Shared("racefree.findings", func() any {
		return compute(m)
	}).([]finding)
	for _, f := range findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// compute pairs every location's accesses module-wide, once per load.
func compute(m *concurrency.Model) []finding {
	var out []finding
	for _, obj := range orderedObjs(m) {
		accs := accessesOf(m, obj)
		if f, ok := firstRace(m, obj, accs); ok {
			out = append(out, f)
		}
	}
	return out
}

// orderedObjs returns every accessed location in deterministic
// (first-access source) order.
func orderedObjs(m *concurrency.Model) []*types.Var {
	var objs []*types.Var
	seen := make(map[*types.Var]bool)
	for _, u := range m.Units {
		for _, a := range u.Accesses {
			if !seen[a.Obj] {
				seen[a.Obj] = true
				objs = append(objs, a.Obj)
			}
		}
	}
	return objs
}

func accessesOf(m *concurrency.Model, obj *types.Var) []*concurrency.Access {
	var accs []*concurrency.Access
	for _, u := range m.Units {
		for _, a := range u.Accesses {
			if a.Obj == obj {
				accs = append(accs, a)
			}
		}
	}
	return accs
}

// firstRace returns the location's first racy pair as a finding, anchored
// at the pair's write.
func firstRace(m *concurrency.Model, obj *types.Var, accs []*concurrency.Access) (finding, bool) {
	for i, a := range accs {
		for _, b := range accs[i:] {
			if !a.Write && !b.Write {
				continue
			}
			if a.Atomic || b.Atomic {
				continue // atomicmix territory
			}
			racy, combo := m.Concurrent(a, b)
			if !racy {
				continue
			}
			w, o, cw, co := a, b, combo[0], combo[1]
			if !w.Write {
				w, o, cw, co = b, a, combo[1], combo[0]
			}
			pos := m.Fset.Position(o.Pos)
			verb := "read"
			if o.Write {
				verb = "written"
			}
			msg := fmt.Sprintf(
				"possible data race on %s: written by %s (holding %s) and %s by %s at %s:%d (holding %s) with no happens-before edge",
				obj.Name(), m.ClassName(cw), w.Locks, verb, m.ClassName(co),
				filepath.Base(pos.Filename), pos.Line, o.Locks)
			return finding{pkg: w.Unit.Pkg, pos: w.Pos, msg: msg}, true
		}
	}
	return finding{}, false
}
