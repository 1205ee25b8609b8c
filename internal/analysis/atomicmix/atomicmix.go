// Package atomicmix is lapivet invariant 13: a location accessed through
// sync/atomic must be accessed that way everywhere it can race. A plain
// load next to atomic stores is a real race (the compiler may tear, cache,
// or reorder it) that go vet does not catch; the converse — plain
// initialization before the goroutines exist — is fine and the shared
// concurrency model's happens-before rules (pre-spawn program order,
// freshness, fork-join) are what tell the two apart.
//
// The pass also flags function-style 64-bit atomics (atomic.AddInt64 and
// friends, as opposed to the always-aligned atomic.Int64 type) on struct
// fields that may land at a non-8-aligned offset under 32-bit layout:
// those panic at runtime on GOARCH=386/arm.
//
// Suppress deliberate mixes per line with //lapivet:ignore atomicmix
// <reason>.
package atomicmix

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"

	"golapi/internal/analysis"
	"golapi/internal/analysis/concurrency"
)

// Analyzer is the atomicmix pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "report mixed atomic/non-atomic access and misaligned 64-bit atomics",
	Run:  run,
}

type finding struct {
	pkg *analysis.Package
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	m := concurrency.Get(pass)
	findings := pass.Shared("atomicmix.findings", func() any {
		return compute(m)
	}).([]finding)
	for _, f := range findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

func compute(m *concurrency.Model) []finding {
	var out []finding
	reportedMix := make(map[*types.Var]bool)
	reportedAlign := make(map[*types.Var]bool)
	for _, u := range m.Units {
		for _, a := range u.Accesses {
			if !a.Atomic {
				continue
			}
			if a.Wide64 && !reportedAlign[a.Obj] && m.FieldMisaligned64(a.Obj) {
				reportedAlign[a.Obj] = true
				out = append(out, finding{
					pkg: u.Pkg,
					pos: a.Pos,
					msg: fmt.Sprintf("64-bit atomic on field %s, which is not 8-aligned on 32-bit platforms; move it first in the struct or use atomic.Int64",
						a.Obj.Name()),
				})
			}
			if reportedMix[a.Obj] {
				continue
			}
			if p := firstMixedPlain(m, a); p != nil {
				reportedMix[a.Obj] = true
				apos := m.Fset.Position(a.Pos)
				out = append(out, finding{
					pkg: p.Unit.Pkg,
					pos: p.Pos,
					msg: fmt.Sprintf("non-atomic access to %s, which is accessed atomically at %s:%d; both sides must use sync/atomic",
						a.Obj.Name(), filepath.Base(apos.Filename), apos.Line),
				})
			}
		}
	}
	return out
}

// firstMixedPlain finds a plain access to a's location that can run
// concurrently with the atomic one. An ordered plain access (constructor
// initialization before the spawn, a read after a fork-join) is fine.
func firstMixedPlain(m *concurrency.Model, a *concurrency.Access) *concurrency.Access {
	for _, u := range m.Units {
		for _, p := range u.Accesses {
			if p.Obj != a.Obj || p.Atomic {
				continue
			}
			if !p.Write && !a.Write {
				continue // two reads cannot tear
			}
			if racy, _ := m.Concurrent(p, a); racy {
				return p
			}
		}
	}
	return nil
}
