// Package suite lists the lapivet pass suite in its canonical order — the
// single source of truth shared by cmd/lapivet (the `make lint` gate), the
// benchmark's lint_module workload (which times each pass over the module)
// and `lapibench -exp lintgate` (the full-suite over load-only cost gate).
// testdata/golden.json pins the suite's full output over every golden
// package; TestSuiteGolden regenerates and diffs it.
package suite

import (
	"golapi/internal/analysis"
	"golapi/internal/analysis/atomicmix"
	"golapi/internal/analysis/buflifetime"
	"golapi/internal/analysis/bufreuse"
	"golapi/internal/analysis/counterproto"
	"golapi/internal/analysis/creditflow"
	"golapi/internal/analysis/ctxflow"
	"golapi/internal/analysis/goteardown"
	"golapi/internal/analysis/handlerblock"
	"golapi/internal/analysis/poollifetime"
	"golapi/internal/analysis/racefree"
	"golapi/internal/analysis/shardshare"
	"golapi/internal/analysis/simdeterminism"
	"golapi/internal/analysis/teardownpath"
)

// Analyzers returns the full lapivet suite, one analyzer per enforced
// invariant (DESIGN.md "Usage invariants"), in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		handlerblock.Analyzer,
		bufreuse.Analyzer,
		bufreuse.PinAnalyzer,
		buflifetime.Analyzer,
		counterproto.Analyzer,
		creditflow.Analyzer,
		ctxflow.Analyzer,
		simdeterminism.Analyzer,
		poollifetime.Analyzer,
		shardshare.Analyzer,
		teardownpath.Analyzer,
		racefree.Analyzer,
		atomicmix.Analyzer,
		goteardown.Analyzer,
	}
}
