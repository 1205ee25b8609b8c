// perf.go holds the one wall-clock gate `make bench` still owns: the cost
// of the full lapivet suite as a multiple of loading the module. Every
// other harness wall-clock number is a banded benchmark/ metric, and the
// allocation budgets live in the alloc_budget_test.go files.
package bench

import (
	"runtime"
	"time"

	"golapi/internal/analysis"
	"golapi/internal/analysis/suite"
)

// LintGateReport is `lapibench -exp lintgate`'s output, kept as
// BENCH_hotpath.json by `make bench`.
type LintGateReport struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	// LintWallMs is one `make lint` equivalent — the full lapivet suite
	// over every module package, in-process, so the `go run` build step is
	// left out. LintLoadMs is the same call with no analyzer — parse and
	// type-check only — taken right after it.
	LintWallMs float64 `json:"lint_wall_ms"`
	LintLoadMs float64 `json:"lint_load_ms"`
	LintRatio  float64 `json:"lint_ratio"`
}

// lintLoadFactor caps LintWallMs at a multiple of LintLoadMs, the
// load-only time measured in the same call, so the gate follows the host
// instead of one machine's milliseconds: the fourteen passes cost 1.6x the
// load today (full/load = 2.6). The lintgate experiment fails beyond 3.5,
// so an accidentally quadratic happens-before or lockset fixpoint shows up
// in `make bench` rather than as a silently slower `make lint`.
const lintLoadFactor = 3.5

// MeasureLintGate times the suite and the bare load over the module in
// the working directory. Diagnostics are not an error here (`make lint`
// gates on them separately); only a failure to load and analyze is.
func MeasureLintGate() (LintGateReport, error) {
	r := LintGateReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	var err error
	if r.LintWallMs, err = lintWallMs(suite.Analyzers()); err != nil {
		return r, err
	}
	if r.LintLoadMs, err = lintWallMs(nil); err != nil {
		return r, err
	}
	r.LintRatio = r.LintWallMs / r.LintLoadMs
	return r, nil
}

// lintWallMs returns the real time one in-process run of analyzers over
// the module took, in milliseconds.
func lintWallMs(analyzers []*analysis.Analyzer) (float64, error) {
	start := time.Now() //lapivet:ignore simdeterminism wall-clock gate; times the analysis suite, never the simulator
	if _, err := analysis.Run(".", []string{"./..."}, analyzers); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Microseconds()) / 1e3, nil //lapivet:ignore simdeterminism wall-clock gate
}
