package concurrency_test

import (
	"path/filepath"
	"testing"

	"golapi/internal/analysis/analysistest"
	"golapi/internal/analysis/racefree"
)

// TestResolutionRaces runs racefree over the cr fixture: one race per way
// of resolving a call, none on the clean twins, and none through the two
// calls that must not resolve.
func TestResolutionRaces(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "cr"), racefree.Analyzer)
}
