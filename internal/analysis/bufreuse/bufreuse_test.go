package bufreuse_test

import (
	"path/filepath"
	"testing"

	"golapi/internal/analysis/analysistest"
	"golapi/internal/analysis/bufreuse"
)

func TestBufreuse(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "br"), bufreuse.Analyzer)
}

func TestRndvpin(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "rp"), bufreuse.PinAnalyzer)
}
