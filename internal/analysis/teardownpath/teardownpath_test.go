package teardownpath_test

import (
	"path/filepath"
	"testing"

	"golapi/internal/analysis/analysistest"
	"golapi/internal/analysis/teardownpath"
)

func TestTeardownpath(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "tp"), teardownpath.Analyzer)
}

// TestNoChannelBaselineMissesHandoff proves the sendUncounted finding
// needs the channel layer: its message is the handoff text, which no
// pairing check produces.
func TestNoChannelBaselineMissesHandoff(t *testing.T) {
	analysistest.CheckLayers(t, filepath.Join("testdata", "src", "tp"), teardownpath.Analyzer, []analysistest.Layer{
		{Func: "sendUncounted", Substr: "handed to another goroutine"},
	})
}
