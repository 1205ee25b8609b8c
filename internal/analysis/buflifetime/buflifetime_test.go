package buflifetime_test

import (
	"path/filepath"
	"testing"

	"golapi/internal/analysis/analysistest"
	"golapi/internal/analysis/buflifetime"
)

func TestBuflifetime(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "bl"), buflifetime.Analyzer)
}

// TestBuflifetimeInterprocedural runs the analyzer over the blx suite,
// whose every finding needs either a callee ownership summary or
// transfer-channel modeling.
func TestBuflifetimeInterprocedural(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "blx"), buflifetime.Analyzer)
}

// TestIntraproceduralBaselineSilent pins down that the blx findings are
// genuinely interprocedural: each carries the text only the summary layer
// (the helper named in the message) or the transfer-channel layer (the
// channel send, or a leak whose only acquire is a receive) produces, so
// an engine that treated every call as an escape and ignored channels
// would report none of them.
func TestIntraproceduralBaselineSilent(t *testing.T) {
	analysistest.CheckLayers(t, filepath.Join("testdata", "src", "blx"), buflifetime.Analyzer, []analysistest.Layer{
		{Func: "useAfterHelperRelease", Substr: "releaseHelper() at line"},
		{Func: "doubleReleaseViaHelper", Substr: "releaseHelper() at line"},
		{Func: "leakThroughBorrow", Substr: "may leak"},
		{Func: "produceUseAfterSend", Substr: "the channel send"},
		{Func: "releaseAfterSend", Substr: "the channel send"},
		{Func: "drainLeak", Substr: "may leak"},
		{Func: "recvLeak", Substr: "may leak"},
		{Func: "recvOkLeak", Substr: "may leak"},
		{Func: "selectRecvLeak", Substr: "may leak"},
	})
}
