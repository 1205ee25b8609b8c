package creditflow_test

import (
	"path/filepath"
	"testing"

	"golapi/internal/analysis/analysistest"
	"golapi/internal/analysis/creditflow"
)

func TestCreditflow(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "cf"), creditflow.Analyzer)
}

// TestIntraproceduralMisses pins down which cf findings are genuinely
// interprocedural or channel-aware: each such finding carries the text
// only its layer produces — "respond()" for a helper summary, "the
// channel send" for a handoff, "discharged on some paths" for the
// parameter contract; dropViaBorrower and recvDrop are leaks whose only
// witness is a Borrows summary or a receive from a transfer channel. The
// base-protocol rows (dropOnError, putTwice, useAfterPut) prove the pass
// ran at all.
func TestIntraproceduralMisses(t *testing.T) {
	analysistest.CheckLayers(t, filepath.Join("testdata", "src", "cf"), creditflow.Analyzer, []analysistest.Layer{
		{Func: "doubleGrantViaRespond", Substr: "respond()"},
		{Func: "useAfterRespond", Substr: "respond()"},
		{Func: "dropViaBorrower", Substr: "may drop its credit"},
		{Func: "sendThenRecycle", Substr: "the channel send"},
		{Func: "recvDrop", Substr: "may drop its credit"},
		{Func: "paramMixed", Substr: "discharged on some paths"},
		{Func: "dropOnError", Substr: "may drop its credit"},
		{Func: "putTwice", Substr: "after putReq()"},
		{Func: "useAfterPut", Substr: "used after putReq()"},
	})
}
