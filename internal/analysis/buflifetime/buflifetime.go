// Package buflifetime statically enforces fabric.Transport's buffer
// ownership protocol: a buffer obtained from Transport.Alloc (or tcpnet's
// internal pool) must, on every path, be handed back — to the pool via
// Release, or to another owner via Send, a channel send, or a consuming
// callee — and must not be touched or released again afterwards. Every
// transport pools, so a leaked buffer is a permanent hole in the pool and
// a use-after-Release is a data race with whatever frame the pool backs
// next; neither is detectable at runtime.
//
// The pass is a protocol for the obligation engine
// (internal/analysis/obligation) over obligation.BufferOps. Through the
// engine it is flow-sensitive, interprocedural and channel-aware: a
// Borrows callee (header filler, checksummer) leaves the obligation in
// place, so an early return after the call still reports the leak; a
// Consumes callee (a release helper, the gateway's respond) discharges
// it; a send on a transfer channel (a chan []byte that hands frames to a
// writer goroutine, the blx fixture's pipe.out) discharges it and a
// receive from one — the writer's drain loop — acquires.
//
// Reports:
//
//   - leak: a buffer still owned on some path into the function exit
//     (reported at the acquire), e.g. an early error return that skips
//     Release;
//   - reallocation while owned: the same variable re-acquired (typically
//     on a loop back edge) while a previous allocation is unreleased;
//   - double release: Release/put on a buffer already discharged on some
//     path;
//   - use after discharge: any read, write, send, or call argument use of
//     a buffer already released, sent, or consumed by a callee.
//
// Calls into io and encoding/binary and the fabric framing helpers only
// borrow. Every fabric.Transport implementer's Alloc and Release are
// tracked: both of the module's transports, tcpnet and the simulated
// switch, pool, and the interface admits no other ownership rule.
package buflifetime

import (
	"fmt"

	"golapi/internal/analysis"
	"golapi/internal/analysis/obligation"
)

// Analyzer is the buflifetime pass.
var Analyzer = obligation.Analyzer(protocol,
	"buflifetime",
	"track pooled transport buffers across helpers and channel handoffs: leak on some path, double-Release, use-after-discharge")

const (
	vRelease = "Release"
	vSend    = "Send"
)

var protocol = &obligation.Protocol{
	Ops: func(pass *analysis.Pass) obligation.Ops {
		if ops := obligation.NewBufferOps(pass); ops != nil {
			return ops
		}
		return nil
	},
	ReleaseVerb:   vRelease,
	TransferVerb:  vSend,
	Clause:        clause,
	UseAfter:      "pooled transport buffer %s used after %s: the memory may already back another frame",
	WriteAfter:    "pooled transport buffer %s written after %s: the memory may already back another frame",
	SendAfter:     "pooled transport buffer %s sent after %s",
	ReleaseAfter:  "pooled transport buffer %[1]s released after %[3]s",
	ReleaseTwice:  "pooled transport buffer %s released twice (previous Release at line %d)",
	TransferAfter: "pooled transport buffer %[1]s sent after %[3]s",
	ConsumeAfter:  "pooled transport buffer %s passed to %s, which releases it, after %s",
	Realloc:       "pooled transport buffer %s reallocated while the allocation from line %d is still owned: Release or Send it first",
	Leak:          "pooled transport buffer %s may leak: not released or sent on some path to return",
}

// clause phrases how a buffer's obligation went away: "Release (line
// 12)", "Send (line 12)", "the channel send at line 12 discharged it",
// "respond() at line 12 discharged it".
func clause(verb string, line int) string {
	if verb == vRelease || verb == vSend {
		return fmt.Sprintf("%s (line %d)", verb, line)
	}
	return fmt.Sprintf("%s at line %d discharged it", verb, line)
}
