// Package creditflow enforces gateway invariant 9: a request credit,
// embodied by a pooled request object from a get/put freelist pair, is
// discharged exactly once on every control-flow path. The gateway grants
// each client a window of credits; a request object acquired by getReq
// carries one until a response restates it (respond recycles the request)
// or the request is handed to another goroutine (PostArg, a channel
// send). Dropping it on an error path shrinks the client's window
// forever; granting it twice lets the freelist hand the same request to
// two frames at once. Both are invisible at runtime until a session
// wedges.
//
// The tracked protocol is inferred, not hard-coded: any receiver with a
// matching method pair get*/put* — the getter takes nothing and returns
// a pointer to a named struct, the putter takes exactly one such pointer
// and returns nothing — is a freelist, and its element type is a credit
// object. In this module only the gateway session's getReq/putReq pair
// qualifies (mpi's getInMsg has no putter; tcpnet's pool trades []byte;
// the collective put/get are multi-parameter RPCs).
//
// The pass is a protocol for the obligation engine
// (internal/analysis/obligation), the one buflifetime also runs on, so it
// is flow-sensitive and interprocedural over the engine's summaries: a
// call to a helper whose summary Consumes the request (the gateway's
// respond) discharges the credit, so respond-then-putReq is reported as a
// double grant even though neither call is a base pool operation; a send
// on a channel that carries owned requests is a handoff, and recycling
// after it is reported too.
//
// Reports:
//
//   - double grant: putReq (or a consuming helper, or a handoff) on a
//     request already discharged on some path;
//   - use after discharge: any read or write of a request the freelist
//     may already have handed out again;
//   - dropped credit: a locally-acquired request still held on some path
//     into the function exit (reported at the getReq);
//   - inconsistent parameter: a request parameter discharged on some
//     paths but still held on others — a caller cannot hold up its end of
//     either contract. (A parameter borrowed everywhere, or consumed
//     everywhere, is a coherent contract and stays silent.)
//
// The get*/put* method bodies themselves are exempt: they are the pool
// internals the protocol abstracts over.
package creditflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golapi/internal/analysis"
	"golapi/internal/analysis/obligation"
)

// Analyzer is the creditflow pass.
var Analyzer = obligation.Analyzer(protocol,
	"creditflow",
	"every freelist request credit is discharged exactly once on every path: no drop, no double grant")

var protocol = &obligation.Protocol{
	Ops: func(pass *analysis.Pass) obligation.Ops {
		if ops := NewRequestOps(pass); ops != nil {
			return ops
		}
		return nil
	},
	Exempt:       func(ops obligation.Ops, fn *types.Func) bool { return ops.(*RequestOps).IsPool(fn) },
	Params:       true,
	TransferVerb: "PostArg",
	// "putReq() at line 12", "respond() at line 12", "PostArg at line 12",
	// "the channel send at line 12".
	Clause:        func(verb string, line int) string { return fmt.Sprintf("%s at line %d", verb, line) },
	UseAfter:      "request %s used after %s: the freelist may already have handed it out again",
	WriteAfter:    "request %s written after %s: the freelist may already have handed it out again",
	SendAfter:     "request %s handed off after %s already discharged its credit",
	ReleaseAfter:  "request %s credit granted twice: %s, after %s already discharged it",
	TransferAfter: "request %s credit granted twice: %s, after %s already discharged it",
	ConsumeAfter:  "request %s passed to %s, which recycles it, after %s already discharged it",
	Leak:          "request %s may drop its credit: not recycled or handed off on some path to return",
	Mixed:         "request %s discharged on some paths but still held on others: every path must respond, recycle, or hand it off",
}

// --- the inferred freelist protocol --------------------------------------

// RequestOps is the obligation.Ops for freelist request credits: acquire =
// the inferred get* methods, release = the put* methods, transfer =
// RealRuntime.PostArg. Construct with NewRequestOps.
type RequestOps struct {
	acquire map[*types.Func]bool
	release map[*types.Func]bool
	elems   map[*types.TypeName]bool
}

// NewRequestOps infers the module's freelist pairs, returning nil when
// there are none (the pass has nothing to track).
func NewRequestOps(pass *analysis.Pass) *RequestOps {
	type pairKey struct{ recv, elem *types.TypeName }
	gets := map[pairKey][]*types.Func{}
	puts := map[pairKey][]*types.Func{}
	for fn := range pass.FuncIndex() {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := namedOf(sig.Recv().Type())
		if recv == nil {
			continue
		}
		name := fn.Name()
		switch {
		case strings.HasPrefix(name, "get") && sig.Params().Len() == 0 && sig.Results().Len() == 1:
			if el := pointeeStruct(sig.Results().At(0).Type()); el != nil {
				k := pairKey{recv, el}
				gets[k] = append(gets[k], fn)
			}
		case strings.HasPrefix(name, "put") && sig.Params().Len() == 1 && sig.Results().Len() == 0:
			if el := pointeeStruct(sig.Params().At(0).Type()); el != nil {
				k := pairKey{recv, el}
				puts[k] = append(puts[k], fn)
			}
		}
	}
	ops := &RequestOps{
		acquire: map[*types.Func]bool{},
		release: map[*types.Func]bool{},
		elems:   map[*types.TypeName]bool{},
	}
	for k, gs := range gets {
		ps, ok := puts[k]
		if !ok {
			continue
		}
		for _, g := range gs {
			ops.acquire[g] = true
		}
		for _, p := range ps {
			ops.release[p] = true
		}
		ops.elems[k.elem] = true
	}
	if len(ops.elems) == 0 {
		return nil
	}
	return ops
}

// IsPool reports whether fn is one of the inferred pool methods, whose
// bodies the pass exempts.
func (o *RequestOps) IsPool(fn *types.Func) bool {
	return o.acquire[fn] || o.release[fn]
}

func (o *RequestOps) Name() string { return "request" }

// Tracks: pointers to an inferred freelist element type.
func (o *RequestOps) Tracks(t types.Type) bool {
	el := pointeeStruct(t)
	return el != nil && o.elems[el]
}

// Classify maps a call to its credit behaviour and the index of the
// request argument where one applies.
func (o *RequestOps) Classify(info *types.Info, call *ast.CallExpr) (obligation.Kind, int) {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return obligation.OpNone, 0
	}
	switch {
	case o.acquire[fn]:
		return obligation.OpAcquire, 0
	case o.release[fn] && len(call.Args) == 1:
		return obligation.OpRelease, 0
	case len(call.Args) == 2 && analysis.IsMethodOf(fn, analysis.ExecPath, "RealRuntime", "PostArg"):
		return obligation.OpTransfer, 1
	}
	return obligation.OpNone, 0
}

// namedOf unwraps a (possibly pointer) receiver type to its type name.
func namedOf(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// pointeeStruct returns T's type name when t is *T for a named struct T,
// else nil.
func pointeeStruct(t types.Type) *types.TypeName {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}
