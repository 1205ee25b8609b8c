// Package pl is the poollifetime golden test: header handlers that retain
// the pooled AmInfo.UHdr slice past the dispatch callback must be flagged;
// handlers that copy it first (or only read it) are clean.
package pl

import (
	"golapi/internal/exec"
	"golapi/internal/lapi"
)

var savedHdr []byte

type record struct {
	hdr []byte
}

var records []record

// storeGlobal retains the raw pooled slice in a package-level variable.
func storeGlobal(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		savedHdr = info.UHdr // want `pooled packet slice .*package-level variable`
		return lapi.AddrNil, nil
	})
}

// storeField retains the slice through a struct field on a captured value.
func storeField(t *lapi.Task, r *record) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		r.hdr = info.UHdr // want `pooled packet slice .*outside the handler's locals`
		return lapi.AddrNil, nil
	})
}

// storeViaAlias tracks the slice through a local and a re-slice before the
// escaping store.
func storeViaAlias(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		h := info.UHdr[2:]
		savedHdr = h // want `pooled packet slice .*package-level variable`
		return lapi.AddrNil, nil
	})
}

// appendElement stores the slice header (not its bytes) into a global
// composite, keeping the pooled pointer alive.
func appendElement(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		records = append(records, record{hdr: info.UHdr}) // want `pooled packet slice .*package-level variable`
		return lapi.AddrNil, nil
	})
}

// captureInCompletion reads the pooled slice from the completion handler,
// which runs after the packet buffer has been recycled.
func captureInCompletion(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		buf := tk.Alloc(info.DataLen)
		return buf, func(ctx exec.Context, tk2 *lapi.Task) {
			savedHdr = append([]byte(nil), info.UHdr...) // want `pooled packet slice .*outlives the handler`
		}
	})
}

// captureInGoroutine leaks the slice to a goroutine.
func captureInGoroutine(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		go func() {
			savedHdr = info.UHdr // want `pooled packet slice .*outlives the handler`
		}()
		return lapi.AddrNil, nil
	})
}

// namedHandler is a handler declared as a named function; the pass follows
// the reference from RegisterHandler.
func namedHandler(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	savedHdr = info.UHdr // want `pooled packet slice .*package-level variable`
	return lapi.AddrNil, nil
}

func registerNamed(t *lapi.Task) {
	t.RegisterHandler(namedHandler)
}

// copyFirst is the documented idiom: spread-append copies the bytes inside
// the handler, so the copy may go anywhere.
func copyFirst(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		hdr := append([]byte(nil), info.UHdr...)
		buf := tk.Alloc(info.DataLen)
		return buf, func(ctx exec.Context, tk2 *lapi.Task) {
			savedHdr = hdr
		}
	})
}

// loopCarriedStore is the flow-sensitive case the old source-order scan
// provably missed: on every iteration after the first, the store publishes
// the alias taken on the PREVIOUS iteration. The store precedes the alias
// assignment in source order, so a single in-order walk sees no alias yet;
// the CFG back edge carries it to the store.
func loopCarriedStore(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		var p []byte
		for i := 0; i < 2; i++ {
			savedHdr = p // want `pooled packet slice .*package-level variable`
			p = info.UHdr
		}
		return lapi.AddrNil, nil
	})
}

// branchAlias publishes the alias only when one branch took it; the
// may-union at the join keeps the obligation.
func branchAlias(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		var p []byte
		if len(info.UHdr) > 4 {
			p = info.UHdr
		}
		savedHdr = p // want `pooled packet slice .*package-level variable`
		return lapi.AddrNil, nil
	})
}

// rebindToCopyClean is the false positive the old accumulating scan
// produced: p aliased the packet once, but is rebound to a private copy
// before the store, which kills the alias.
func rebindToCopyClean(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		p := info.UHdr
		p = append([]byte(nil), p...)
		savedHdr = p
		return lapi.AddrNil, nil
	})
}

// readOnly parses the header inside the handler and keeps only scalars;
// scalar fields of info (DataLen, Src) may be used anywhere.
func readOnly(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		n := 0
		if len(info.UHdr) > 0 {
			n = int(info.UHdr[0])
		}
		buf := tk.Alloc(info.DataLen)
		_ = n
		return buf, func(ctx exec.Context, tk2 *lapi.Task) {
			records = append(records, record{hdr: make([]byte, info.DataLen)})
		}
	})
}

// keep is a helper a goroutine runs with the slice as its argument.
func keep(p []byte) { _ = p }

// passToGoroutine hands the slice to a go statement as an argument: it is
// evaluated now but used after the handler returns.
func passToGoroutine(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		go keep(info.UHdr) // want `pooled packet slice .*passed to a goroutine`
		return lapi.AddrNil, nil
	})
}

// twiceHandler is registered under two indices; its body is analyzed once,
// so its store is reported once.
func twiceHandler(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	records = append(records, record{hdr: info.UHdr}) // want `pooled packet slice .*package-level variable`
	return lapi.AddrNil, nil
}

func registerTwice(t *lapi.Task) {
	t.RegisterHandler(twiceHandler)
	t.RegisterHandler(twiceHandler)
}
