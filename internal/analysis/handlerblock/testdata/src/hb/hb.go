// Package hb is the handlerblock golden test: header handlers that block —
// directly, through helpers, through named methods, or through a captured
// exec.Context — must be flagged; completion handlers and async callbacks
// may block freely.
package hb

import (
	"golapi/internal/exec"
	"golapi/internal/lapi"
)

// directBlock calls a blocking op straight from the handler body.
func directBlock(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		c := tk.NewCounter()
		tk.Waitcntr(nil, c, 1) // want `header handler must not block: reaches \(\*Task\)\.Waitcntr`
		return lapi.AddrNil, nil
	})
}

// helperBlock reaches Fence through an intermediate function.
func helperBlock(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		drainAll(tk) // want `header handler must not block: reaches \(\*Task\)\.Fence via drainAll`
		return lapi.AddrNil, nil
	})
}

func drainAll(t *lapi.Task) {
	t.Fence(nil)
}

// server registers a named method as its handler.
type server struct {
	t *lapi.Task
}

func (s *server) handleSync(t *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	t.Barrier(nil)
	return lapi.AddrNil, nil
}

func methodBlock(s *server) {
	s.t.RegisterHandler(s.handleSync) // want `header handler must not block: reaches \(\*Task\)\.Barrier via handleSync`
}

// capturedWait blocks on the underlying primitive through a captured
// context.
func capturedWait(t *lapi.Task, ctx exec.Context, cond exec.Cond) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		ctx.Wait(cond) // want `header handler must not block: reaches exec\.Context\.Wait`
		return lapi.AddrNil, nil
	})
}

// assignedHandler flows into a HeaderHandler-typed variable rather than a
// RegisterHandler argument.
func assignedHandler() {
	var h lapi.HeaderHandler
	h = func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		tk.GetSync(nil, 0, lapi.AddrNil, nil, lapi.NoCounter) // want `header handler must not block: reaches \(\*Task\)\.GetSync`
		return lapi.AddrNil, nil
	}
	_ = h
}

// tableHandler flows through a composite-literal field.
type dispatchEntry struct {
	handler lapi.HeaderHandler
}

func tableHandler() dispatchEntry {
	return dispatchEntry{
		handler: func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			tk.ExchangeWord(nil, 0) // want `header handler must not block: reaches \(\*Task\)\.ExchangeWord`
			return lapi.AddrNil, nil
		},
	}
}

// completionMayBlock is clean: the blocking work happens in the returned
// completion handler, which runs off the dispatcher stack (§2.1 step 4).
func completionMayBlock(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		buf := tk.Alloc(info.DataLen)
		return buf, func(ctx exec.Context, t2 *lapi.Task) {
			c := t2.NewCounter()
			t2.Waitcntr(ctx, c, 1) // blocking is allowed here
			t2.Fence(ctx)
		}
	})
}

// asyncMayBlock is clean: callbacks handed to the runtime leave the handler
// stack before running.
func asyncMayBlock(t *lapi.Task, rt exec.Runtime) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		rt.Go("worker", func(ctx exec.Context) {
			tk.Gfence(ctx) // blocking is allowed here
		})
		return lapi.AddrNil, nil
	})
}

// nonBlockingOps is clean: non-blocking LAPI calls are legal in header
// handlers.
func nonBlockingOps(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		c := tk.NewCounter()
		_ = tk.Getcntr(nil, c)
		buf := tk.Alloc(info.DataLen)
		return buf, nil
	})
}

// mutualBlock reaches Fence through a mutually recursive helper pair: the
// cycle guard cuts the search at pingA's second visit, so the chain names
// each helper once. A later root that calls pingB directly reads pingB's
// memoized result.
func mutualBlock(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		pingA(tk, info.DataLen) // want `header handler must not block: reaches \(\*Task\)\.Fence via pingA → pingB`
		return lapi.AddrNil, nil
	})
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		pingB(tk, info.DataLen) // want `header handler must not block: reaches \(\*Task\)\.Fence via pingB`
		return lapi.AddrNil, nil
	})
}

func pingA(t *lapi.Task, n int) {
	if n > 0 {
		pingB(t, n-1)
	}
}

func pingB(t *lapi.Task, n int) {
	pingA(t, n-1)
	t.Fence(nil)
}

// goMayBlock is clean: a go statement runs its call after the handler
// returns, whether it names a helper or spawns a literal.
func goMayBlock(t *lapi.Task, ctx exec.Context) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		go drainAll(tk)
		go func() { tk.Gfence(ctx) }()
		return lapi.AddrNil, nil
	})
}

// syncHandler is one blocking handler registered under two indices: each
// registration is a root of its own and is reported.
func syncHandler(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	tk.Barrier(nil)
	return lapi.AddrNil, nil
}

func registerTwice(t *lapi.Task) {
	t.RegisterHandler(syncHandler) // want `header handler must not block: reaches \(\*Task\)\.Barrier via syncHandler`
	t.RegisterHandler(syncHandler) // want `header handler must not block: reaches \(\*Task\)\.Barrier via syncHandler`
}

// cycleAfterCut reaches Fence through cycA from one handler and through
// cycB, which reaches it only via cycA, from the next. The first search
// enters cycB from cycA and is cut there at cycA, before cycA's Fence is
// seen; that cut result is not kept, so the second handler is flagged too.
// The first report is suppressed: this fixture pins the second.
func cycleAfterCut(t *lapi.Task) {
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		cycA(tk) //lapivet:ignore handlerblock searched first, so that cycB's cut search precedes the handler below
		return lapi.AddrNil, nil
	})
	t.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
		cycB(tk) // want `header handler must not block: reaches \(\*Task\)\.Fence via cycB → cycA`
		return lapi.AddrNil, nil
	})
}

func cycA(t *lapi.Task) {
	cycB(t)
	t.Fence(nil)
}

func cycB(t *lapi.Task) {
	cycA(t)
}
