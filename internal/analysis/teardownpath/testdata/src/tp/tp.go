// Package tp is the teardownpath golden test: a miniature of the gateway
// server — a pooled transport, an outstanding-frame counter, and a
// response channel to a writer goroutine. The sendUncounted case is the
// channel-aware true positive: the goroutine-handoff check.
package tp

import (
	"sync/atomic"

	"golapi/internal/fabric"
)

type srv struct {
	frames atomic.Int64
	out    chan []byte
}

// countedClean: the canonical pairing — Alloc, count, hand off.
func (s *srv) countedClean(tr fabric.Transport) {
	b := tr.Alloc(64)
	s.frames.Add(1)
	s.out <- b
}

// allocUncounted: the error path returns before the count lands.
func (s *srv) allocUncounted(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64) // want `pooled Alloc not counted: no frames\.Add\(1\) on some path to return`
	if bad {
		tr.Release(b)
		s.frames.Add(-1)
		return
	}
	s.frames.Add(1)
	s.out <- b
}

// releaseUndiscounted: the teardown branch forgets the discount.
func (s *srv) releaseUndiscounted(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64)
	s.frames.Add(1)
	tr.Release(b) // want `pooled Release not discounted: no frames\.Add\(-1\) on some path to return`
	if bad {
		return
	}
	s.frames.Add(-1)
}

// overcount: a count with nothing pending wedges Close.
func (s *srv) overcount() {
	s.frames.Add(1) // want `frames\.Add\(1\) without a pending pooled Alloc on some path`
}

// overdiscount: a discount with nothing released goes negative.
func (s *srv) overdiscount() {
	s.frames.Add(-1) // want `frames\.Add\(-1\) without a preceding Release on some path`
}

// sendUncounted: the frame crosses into the writer goroutine before this
// goroutine counts it; the writer's Release+Add(-1) can land first and
// drive the counter negative. Only the channel-aware layer sees it.
func (s *srv) sendUncounted(tr fabric.Transport) {
	b := tr.Alloc(64)
	s.out <- b // want `frame handed to another goroutine while the Alloc at line \d+ is still uncounted`
	s.frames.Add(1)
}

// drainClean: the writer loop, correct — each frame released and
// discounted before the next iteration.
func (s *srv) drainClean(tr fabric.Transport) {
	for b := range s.out {
		tr.Release(b)
		s.frames.Add(-1)
	}
}

// drainSkipsDiscount: a teardown branch keeps releasing but stops
// discounting, so Close waits on frames already home.
func (s *srv) drainSkipsDiscount(tr fabric.Transport, failed bool) {
	for b := range s.out {
		tr.Release(b) // want `pooled Release not discounted: no frames\.Add\(-1\) on some path to return`
		if failed {
			continue
		}
		s.frames.Add(-1)
	}
}

// branchClean: both arms pair correctly.
func (s *srv) branchClean(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64)
	s.frames.Add(1)
	if bad {
		tr.Release(b)
		s.frames.Add(-1)
		return
	}
	s.out <- b
}
