// Package blx is the interprocedural + channel-transfer golden test for
// buflifetime. Every `want` here needs the ownership-summary or
// transfer-channel layer; TestIntraproceduralBaselineSilent pins that each
// of them fires.
package blx

import (
	"golapi/internal/fabric"
)

// releaseHelper consumes its buffer argument on every path: summary
// Consumes.
func releaseHelper(tr fabric.Transport, b []byte) {
	tr.Release(b)
}

// fillHeader only writes into the buffer: summary Borrows.
func fillHeader(b []byte) {
	b[0] = 1
	b[1] = 2
}

// retain stores the buffer away: summary Escapes.
var stash [][]byte

func retain(b []byte) {
	stash = append(stash, b)
}

// maybeRelease consumes on one path only: summary MayConsume, which the
// caller must treat as an escape.
func maybeRelease(tr fabric.Transport, b []byte, bad bool) {
	if bad {
		tr.Release(b)
	}
}

// useAfterHelperRelease: the summary knows releaseHelper discharged the
// buffer, so the write afterwards races the pool.
func useAfterHelperRelease(tr fabric.Transport) {
	b := tr.Alloc(64)
	releaseHelper(tr, b)
	b[0] = 1 // want `pooled transport buffer b written after releaseHelper\(\) at line \d+ discharged it`
}

// doubleReleaseViaHelper: the direct Release duplicates the helper's.
func doubleReleaseViaHelper(tr fabric.Transport) {
	b := tr.Alloc(64)
	releaseHelper(tr, b)
	tr.Release(b) // want `pooled transport buffer b released after releaseHelper\(\) at line \d+ discharged it`
}

// leakThroughBorrow: fillHeader provably only borrows, so the obligation
// stays here and the error path leaks. v2 treated the call as an escape
// and stayed silent.
func leakThroughBorrow(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64) // want `pooled transport buffer b may leak`
	fillHeader(b)
	if bad {
		return
	}
	tr.Release(b)
}

// helperConsumesClean: handing the buffer to a consuming helper is a
// complete discharge.
func helperConsumesClean(tr fabric.Transport) {
	b := tr.Alloc(64)
	fillHeader(b)
	releaseHelper(tr, b)
}

// retainEscapesClean: the callee keeps a reference; obligation moves with
// it.
func retainEscapesClean(tr fabric.Transport) {
	b := tr.Alloc(64)
	retain(b)
}

// mayConsumeEscapesClean: a path-dependent callee forces the caller to
// stop tracking (documented imprecision — silence, never a false report).
func mayConsumeEscapesClean(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64)
	maybeRelease(tr, b, bad)
}

// --- channel transfer: the reader/dispatcher/writer pipeline shape ------

type pipe struct {
	out chan []byte
}

// produceUseAfterSend: the send on the transfer channel hands the frame
// to the drain loop; touching it afterwards races the consumer.
func (p *pipe) produceUseAfterSend(tr fabric.Transport) {
	b := tr.Alloc(64)
	p.out <- b
	b[0] = 1 // want `pooled transport buffer b written after the channel send at line \d+ discharged it`
}

// releaseAfterSend: so does releasing it.
func (p *pipe) releaseAfterSend(tr fabric.Transport) {
	b := tr.Alloc(64)
	p.out <- b
	tr.Release(b) // want `pooled transport buffer b released after the channel send at line \d+ discharged it`
}

// sendClean: the send is a complete handoff.
func (p *pipe) sendClean(tr fabric.Transport) {
	b := tr.Alloc(64)
	p.out <- b
}

// drainLeak: receiving from a transfer channel is a fresh acquire — the
// continue path drops an owned frame (the gateway-writer shape, broken).
func (p *pipe) drainLeak(tr fabric.Transport, bad bool) {
	for b := range p.out { // want `pooled transport buffer b may leak`
		if bad {
			continue
		}
		tr.Release(b)
	}
}

// drainClean: every received frame is released (the gateway-writer shape,
// correct).
func (p *pipe) drainClean(tr fabric.Transport) {
	for b := range p.out {
		tr.Release(b)
	}
}

// recvLeak: a plain receive acquires too.
func (p *pipe) recvLeak(tr fabric.Transport, bad bool) {
	b := <-p.out // want `pooled transport buffer b may leak`
	if bad {
		return
	}
	tr.Release(b)
}

// recvOkLeak: the two-valued form as well.
func (p *pipe) recvOkLeak(tr fabric.Transport, bad bool) {
	b, ok := <-p.out // want `pooled transport buffer b may leak`
	if !ok {
		return
	}
	if bad {
		return
	}
	tr.Release(b)
}

// selectRecvLeak: and the select comm form.
func (p *pipe) selectRecvLeak(tr fabric.Transport, done chan struct{}, bad bool) {
	select {
	case b := <-p.out: // want `pooled transport buffer b may leak`
		if bad {
			return
		}
		tr.Release(b)
	case <-done:
	}
}

// nonTransferRecvClean: receives from channels nothing owned was ever
// sent on are not acquires.
func (p *pipe) nonTransferRecvClean(tr fabric.Transport, scratch chan []byte) {
	b := <-scratch
	b[0] = 1
}
