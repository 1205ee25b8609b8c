// Package bl is the buflifetime golden test: pooled transport buffers
// must be released or sent on every path, exactly once, and never touched
// afterwards. Transports without PooledSend are exempt.
package bl

import (
	"io"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/switchnet"
)

// leakOnBranch is the canonical path-sensitive leak the old AST-order
// heuristics could not see: the error path returns with the buffer owned.
func leakOnBranch(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64) // want `pooled transport buffer b may leak`
	if bad {
		return
	}
	tr.Release(b)
}

// ioErrorPathLeak is the distilled tcpnet read/write-path bug: the io call
// only borrows the buffer, so the early return leaks it.
func ioErrorPathLeak(tr fabric.Transport, r io.Reader) {
	b := tr.Alloc(64) // want `pooled transport buffer b may leak`
	if _, err := io.ReadFull(r, b); err != nil {
		return
	}
	tr.Release(b)
}

// ioErrorPathFixed releases on the error path too: clean.
func ioErrorPathFixed(tr fabric.Transport, r io.Reader) {
	b := tr.Alloc(64)
	if _, err := io.ReadFull(r, b); err != nil {
		tr.Release(b)
		return
	}
	tr.Release(b)
}

// doubleRelease releases the same buffer twice in a row.
func doubleRelease(tr fabric.Transport) {
	b := tr.Alloc(64)
	tr.Release(b)
	tr.Release(b) // want `pooled transport buffer b released twice`
}

// doubleReleaseOnBranch releases once unconditionally and once on a
// branch: the second call double-releases on the branch path.
func doubleReleaseOnBranch(tr fabric.Transport, f bool) {
	b := tr.Alloc(64)
	if f {
		tr.Release(b)
	}
	tr.Release(b) // want `pooled transport buffer b released twice`
}

// useAfterReleaseWrite stores into the buffer after giving it back.
func useAfterReleaseWrite(tr fabric.Transport) {
	b := tr.Alloc(64)
	tr.Release(b)
	b[0] = 1 // want `pooled transport buffer b written after Release`
}

// useAfterReleaseRead hands the released buffer to a borrowing call.
func useAfterReleaseRead(tr fabric.Transport, w io.Writer) {
	b := tr.Alloc(64)
	tr.Release(b)
	w.Write(b) // want `pooled transport buffer b used after Release`
}

// loopReacquire is the loop-carried case: from iteration 1 on, the Alloc
// overwrites a binding that still owns the previous iteration's buffer.
func loopReacquire(tr fabric.Transport, n int) {
	var b []byte
	for i := 0; i < n; i++ {
		b = tr.Alloc(64) // want `pooled transport buffer b reallocated while the allocation from line \d+ is still owned`
		b[0] = byte(i)
	}
	_ = b
}

// loopReleaseEachIter is the clean loop: every iteration discharges before
// the back edge re-acquires.
func loopReleaseEachIter(tr fabric.Transport, n int) {
	for i := 0; i < n; i++ {
		b := tr.Alloc(64)
		b[0] = byte(i)
		tr.Release(b)
	}
}

// sendDischarges: ownership passes to the transport at Send.
func sendDischarges(ctx exec.Context, tr fabric.Transport) {
	b := tr.Alloc(64)
	b[0] = 1
	tr.Send(ctx, 1, b, nil)
}

// sendAfterRelease hands the pool's memory to the wire.
func sendAfterRelease(ctx exec.Context, tr fabric.Transport) {
	b := tr.Alloc(64)
	tr.Release(b)
	tr.Send(ctx, 1, b, nil) // want `pooled transport buffer b sent after Release`
}

// deferReleaseDischarges: the deferred Release runs on every exit path.
func deferReleaseDischarges(tr fabric.Transport) {
	b := tr.Alloc(64)
	defer tr.Release(b)
	b[0] = 1
}

// releasedBothBranches is clean: each path discharges exactly once.
func releasedBothBranches(ctx exec.Context, tr fabric.Transport, f bool) {
	b := tr.Alloc(64)
	if f {
		tr.Release(b)
	} else {
		tr.Send(ctx, 1, b, nil)
	}
}

// returnEscapes is clean: the caller takes over the obligation
// (lapi's buildPacket pattern).
func returnEscapes(tr fabric.Transport) []byte {
	b := tr.Alloc(64)
	return b
}

// passEscapes is clean: the callee's summary says the buffer escapes (it
// is retained in a global), so the obligation moves with it. A callee
// that provably only borrows no longer silences the leak — see the
// interprocedural suite (testdata/src/blx).
func passEscapes(tr fabric.Transport) {
	b := tr.Alloc(64)
	consume(b)
}

func consume(b []byte) { stash = append(stash, b) }

// storeEscapes is clean: the buffer outlives the function in a global.
var stash [][]byte

func storeEscapes(tr fabric.Transport) {
	b := tr.Alloc(64)
	stash = append(stash, b)
}

// captureEscapes is clean: the literal's lifetime is unknown.
func captureEscapes(tr fabric.Transport, run func(func())) {
	b := tr.Alloc(64)
	run(func() { tr.Release(b) })
}

// selfSliceKeepsObligation: re-slicing through the same name is still the
// same allocation, and the error path still leaks it.
func selfSliceKeepsObligation(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64) // want `pooled transport buffer b may leak`
	b = b[:32]
	if bad {
		return
	}
	tr.Release(b)
}

// aliasBorrowLeak: reslicing into a new name is an alias borrow, not an
// escape — the base still owns the allocation (the gateway's
// `data := frame[HeaderSize:]` shape), so the error path still leaks.
func aliasBorrowLeak(tr fabric.Transport, bad bool) {
	b := tr.Alloc(64) // want `pooled transport buffer b may leak`
	data := b[8:]
	data[0] = 1
	if bad {
		return
	}
	tr.Release(b)
}

// switchLeak: the simulated switch pools its buffers (PooledSend), so a
// dropped one is a leak there too.
func switchLeak(a *switchnet.Adapter) {
	b := a.Alloc(64) // want `pooled transport buffer b may leak`
	b[0] = 1
}

// unpooled is a transport whose Contract sets no PooledSend: its Alloc is
// plain make and its Release a no-op.
type unpooled struct{ fabric.Transport }

func (unpooled) Alloc(n int) []byte { return make([]byte, n) }

func (unpooled) Contract() fabric.Contract { return fabric.Contract{} }

// unpooledExempt: dropping an unpooled transport's buffer is fine.
func unpooledExempt(a unpooled) {
	b := a.Alloc(64)
	b[0] = 1
}
