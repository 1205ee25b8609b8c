package ga

// Row operations for clients that hold data in GA's own storage format —
// big-endian float64s, the encoding of every block in the owners' LAPI
// heaps — such as the gateway (internal/gateway), whose wire format it is.
// A row segment maps onto each owner's block as one contiguous run, so
// each remote piece is one LAPI Put, one Get, or one accumulate request to
// GA's own request handler, straight from or into the caller's bytes with
// no pack copy; a piece this task owns is applied in place by
// Config.apply, as the owner would apply a request. All three are
// LAPI-backend-only: the MPL backend has no remote memory to address, so
// they return an error there.

import (
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/lapi"
)

// PutRow stores data, len(data)/8 big-endian float64s, into elements
// [col, col+len(data)/8) of row. It returns once every owner holds them.
func (a *Array) PutRow(ctx exec.Context, row, col int, data []byte) error {
	return a.rowOp(ctx, gaPut, row, col, 0, data)
}

// GetRow fills out, len(out)/8 big-endian float64s, from elements
// [col, col+len(out)/8) of row. It returns once out is filled.
func (a *Array) GetRow(ctx exec.Context, row, col int, out []byte) error {
	return a.rowOp(ctx, gaGetReq, row, col, 0, out)
}

// AccRow atomically adds alpha times data, big-endian float64s, to
// elements [col, col+len(data)/8) of row, like Acc. It returns once every
// owner has folded its piece in.
func (a *Array) AccRow(ctx exec.Context, row, col int, alpha float64, data []byte) error {
	return a.rowOp(ctx, gaAcc, row, col, alpha, data)
}

// rowOp runs one row operation on the pieces decompose cuts the segment
// into, waiting on one borrowed counter: the target completion counter of
// a Put or an accumulate, the origin counter of a Get.
func (a *Array) rowOp(ctx exec.Context, op byte, row, col int, alpha float64, data []byte) error {
	b, ok := a.w.b.(*lapiBackend)
	if !ok {
		return fmt.Errorf("ga: row operations need the LAPI backend")
	}
	p := Patch{RLo: row, RHi: row, CLo: col, CHi: col + len(data)/8 - 1}
	if err := a.checkPatch(p); err != nil || len(data)%8 != 0 {
		return fmt.Errorf("ga: row segment %v of %d bytes outside %dx%d array", p, len(data), a.rows, a.cols)
	}
	in := b.info(a.handle)
	cntr := b.borrowCntr()
	defer b.returnCntr(cntr)
	issued := 0
	var err error
	var subs [4]subRequest
	for _, s := range a.decompose(p, subs[:0]) {
		piece := data[(s.sub.CLo-col)*8 : (s.sub.CHi+1-col)*8]
		h := gaHdr{op: op, handle: uint16(a.handle), sub: s.sub, alpha: alpha}
		if s.owner == b.self() {
			if op == gaAcc {
				b.accMu.lock(ctx)
			}
			b.cfg.apply(ctx, &h, piece, in.block, in.local, func(int) []byte { return piece })
			if op == gaAcc {
				b.accMu.unlock()
			}
			continue
		}
		switch op {
		case gaPut:
			err = b.t.Put(ctx, s.owner, b.remoteAddr(a, s.owner, row, s.sub.CLo), piece, lapi.NoCounter, nil, cntr)
		case gaGetReq:
			err = b.t.Get(ctx, s.owner, b.remoteAddr(a, s.owner, row, s.sub.CLo), piece, lapi.NoCounter, cntr)
		default:
			// Amsend copies the header into its first packet before it
			// returns, so the header buffer goes back at once.
			hdr := h.encode(b.scratch.borrow(gaHdrSize))
			err = b.t.Amsend(ctx, s.owner, b.reqH, hdr, piece, lapi.NoCounter, nil, cntr)
			b.scratch.give(hdr)
		}
		if err != nil {
			break
		}
		issued++
	}
	if issued > 0 {
		b.t.Waitcntr(ctx, cntr, issued)
	}
	return err
}

// Location returns the rank hosting the shared counter and the remote
// address of its word (a big-endian int64, the LAPI Rmw convention), for
// callers issuing their own Rmw against it. ok is false on non-LAPI
// backends.
func (c *SharedCounter) Location() (owner int, addr lapi.Addr, ok bool) {
	if _, isLapi := c.w.b.(*lapiBackend); !isLapi {
		return 0, 0, false
	}
	return c.owner, lapi.Addr(c.loc), true
}
