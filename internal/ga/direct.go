package ga

// Direct-access exports for layers that build their own one-sided
// protocols on LAPI while borrowing GA's collective allocation, block
// distribution, and address exchange — the gateway (internal/gateway) is
// the first such layer. All of these are LAPI-backend-only views: the MPL
// backend keeps its storage private, so every function degrades to
// ok=false there and callers must fall back to the portable GA operations.
//
// The exposed representation is the backend's real one: array blocks and
// counter words are stored as big-endian 8-byte values in the owning
// task's LAPI heap (the Task.ReadInt64/ReadFloat64 convention), so bytes
// moved with raw LAPI Put/Get against these addresses interoperate with
// GA's own put/get/acc and with LAPI Rmw.

import "golapi/internal/lapi"

// LocalBlock returns the calling task's block of a — its patch in global
// indices and the raw storage (big-endian float64s, row-major with the
// block's column count as leading dimension). ok is false on non-LAPI
// backends or when this task owns no elements of a.
//
// The returned slice aliases the live block: writes are visible to remote
// gets immediately. Callers run serialized on the task's runtime, so
// mutating it is safe exactly where calling GA operations is.
func (a *Array) LocalBlock() (Patch, []byte, bool) {
	b, ok := a.w.b.(*lapiBackend)
	if !ok {
		return Patch{}, nil, false
	}
	local, blk := b.block(a)
	return local, blk, len(blk) > 0
}

// RowSpan decomposes the row segment [col, col+count) of row into
// owner-contiguous pieces and invokes fn once per piece with the owning
// rank, the remote address of the piece's first element, the piece's
// offset (in elements) from col, and its element count. Segments within
// one owner's block are contiguous in the owner's storage, so each piece
// is one raw LAPI Put/Get. Returns false (without calling fn) on non-LAPI
// backends or if the segment lies outside the array.
func (a *Array) RowSpan(row, col, count int, fn func(owner int, addr lapi.Addr, off, elems int)) bool {
	b, ok := a.w.b.(*lapiBackend)
	if !ok {
		return false
	}
	if row < 0 || row >= a.rows || col < 0 || count <= 0 || col+count > a.cols {
		return false
	}
	for start := col; start < col+count; {
		gc := start / a.blockC
		end := min((gc+1)*a.blockC, col+count)
		owner := (row/a.blockR)*a.gridC + gc
		fn(owner, b.remoteAddr(a, owner, row, start), start-col, end-start)
		start = end
	}
	return true
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
