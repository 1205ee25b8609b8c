package lapi

import (
	"fmt"

	"golapi/internal/exec"
)

// Strided I/O — the paper's first "future work" item (§6): "Providing a
// non-contiguous interface to LAPI_Put and LAPI_Get to help applications
// like GA which require non-contiguous data transfer by removing the
// overhead associated with multiple requests or the copy overhead in the
// AM-based implementations."
//
// A Stride describes a regular vector of equal-size blocks in target
// memory: Blocks blocks of BlockBytes bytes, whose starts are StrideBytes
// apart. The origin side is always contiguous (packed); the adapter's
// scatter/gather engine — not the CPU — maps between the two layouts, so
// no copy cost is charged on either side, and the whole vector travels as
// ONE message (one operation overhead, full packets, one ack). On the wire
// a strided transfer is an ordinary Put or Get whose header carries the
// stride; only the target-side layout differs, and only a contiguous
// transfer may take the rendezvous path.

// Stride describes the target-side layout of a strided transfer.
type Stride struct {
	// Blocks is the number of equal-size blocks.
	Blocks int
	// BlockBytes is the size of each block.
	BlockBytes int
	// StrideBytes is the distance between consecutive block starts.
	// Must be at least BlockBytes (no overlap).
	StrideBytes int
}

// Total returns the number of data bytes the vector carries.
func (s Stride) Total() int { return s.Blocks * s.BlockBytes }

// Span returns the extent of target memory the vector touches.
func (s Stride) Span() int {
	if s.Blocks == 0 {
		return 0
	}
	return (s.Blocks-1)*s.StrideBytes + s.BlockBytes
}

func (s Stride) validate() error {
	if s.Blocks < 0 || s.BlockBytes < 0 {
		return fmt.Errorf("lapi: invalid stride %+v", s)
	}
	if s.Blocks > 0 && s.BlockBytes > 0 && s.StrideBytes < s.BlockBytes {
		return fmt.Errorf("lapi: stride %d overlaps blocks of %d bytes", s.StrideBytes, s.BlockBytes)
	}
	return nil
}

// fitsHeader reports a vector the Put/Get header cannot carry: packStride
// keeps 32 bits of each field, so a larger one would arrive as a different
// layout, and no extent may exceed one memory block. The origin checks it
// before sending and the target on every header it decodes. The span is
// computed in 64 bits, where fields below 2^32 cannot overflow.
func (s Stride) fitsHeader() error {
	const max32 = 1<<32 - 1
	if s.Blocks > max32 || s.BlockBytes > max32 || s.StrideBytes > max32 {
		return fmt.Errorf("lapi: stride %+v does not fit a message header", s)
	}
	if s.Blocks > 0 && s.BlockBytes > 0 && uint64(s.Blocks-1)*uint64(s.StrideBytes)+uint64(s.BlockBytes) > maxBlockBytes {
		return fmt.Errorf("lapi: stride %+v spans more than a memory block", s)
	}
	return nil
}

// packStride encodes a Stride into the header's addr2/aux fields.
func packStride(s Stride) (addr2, aux uint64) {
	return uint64(uint32(s.BlockBytes))<<32 | uint64(uint32(s.StrideBytes)), uint64(uint32(s.Blocks))
}

func unpackStride(addr2, aux uint64) Stride {
	return Stride{
		Blocks:      int(uint32(aux)),
		BlockBytes:  int(addr2 >> 32),
		StrideBytes: int(uint32(addr2)),
	}
}

// stridedLoc maps a linear offset within the packed stream to the offset
// within the strided target region.
func (s Stride) stridedLoc(linear int) int {
	block := linear / s.BlockBytes
	within := linear % s.BlockBytes
	return block*s.StrideBytes + within
}

// PutStrided copies the packed data into target memory laid out as the
// given stride vector starting at tgtAddr: block k of BlockBytes lands at
// tgtAddr + k*StrideBytes. len(data) must equal st.Total(). Counters
// behave exactly as in Put. The transfer is a single LAPI message: a Put
// whose header carries the stride.
func (t *Task) PutStrided(ctx exec.Context, tgt int, tgtAddr Addr, st Stride, data []byte, tgtCntr RemoteCounter, org, cmpl *Counter) error {
	return t.put(ctx, "PutStrided", tgt, tgtAddr, st, data, tgtCntr, org, cmpl)
}

// GetStrided pulls a stride vector from target memory at tgtAddr into the
// packed buffer buf (len(buf) must equal st.Total()). org fires when all
// data has arrived, as in Get. One LAPI message each way: a Get request
// carrying the stride, answered by ordinary ptGetData packets.
func (t *Task) GetStrided(ctx exec.Context, tgt int, tgtAddr Addr, st Stride, buf []byte, tgtCntr RemoteCounter, org *Counter) error {
	return t.get(ctx, "GetStrided", tgt, tgtAddr, st, buf, tgtCntr, org)
}

// decodeStride checks the layout a Put or Get header carries before any
// memory is touched: the zero stride is one contiguous block of totalLen
// bytes; any other must be a valid vector of exactly totalLen bytes whose
// extent fits a block of task memory. A packet is untrusted input, so a
// bad geometry is an error here, never a division by zero or an
// out-of-range slice later.
func decodeStride(addr2, aux uint64, totalLen uint32) (Stride, error) {
	st := unpackStride(addr2, aux)
	if st == (Stride{}) {
		return Stride{Blocks: 1, BlockBytes: int(totalLen), StrideBytes: int(totalLen)}, nil
	}
	if err := st.validate(); err != nil {
		return Stride{}, err
	}
	if uint64(st.Blocks)*uint64(st.BlockBytes) != uint64(totalLen) {
		return Stride{}, fmt.Errorf("lapi: stride %+v does not carry %d bytes", st, totalLen)
	}
	if err := st.fitsHeader(); err != nil {
		return Stride{}, err
	}
	return st, nil
}

// region is the target side of a Put or Get: the extent of task memory the
// layout touches, bounds-checked once, and the layout itself.
type region struct {
	mem []byte
	st  Stride
}

// targetRegion decodes and checks the region a Put or Get header names.
// An empty transfer touches no memory, so its address is not resolved.
func (t *Task) targetRegion(h header) (region, error) {
	st, err := decodeStride(h.addr2, h.aux, h.totalLen)
	if err != nil || h.totalLen == 0 {
		return region{st: st}, err
	}
	mem, err := t.mem.bytes(Addr(h.addr), st.Span())
	return region{mem: mem, st: st}, err
}

// at returns the target bytes that the packed stream's bytes [off, off+n)
// land in, cut at the end of the block holding off: one slice for a
// contiguous region.
func (r region) at(off, n int) []byte {
	loc := r.st.stridedLoc(off)
	n = min(n, r.st.BlockBytes-off%r.st.BlockBytes)
	return r.mem[loc : loc+n]
}
