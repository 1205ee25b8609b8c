package ga

import (
	"encoding/binary"
	"fmt"
	"math"

	"golapi/internal/exec"
)

// The owner side of a GA request, shared by both backends: the opcodes and
// header every request carries, the subscript codec of scatter and gather,
// and apply, which does the work at the owner. A backend only receives the
// request (a LAPI completion handler, an MPL rcvncall handler) and sends
// the reply.

// GA request opcodes. A reply's opcode follows its request's.
const (
	gaPut byte = iota + 1
	gaAcc
	gaGetReq
	gaGetRep
	gaScatter
	gaGatherReq
	gaGatherRep
)

// gaHdr is the header of every GA request and reply (well under the
// QueryMaxUhdr limit, leaving the paper's ≈900 bytes of packet payload for
// data).
type gaHdr struct {
	op     byte
	handle uint16
	sub    Patch
	alpha  float64
	id     uint32 // pending-request id (get/gather)
	cntr   uint32 // origin counter to signal on reply (RemoteCounter)
	count  uint32 // subscript count (scatter/gather)
}

const gaHdrSize = 40

// encode writes h into the first gaHdrSize bytes of b and returns them.
func (h *gaHdr) encode(b []byte) []byte {
	b = b[:gaHdrSize]
	b[0] = h.op
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:], h.handle)
	binary.BigEndian.PutUint32(b[4:], uint32(h.sub.RLo))
	binary.BigEndian.PutUint32(b[8:], uint32(h.sub.RHi))
	binary.BigEndian.PutUint32(b[12:], uint32(h.sub.CLo))
	binary.BigEndian.PutUint32(b[16:], uint32(h.sub.CHi))
	binary.BigEndian.PutUint64(b[20:], math.Float64bits(h.alpha))
	binary.BigEndian.PutUint32(b[28:], h.id)
	binary.BigEndian.PutUint32(b[32:], h.cntr)
	binary.BigEndian.PutUint32(b[36:], h.count)
	return b
}

func decodeGaHdr(b []byte) gaHdr {
	return gaHdr{
		op:     b[0],
		handle: binary.BigEndian.Uint16(b[2:]),
		sub: Patch{
			RLo: int(int32(binary.BigEndian.Uint32(b[4:]))),
			RHi: int(int32(binary.BigEndian.Uint32(b[8:]))),
			CLo: int(int32(binary.BigEndian.Uint32(b[12:]))),
			CHi: int(int32(binary.BigEndian.Uint32(b[16:]))),
		},
		alpha: math.Float64frombits(binary.BigEndian.Uint64(b[20:])),
		id:    binary.BigEndian.Uint32(b[28:]),
		cntr:  binary.BigEndian.Uint32(b[32:]),
		count: binary.BigEndian.Uint32(b[36:]),
	}
}

// Scatter and gather requests carry one record per subscript: i and j as
// big-endian int32s and, in a scatter, the value after them.
const (
	gatherRecord  = 8
	scatterRecord = 16
)

// packSubscripts encodes the (i, j) pairs of idx into dst, each followed by
// its value when vals is not nil.
func packSubscripts(dst []byte, idx []int32, vals []float64) {
	rec := gatherRecord
	if vals != nil {
		rec = scatterRecord
	}
	for k := 0; k < len(idx)/2; k++ {
		binary.BigEndian.PutUint32(dst[k*rec:], uint32(idx[2*k]))
		binary.BigEndian.PutUint32(dst[k*rec+4:], uint32(idx[2*k+1]))
		if vals != nil {
			putF64(dst[k*rec+8:], vals[k])
		}
	}
}

// subscript decodes record k of rec-byte records: the element's byte
// offset in the owner's block and the rest of the record.
func subscript(data []byte, k, rec int, local Patch) (int, []byte) {
	r := data[k*rec : (k+1)*rec]
	i, j := int32(binary.BigEndian.Uint32(r)), int32(binary.BigEndian.Uint32(r[4:]))
	return blockIndex(local, int(i), int(j)), r[8:]
}

// apply does the owner's work for a put, accumulate, scatter, get or gather
// request h whose data landed in data, against this task's block (local in
// global indices), and charges each copy it makes: unpacking a put or
// accumulate into the block is the AM protocol's second extra copy (§5.3)
// and the MPL handler's copy out of its message buffer (§5.2); packing a
// get or gather answer is the copy into the reply message. The answer goes
// into reply(n), an n-byte buffer of the caller's, and apply returns true
// when the caller has such a reply to send.
func (c *Config) apply(ctx exec.Context, h *gaHdr, data, block []byte, local Patch, reply func(n int) []byte) bool {
	switch h.op {
	case gaPut:
		c.charge(ctx, len(data))
		storeInto(block, local, h.sub, data)
	case gaAcc:
		c.charge(ctx, len(data))
		accumulateInto(block, local, h.sub, data, h.alpha)
	case gaScatter:
		c.charge(ctx, len(data))
		for k := 0; k < int(h.count); k++ {
			e, v := subscript(data, k, scatterRecord, local)
			copy(block[e:e+8], v)
		}
	case gaGetReq:
		out := reply(h.sub.Elems() * 8)
		c.charge(ctx, len(out))
		loadFrom(out, block, local, h.sub)
		return true
	case gaGatherReq:
		out := reply(int(h.count) * 8)
		c.charge(ctx, len(out))
		for k := 0; k < int(h.count); k++ {
			e, _ := subscript(data, k, gatherRecord, local)
			copy(out[k*8:], block[e:e+8])
		}
		return true
	default:
		panic(fmt.Sprintf("ga: bad request op %d", h.op))
	}
	return false
}
