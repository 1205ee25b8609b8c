// Package fabric defines the transport abstraction the communication
// libraries (LAPI, MPI) are written against, plus small helpers for packet
// framing. Implementations: the simulated SP switch (internal/switchnet)
// and a real TCP transport (internal/tcpnet).
package fabric

import (
	"encoding/binary"
	"fmt"

	"golapi/internal/exec"
)

// Contract describes a transport's buffer-ownership behaviour. Protocol
// layers consult it to skip defensive copies and recycle packet memory on
// the hot path; the zero value (nothing pooled) is always safe to assume.
type Contract struct {
	// PooledDelivery means the slice handed to the deliver upcall is drawn
	// from the transport's buffer pool: it is exclusively the receiver's
	// until the receiver calls Release, after which the memory may back a
	// future frame. Receivers that need the bytes longer must copy before
	// releasing. When false, delivered slices are immutable history the
	// transport may still alias (say, for retransmission) — never write to
	// or recycle them, but retaining references is safe. Both transports
	// here (tcpnet and the simulated switch) pool delivery.
	PooledDelivery bool
	// PooledSend means buffers obtained from Alloc are recycled by the
	// transport once written to the wire, so a steady-state sender
	// allocates nothing. Send always takes ownership either way.
	PooledSend bool
}

// Transport is one task's endpoint on the interconnect.
//
// Delivery is reliable but NOT necessarily ordered: packets between the same
// pair of tasks may arrive out of order (the SP switch property the paper's
// protocols are built around). Protocols needing FIFO (MPI) must resequence.
//
// Buffer ownership: a packet buffer is the producer's until handed over.
// Senders build a packet (ideally in a buffer from Alloc), pass it to Send,
// and must not touch it again. Receivers own a delivered slice for the
// duration described by Contract: until Release on pooled transports,
// forever (read-only) otherwise.
type Transport interface {
	// Self returns this endpoint's task id in [0, N).
	Self() int
	// N returns the number of tasks on the fabric.
	N() int
	// MaxPacket returns the largest packet, in bytes, Send accepts.
	// Protocol layers carve their headers out of this budget.
	MaxPacket() int
	// Send queues one packet for dst. The transport takes ownership of
	// data. ctx is the caller's execution context and may be nil when
	// the caller accounts for injection cost itself (transports must not
	// rely on it). The sent callback, if non-nil, fires —
	// serialized on the endpoint's runtime — once the packet has fully
	// left this endpoint (the origin-buffer drain point LAPI's origin
	// counter keys off for zero-copy sends). Send never blocks for
	// delivery.
	Send(ctx exec.Context, dst int, data []byte, sent func())
	// SetDeliver installs the upcall invoked, serialized on the
	// endpoint's runtime, for each arriving packet. Must be set before
	// the first packet can arrive. Ownership of data follows Contract:
	// with PooledDelivery the receiver must Release it (and not touch it
	// after); without, the slice is retained history and must not be
	// written.
	SetDeliver(fn func(src int, data []byte))
	// Alloc returns a packet buffer of length n for building an outbound
	// packet, drawn from the transport's pool when it has one (see
	// Contract.PooledSend). Contents are unspecified — callers overwrite
	// every byte they send.
	Alloc(n int) []byte
	// Release returns a delivered packet to the transport's pool. It is a
	// no-op on unpooled transports; on pooled ones the caller must not
	// touch pkt afterwards. Call it from the delivery path (serialized on
	// the endpoint's runtime) once the packet has been consumed.
	Release(pkt []byte)
	// Contract reports the transport's buffer-ownership behaviour.
	Contract() Contract

	// The three methods below form the zero-copy lane used by the
	// rendezvous (RTS/CTS) protocol for large messages: payload bytes move
	// straight between the caller's slices with no intermediate pool
	// buffer on either side.

	// SendDirect queues payload for dst on the zero-copy lane. Unlike
	// Send, the transport BORROWS payload — the caller must not write to
	// it until sent fires (serialized on the endpoint's runtime, at the
	// point the bytes have fully left this endpoint). The receiver must
	// have pre-posted a landing region for (this endpoint, token) via
	// RecvInto covering len(payload) bytes; delivery bypasses the deliver
	// upcall entirely and completes through the SetDirectDone callback on
	// the receiving side. payload may exceed MaxPacket: the transport
	// fragments internally without copying. ctx follows the same rules as
	// Send.
	SendDirect(ctx exec.Context, dst int, token uint64, payload []byte, sent func())
	// RecvInto pre-posts buf as the landing region for a direct transfer
	// identified by (src, token). Incoming SendDirect bytes for that pair
	// land straight in buf; when len(buf) bytes have arrived the region is
	// retired and the SetDirectDone callback fires with (src, token). The
	// buffer is borrowed by the transport until then. Tokens must be
	// unique per (src, token) among outstanding regions. Must be called
	// before the matching SendDirect's bytes can arrive (protocols order
	// this via their control handshake).
	RecvInto(src int, token uint64, buf []byte)
	// SetDirectDone installs the completion upcall for direct transfers,
	// invoked — serialized on the endpoint's runtime — once per retired
	// landing region. Must be set before the first RecvInto.
	SetDirectDone(fn func(src int, token uint64))

	// Close releases transport resources.
	Close() error
}

// PutUint32 appends v to b in big-endian order and returns the new slice.
func PutUint32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// PutUint64 appends v to b in big-endian order and returns the new slice.
func PutUint64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// Uint32 reads a big-endian uint32 at off.
func Uint32(b []byte, off int) uint32 {
	return binary.BigEndian.Uint32(b[off : off+4])
}

// Uint64 reads a big-endian uint64 at off.
func Uint64(b []byte, off int) uint64 {
	return binary.BigEndian.Uint64(b[off : off+8])
}

// CheckRank panics with a descriptive message if rank is outside [0, n).
// Transports use it to validate destinations early, where the bug is.
func CheckRank(rank, n int) {
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("fabric: rank %d out of range [0,%d)", rank, n))
	}
}
