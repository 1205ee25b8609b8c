// Package mpi implements the message-passing baseline LAPI is compared
// against in the paper: a two-sided send/receive library in the style of
// IBM's MPI/MPL on the SP, with tag matching, guaranteed in-order matching,
// an eager protocol for small messages and a rendezvous protocol above the
// eager limit (the MP_EAGER_LIMIT environment variable of §4).
//
// The implementation deliberately mirrors the costs the paper attributes to
// MPI relative to LAPI:
//
//   - a 16-byte packet header (vs LAPI's 48) — higher peak bandwidth;
//   - per-message matching cost — higher small-message latency;
//   - an early-arrival buffer copy on the eager path — lower medium-size
//     bandwidth ("the difference ... is caused by an extra copy in MPI");
//   - a rendezvous round trip above the eager limit — the flattening of
//     the default-MPI curve beyond 4 KB in Figure 2;
//   - in-order matching — a resequencing obligation LAPI does not have
//     ("LAPI has no ordering requirements and hence the amount of state
//     that needs to be maintained is less").
package mpi

import (
	"fmt"
	"time"

	"golapi/internal/progress"
)

// Mode is the receive dispatcher's progress mode, the one lapi uses.
type Mode = progress.Mode

const (
	Interrupt = progress.Interrupt
	Polling   = progress.Polling
)

// AnySource matches a receive against messages from any rank.
const AnySource = -1

// AnyTag matches a receive against messages with any tag.
const AnyTag = -1

// MaxTag is the largest user tag (tags travel as 16-bit fields; the top of
// the space is reserved for internal protocols like Barrier).
const MaxTag = 0xFFF0

// Config carries protocol parameters and the CPU cost model; zero costs
// make the library a plain communication library for real transports.
type Config struct {
	// Mode is the progress mode.
	Mode Mode
	// HeaderBytes is the MPI packet header carved from each wire packet
	// (16 on the SP, §4).
	HeaderBytes int
	// EagerLimit: messages up to this size use the eager protocol;
	// larger ones rendezvous. IBM's default was 4096; MP_EAGER_LIMIT
	// could raise it to 65536.
	EagerLimit int
	// MaxEagerLimit caps EagerLimit (the paper: "the maximum value").
	MaxEagerLimit int

	// OpOverhead is the fixed CPU cost of posting a send or receive.
	OpOverhead time.Duration
	// SendOverhead is the per-packet injection cost.
	SendOverhead time.Duration
	// RecvOverhead is the dispatcher's per-packet cost.
	RecvOverhead time.Duration
	// MatchCost is the per-message matching overhead at the receiver —
	// the protocol cost LAPI avoids ("complex semantics of ordering,
	// matching, grouping and buffering", §4).
	MatchCost time.Duration
	// InterruptCost is charged per dispatcher wakeup in interrupt mode.
	InterruptCost time.Duration
	// RcvncallCost models AIX's handler-context creation for MPL's
	// interrupt-driven receive-and-call (§5.2 blames it for >300 µs GA
	// get latency on the previous SP generation; on the paper's system
	// it still makes the rcvncall round trip 200 µs vs 89 for LAPI).
	RcvncallCost time.Duration
	// MemcpyBandwidth prices buffering copies: the sender-side copy of
	// eager messages and the early-arrival buffer drain at the receiver.
	MemcpyBandwidth float64
	// BufferPoolBytes bounds the sender-side eager buffering (the MPL/MPI
	// buffer pool, cf. MP_BUFFER_MEM). Eager sends block while the pool
	// is exhausted, which is why "for larger messages, buffering of all
	// the data is not possible on the sender side" (§5.4). 0 = unlimited.
	BufferPoolBytes int
}

// DefaultConfig is calibrated alongside lapi.DefaultConfig (DESIGN.md §5).
func DefaultConfig() Config {
	return Config{
		Mode:            Interrupt,
		HeaderBytes:     16,
		EagerLimit:      4096,
		MaxEagerLimit:   65536,
		OpOverhead:      17 * time.Microsecond,
		SendOverhead:    4 * time.Microsecond,
		RecvOverhead:    9500 * time.Nanosecond,
		MatchCost:       4 * time.Microsecond,
		InterruptCost:   24 * time.Microsecond,
		RcvncallCost:    114 * time.Microsecond,
		MemcpyBandwidth: 800e6,
		BufferPoolBytes: 1 << 20,
	}
}

// ZeroCost returns a cost-free configuration for real transports.
func ZeroCost() Config {
	return Config{Mode: Interrupt, HeaderBytes: 16, EagerLimit: 4096, MaxEagerLimit: 65536}
}

func (c Config) validate(maxPacket int) error {
	if c.HeaderBytes < wireHeaderSize {
		return fmt.Errorf("mpi: HeaderBytes=%d below encoded header %d", c.HeaderBytes, wireHeaderSize)
	}
	if c.HeaderBytes >= maxPacket {
		return fmt.Errorf("mpi: HeaderBytes=%d leaves no payload in %d-byte packets", c.HeaderBytes, maxPacket)
	}
	if c.EagerLimit < 0 || (c.MaxEagerLimit > 0 && c.EagerLimit > c.MaxEagerLimit) {
		return fmt.Errorf("mpi: EagerLimit=%d out of range [0,%d]", c.EagerLimit, c.MaxEagerLimit)
	}
	return nil
}
