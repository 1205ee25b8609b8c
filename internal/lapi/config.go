// Package lapi implements the paper's contribution: LAPI, a low-level
// one-sided communication library with an active-message core, remote
// memory copy (Put/Get), atomic read-modify-write, completion counters and
// fence operations.
//
// The implementation is transport-agnostic (it runs over the simulated SP
// switch or real TCP) and charges an explicit CPU cost model to the calling
// execution context so the simulator reproduces the paper's latency and
// bandwidth behaviour. With a zero cost model (see ZeroCost) the same code
// is an ordinary communication library over a real network.
package lapi

import (
	"fmt"
	"time"

	"golapi/internal/progress"
	"golapi/internal/trace"
)

// Mode is the §2.1 progress mode, Interrupt or Polling, shared with mpi.
type Mode = progress.Mode

const (
	Interrupt = progress.Interrupt
	Polling   = progress.Polling
)

// Config carries the protocol parameters and the CPU cost model.
// Costs are charged as virtual time in the simulator; for real transports
// use ZeroCost.
type Config struct {
	// Mode is the initial progress mode; Senv can change it at runtime.
	Mode Mode

	// HeaderBytes is the LAPI packet-header size carved out of every
	// wire packet (48 on the SP — the paper attributes LAPI's slightly
	// lower peak bandwidth than MPI to this, §4).
	HeaderBytes int

	// OpOverhead is the fixed CPU cost of initiating any LAPI operation
	// (argument marshalling, protocol state). Together with
	// SendOverhead it forms the paper's "pipeline latency".
	OpOverhead time.Duration
	// SendOverhead is the CPU cost to inject each packet.
	SendOverhead time.Duration
	// GetExtra is the additional initiation cost of Get over Put
	// (request construction; 19 µs vs 16 µs in the paper).
	GetExtra time.Duration
	// RecvOverhead is the dispatcher's CPU cost per received packet.
	RecvOverhead time.Duration
	// AckOverhead is the dispatcher's CPU cost for pure protocol
	// acknowledgements (no handler, just a counter update) — much
	// cheaper than full packet dispatch.
	AckOverhead time.Duration
	// InterruptCost is charged each time the dispatcher is woken by an
	// arriving packet in interrupt mode (idle -> running transition).
	InterruptCost time.Duration
	// MemcpyBandwidth (bytes/sec) prices internal buffering copies:
	// the origin-side copy of small messages into retransmit buffers
	// and the target-side copy from network buffers into the
	// user-supplied AM buffer.
	MemcpyBandwidth float64

	// CompletionThreads bounds how many completion handlers may execute
	// concurrently on this task: the paper's second future-work item
	// ("providing multiple completion handler ... threads which will be
	// important for SMP nodes", §6). 0 means unlimited (an idealized SMP
	// node); 1 serializes completion handlers like the uniprocessor
	// LAPI thread did.
	CompletionThreads int

	// Tracer, when non-nil, records a per-task timeline of operations,
	// packets and handler invocations (see the trace package). Nil means
	// no tracing and no overhead.
	Tracer *trace.Tracer

	// InternalBufferLimit: messages with at most this many payload bytes
	// are copied into internal buffers at the origin so the origin
	// counter fires immediately ("LAPI internally copies smaller
	// messages ... and returns immediately", §5.3.1). Larger sends are
	// zero-copy and the origin counter fires when the adapter drains.
	InternalBufferLimit int

	// RndvLimit is the eager/rendezvous crossover: Puts and Gets of at
	// least this many bytes switch from the eager path (chunked through
	// pooled transport buffers) to the RTS/CTS rendezvous protocol with
	// direct placement between user buffers (DESIGN.md §12). 0 auto-tunes
	// at task creation (see Task.RndvCrossover); a negative value disables
	// rendezvous entirely (every message stays eager).
	RndvLimit int
	// RegisterCost is the CPU cost of pinning and registering a target
	// memory region on a registration-cache miss (the rendezvous analogue
	// of the InfiniBand memory-registration cost the MPICH2 design caches
	// away). Charged to the dispatcher handling the RTS (or rendezvous
	// Get request); cache hits are free.
	RegisterCost time.Duration
}

// DefaultConfig returns the calibration from DESIGN.md §5. Combined with
// switchnet.DefaultConfig it lands near the paper's Table 2 and Figure 2
// numbers.
func DefaultConfig() Config {
	return Config{
		Mode:                Interrupt,
		HeaderBytes:         48,
		OpOverhead:          12 * time.Microsecond,
		SendOverhead:        4 * time.Microsecond,
		GetExtra:            3 * time.Microsecond,
		RecvOverhead:        9500 * time.Nanosecond,
		AckOverhead:         3 * time.Microsecond,
		InterruptCost:       24 * time.Microsecond,
		MemcpyBandwidth:     800e6,
		InternalBufferLimit: 1024,
		RegisterCost:        40 * time.Microsecond,
	}
}

// ZeroCost returns a config with no modelled CPU costs, for use over real
// transports where actual CPU time is already being spent.
func ZeroCost() Config {
	return Config{
		Mode:        Interrupt,
		HeaderBytes: 48,
	}
}

func (c Config) validate(maxPacket int) error {
	if c.HeaderBytes < headerSize {
		return fmt.Errorf("lapi: HeaderBytes=%d smaller than encoded header %d", c.HeaderBytes, headerSize)
	}
	if c.HeaderBytes >= maxPacket {
		return fmt.Errorf("lapi: HeaderBytes=%d leaves no payload in %d-byte packets", c.HeaderBytes, maxPacket)
	}
	return nil
}

// Query identifies a Qenv item (paper Table 1, LAPI_Qenv).
type Query int

const (
	// QueryNumTasks is the number of tasks on the fabric.
	QueryNumTasks Query = iota
	// QueryMaxUhdr is the largest user header an Amsend accepts.
	QueryMaxUhdr
	// QueryMaxPayload is the per-packet user payload (packet size minus
	// LAPI header) — "the exact amount is implementation specific and
	// can be obtained through LAPI_Qenv" (§5.3.1).
	QueryMaxPayload
	// QueryMode reports the current progress mode (0 interrupt, 1 polling).
	QueryMode
)
