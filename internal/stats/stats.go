// Package stats provides lightweight named counters used across the
// simulator and protocol layers to account for packets, bytes, copies,
// interrupts and retransmissions. Counters are safe for concurrent use so
// the same type serves both the single-threaded simulator and the real
// TCP transport.
package stats

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Name identifies one counter. The names below are fixed indices into
// every Counters' array; ShardEpochs and ShardOutboxHighWater compute the
// per-shard names above them.
type Name int

// Counters is a set of named monotonic counters. The zero value is ready to
// use.
type Counters struct {
	// v holds the fixed names, each read and written only through
	// sync/atomic: the hot-path Add is one atomic add, with no map and no
	// lock. It is the first field so its 64-bit words stay 8-aligned on
	// 32-bit platforms.
	v [numFixed]int64
	// mu guards shard, the per-shard epoch counters (index Name-numFixed),
	// which the epoch coordinator updates once per shard per barrier.
	mu    sync.Mutex
	shard []int64
}

// Add increments name by delta.
func (c *Counters) Add(name Name, delta int64) {
	if name < numFixed {
		atomic.AddInt64(&c.v[name], delta)
		return
	}
	c.updateShard(name, delta, false)
}

// Max raises name to v if v exceeds the current value — a high-water
// mark rather than a monotonic sum (e.g. the deepest merge queue an
// epoch barrier ever saw). Mixing Add and Max on the same name is a
// caller bug; nothing enforces it.
func (c *Counters) Max(name Name, v int64) {
	if name < numFixed {
		for {
			old := atomic.LoadInt64(&c.v[name])
			if v <= old || atomic.CompareAndSwapInt64(&c.v[name], old, v) {
				return
			}
		}
	}
	c.updateShard(name, v, true)
}

// updateShard adds v to per-shard name, or raises it to v when max is set,
// growing the table on first use.
func (c *Counters) updateShard(name Name, v int64, max bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := int(name - numFixed)
	if i >= len(c.shard) {
		c.shard = append(c.shard, make([]int64, i+1-len(c.shard))...)
	}
	if !max {
		c.shard[i] += v
	} else if v > c.shard[i] {
		c.shard[i] = v
	}
}

// Get returns the current value of name (zero if never added).
func (c *Counters) Get(name Name) int64 {
	if name < numFixed {
		return atomic.LoadInt64(&c.v[name])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := int(name - numFixed); i < len(c.shard) {
		return c.shard[i]
	}
	return 0
}

// Snapshot returns a copy of every nonzero counter, keyed by its name.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for n := Name(0); n < numFixed; n++ {
		if v := atomic.LoadInt64(&c.v[n]); v != 0 {
			out[n.String()] = v
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range c.shard {
		if v != 0 {
			out[(numFixed + Name(i)).String()] = v
		}
	}
	return out
}

// Common counter names, shared so reports line up across packages.
const (
	PacketsSent    Name = iota
	PacketsRecv         // packets delivered to a receiver (duplicates excluded)
	BytesSent           // wire bytes put on a link, headers included
	BytesRecv           // bytes delivered to a receiver
	PacketsDropped      // first transmissions lost to fault injection
	Retransmits         // transmissions after a retransmission timeout
	AcksSent            // adapter-level acknowledgements
	Interrupts          // dispatcher wakes charged the interrupt cost
	Polls               // progress polls from user calls
	CopiesBytes         // bytes copied through internal buffers
	HeaderHandlers      // active-message header handlers run
	ComplHandlers       // active-message completion handlers run
	RndvMsgs            // Puts/Gets routed via RTS/CTS rendezvous
	RndvRegHits         // registration-cache hits at the target
	RndvRegMisses       // registration-cache misses (RegisterCost charged)

	// MPI matching (package mpi).
	RendezvousRTS  // rendezvous requests-to-send received
	UnexpectedMsgs // messages queued before a matching receive was posted
	Matches        // messages bound to a receive request

	// Epoch-coordinator counters (package parallel): per-barrier
	// accounting of the conservative-lookahead runner, so shard imbalance
	// — one shard doing all the work while the others spin through empty
	// epochs — is visible in counter dumps and traces. The per-shard names
	// are produced by ShardEpochs/ShardOutboxHighWater so reports line up
	// across packages.
	EpochBarriers       // lookahead epochs executed
	EpochImports        // cross-shard events merged at barriers
	EpochMergeHighWater // deepest single-barrier merge queue (Max)
	SpineRequests       // interior-occupancy requests arbitrated at barriers
	SpineReqHighWater   // deepest single-barrier arbitration queue (Max)

	// Collective-layer counters (package collective): per-algorithm step,
	// byte and atomic-op accounting, so the cost attribution of the
	// Figure-2-style collective comparison is observable per task.
	CollCalls        // collective operations entered
	CollRingSteps    // ring put+wait steps executed
	CollRingBytes    // bytes moved by ring steps
	CollRDSteps      // recursive-doubling exchange steps
	CollRDBytes      // bytes moved by recursive doubling
	CollTreeSteps    // binomial-tree edges traversed
	CollTreeBytes    // bytes moved along tree edges
	CollBarrierSteps // barrier rounds (dissemination) or releases
	CollRmwOps       // FetchAndAdd ops issued (central barrier)

	numFixed
)

// names is the report spelling of every fixed name.
var names = [numFixed]string{
	PacketsSent:         "packets_sent",
	PacketsRecv:         "packets_recv",
	BytesSent:           "bytes_sent",
	BytesRecv:           "bytes_recv",
	PacketsDropped:      "packets_dropped",
	Retransmits:         "retransmits",
	AcksSent:            "acks_sent",
	Interrupts:          "interrupts",
	Polls:               "polls",
	CopiesBytes:         "copy_bytes",
	HeaderHandlers:      "header_handlers",
	ComplHandlers:       "completion_handlers",
	RndvMsgs:            "rndv_msgs",
	RndvRegHits:         "rndv_reg_hits",
	RndvRegMisses:       "rndv_reg_misses",
	RendezvousRTS:       "rendezvous_rts",
	UnexpectedMsgs:      "unexpected_msgs",
	Matches:             "matches",
	EpochBarriers:       "epoch_barriers",
	EpochImports:        "epoch_imports",
	EpochMergeHighWater: "epoch_merge_high_water",
	SpineRequests:       "spine_requests",
	SpineReqHighWater:   "spine_req_high_water",
	CollCalls:           "coll_calls",
	CollRingSteps:       "coll_ring_steps",
	CollRingBytes:       "coll_ring_bytes",
	CollRDSteps:         "coll_rd_steps",
	CollRDBytes:         "coll_rd_bytes",
	CollTreeSteps:       "coll_tree_steps",
	CollTreeBytes:       "coll_tree_bytes",
	CollBarrierSteps:    "coll_barrier_steps",
	CollRmwOps:          "coll_rmw_ops",
}

// ShardEpochs names shard i's active-epoch counter: epochs in which the
// shard had at least one pending event when the window opened.
func ShardEpochs(i int) Name { return numFixed + Name(2*i) }

// ShardOutboxHighWater names shard i's outbox high-water mark: the most
// cross-shard events it exported in one epoch (Max).
func ShardOutboxHighWater(i int) Name { return numFixed + Name(2*i+1) }

// String returns the counter's report name.
func (n Name) String() string {
	switch {
	case n < 0:
		return fmt.Sprintf("stats.Name(%d)", int(n))
	case n < numFixed:
		return names[n]
	case (n-numFixed)%2 == 0:
		return fmt.Sprintf("epoch_shard_%d_active", (n-numFixed)/2)
	default:
		return fmt.Sprintf("epoch_shard_%d_outbox_high_water", (n-numFixed)/2)
	}
}
