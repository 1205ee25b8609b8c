// Package switchnet models the IBM SP high-performance switch as a
// discrete-event simulation: a full crossbar of nodes whose adapters inject
// fixed-size packets onto links with finite bandwidth and latency.
//
// The model captures exactly the properties the paper's protocol arguments
// rest on:
//
//   - fixed packet size (1 KB on the SP switch) — protocol headers eat into
//     per-packet payload, which is why LAPI's 48-byte header costs it peak
//     bandwidth against MPI's 16-byte header;
//   - link serialization — a node's outgoing link fits one packet at a
//     time, so asymptotic bandwidth = payload / packet wire time;
//   - out-of-order delivery — the switch may reorder packets between the
//     same pair of nodes (LAPI's reassembly machinery exists because of
//     this);
//   - unreliability — packets can be dropped; the adapter layer provides
//     acknowledgements and retransmission, which is why LAPI copies small
//     messages into internal buffers before returning to the user.
//
// CPU costs (send/receive overheads, interrupts, memory copies) are NOT
// modelled here; they belong to the protocol layers, which charge them to
// the calling context. The switch models only wire time, propagation and
// adapter queueing.
package switchnet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/parallel"
	"golapi/internal/sim"
	"golapi/internal/stats"
)

// Config describes the fabric. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// PacketBytes is the maximum wire packet size, including protocol
	// headers (SP switch: 1024).
	PacketBytes int
	// AckBytes is the wire size of an adapter-level acknowledgement.
	AckBytes int
	// Bandwidth is the link rate in bytes per second.
	Bandwidth float64
	// WireLatency is propagation plus switch traversal time per packet.
	WireLatency time.Duration
	// RTO is the retransmission timeout for unacknowledged packets.
	RTO time.Duration
	// ReorderEvery, when > 0, delays every Nth data packet by
	// ReorderDelayPackets packet times so it arrives after its
	// successors. Deterministic out-of-order injection.
	ReorderEvery int
	// ReorderDelayPackets is the extra delay (in packet wire times)
	// applied to reordered packets. Defaults to 2 when ReorderEvery > 0.
	ReorderDelayPackets int
	// DropEvery, when > 0, drops every Nth data packet on first
	// transmission (retransmissions are never dropped, so progress is
	// guaranteed). Deterministic failure injection.
	DropEvery int
	// SpineLinks, when > 0, models the multistage switch's interior:
	// every packet must also traverse one of SpineLinks shared spine
	// links (chosen by source/destination pair), each with Bandwidth
	// capacity. 0 models an ideal crossbar where only the endpoint
	// links contend — adequate for the paper's 2-4 node benchmarks, but
	// a real SP's bisection is finite.
	SpineLinks int
	// FatTreeLevels, when non-empty, replaces the flat spine with a
	// hierarchical fat-tree interior: FatTreeLevels[l] is the number of
	// shared links in the pool connecting level-(l+1) switches to level
	// l+2 (leaves are level 1). A packet climbs to the lowest level at
	// which source and destination share a group of FatTreeArity^l
	// ranks, claiming one up-link and one down-link from each pool it
	// crosses (chosen by a fixed hash of source, destination, level and
	// direction — routes are static, as on the real switch), and is
	// charged one WireLatency per level climbed. Endpoint-link
	// serialization and the adapter's ack/retransmit machinery apply
	// unchanged per packet. Mutually exclusive with SpineLinks.
	FatTreeLevels []int
	// FatTreeArity is the number of ranks per leaf group (and the group
	// fan-out per level). Required ≥ 2 when FatTreeLevels is set.
	FatTreeArity int
}

// DefaultConfig returns the calibration described in DESIGN.md §5: 1 KB
// packets at ≈102 MB/s with 8 µs of wire latency, yielding the paper's
// ≈97 MB/s LAPI asymptote once the 48-byte header is subtracted.
func DefaultConfig() Config {
	return Config{
		PacketBytes: 1024,
		AckBytes:    64,
		Bandwidth:   102e6,
		WireLatency: 8 * time.Microsecond,
		RTO:         500 * time.Microsecond,
	}
}

func (c Config) validate() error {
	if c.PacketBytes <= 0 {
		return fmt.Errorf("switchnet: PacketBytes must be positive, got %d", c.PacketBytes)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("switchnet: Bandwidth must be positive, got %g", c.Bandwidth)
	}
	if c.RTO <= 0 {
		return fmt.Errorf("switchnet: RTO must be positive, got %v", c.RTO)
	}
	if len(c.FatTreeLevels) > 0 {
		if c.SpineLinks > 0 {
			return fmt.Errorf("switchnet: SpineLinks and FatTreeLevels are mutually exclusive interior models")
		}
		if c.FatTreeArity < 2 {
			return fmt.Errorf("switchnet: FatTreeLevels needs FatTreeArity >= 2, got %d", c.FatTreeArity)
		}
		for l, n := range c.FatTreeLevels {
			if n <= 0 {
				return fmt.Errorf("switchnet: FatTreeLevels[%d] must be positive, got %d", l, n)
			}
		}
	}
	return nil
}

// shardLookahead returns the conservative cross-shard synchronization
// window a partitioned switch promises: every cross-shard event takes
// effect at least this much virtual time after its creation. With a
// positive WireLatency that is the wire latency itself. With zero wire
// latency, epochs shrink to micro-epochs bounded by the minimum adapter
// service time — the egress-link occupancy of the smallest possible wire
// unit (one byte) — since even a zero-latency packet cannot arrive before
// its bytes have drained onto the link. A config whose minimum service
// time rounds to zero virtual nanoseconds admits no positive window at
// all: such a config is unshardable, and the error says so rather than
// silently falling back to serial execution.
func (c Config) shardLookahead() (sim.Time, error) {
	if c.WireLatency > 0 {
		return sim.Time(c.WireLatency), nil
	}
	min := sim.Time(c.wireTime(1))
	if min < 1 {
		return 0, fmt.Errorf("switchnet: config is unshardable: WireLatency is zero and the minimum adapter service time (1 byte at %g B/s) rounds to 0 ns, leaving no positive micro-epoch window; set WireLatency > 0 or Bandwidth <= 1e9", c.Bandwidth)
	}
	if c.AckBytes < 1 {
		return 0, fmt.Errorf("switchnet: config is unshardable: WireLatency is zero and AckBytes is %d, so an acknowledgement could cross shards in zero virtual time; micro-epochs need AckBytes >= 1", c.AckBytes)
	}
	return min, nil
}

// wireTime returns the link occupancy for n bytes.
func (c Config) wireTime(n int) time.Duration {
	return time.Duration(float64(n) / c.Bandwidth * float64(time.Second))
}

// Switch is a simulated fabric connecting N adapters.
type Switch struct {
	cfg      Config
	adapters []*Adapter
	// spineFree tracks when each interior spine link is next idle
	// (SpineLinks > 0).
	spineFree []sim.Time
	// treeFree tracks the fat-tree interior: one occupancy clock per
	// link per level pool (FatTreeLevels).
	treeFree [][]sim.Time
	Counters stats.Counters
	// shards holds one slot per sub-engine. Single-engine switches (New)
	// have exactly one; sharded switches (NewSharded) have one per
	// partition, and each slot's outbox accumulates the cross-shard
	// events generated while that shard's engine runs an epoch.
	shards []shardSlot
	// lookahead is the cross-shard synchronization window promised to
	// the epoch coordinator (zero on a single-engine switch whose config
	// admits none — then there is no coordinator to promise it to).
	lookahead sim.Time
	// spineMode is set when the switch is partitioned AND has a shared
	// interior (spine or fat tree): interior occupancies are then
	// speculatively recorded per shard and arbitrated at the epoch
	// barrier (ResolveSpine) instead of claimed inline.
	spineMode bool
	// instReqs and resolverArmed implement the single-engine interior:
	// claims made at one virtual instant are deferred to a
	// due-FIFO resolver at the same instant, so same-instant ties are
	// arbitrated by source rank — the same order the sharded barrier
	// uses — instead of by incidental event-creation order.
	instReqs      []spineReq
	resolverArmed bool
	// reqScratch is the barrier arbitration's reusable merge buffer.
	reqScratch []spineReq
	// pool recycles packet buffers between every adapter's Alloc and
	// Release (Contract: PooledSend, PooledDelivery).
	pool bufPool
}

// poolBytes bounds the memory a switch's free list keeps for reuse. A
// sender Allocs every packet of an eager message at once (Send never
// blocks) and receivers Release them as they drain, so the list must hold
// the largest burst a run repeats — the paper's biggest eager transfer, 2
// MB, is 2 048 one-KB packets — or each repetition allocates afresh; past
// that, a one-off burst should go back to the garbage collector rather
// than stay pinned for the rest of the run.
const poolBytes = 4 << 20

// bufPool is a switch's free list of PacketBytes-capacity packet buffers.
// One list per switch, not per adapter, so that a one-directional stream —
// the sender Allocs, a different adapter Releases — still recycles; the
// mutex makes it safe for the shards of a sharded switch, whose adapters
// Alloc and Release on different goroutines.
type bufPool struct {
	mu   sync.Mutex
	free [][]byte
	max  int // poolBytes / PacketBytes, at least 1
}

// get returns a buffer of length and capacity size, recycled when one is
// free. Its contents are whatever its last user left.
func (bp *bufPool) get(size int) []byte {
	bp.mu.Lock()
	if n := len(bp.free); n > 0 {
		b := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		bp.mu.Unlock()
		return b
	}
	bp.mu.Unlock()
	return make([]byte, size)
}

// put returns b, a buffer from get, to the free list unless it is full.
func (bp *bufPool) put(b []byte) {
	bp.mu.Lock()
	if len(bp.free) < bp.max {
		bp.free = append(bp.free, b)
	}
	bp.mu.Unlock()
}

// shardSlot is one partition of a sharded switch.
type shardSlot struct {
	eng    *sim.Engine
	outbox []parallel.Export
	// spineReqs accumulates the shard's would-be interior occupancies
	// (spineMode): transmits record their claims here in execution
	// order, and the barrier arbitrates them against the shared
	// occupancy clocks in global (timestamp, shard, order) order.
	spineReqs []spineReq
}

// spineReq is one speculative interior-occupancy claim: a packet that
// left its egress link at ready and still needs its spine (or fat-tree)
// slots assigned before its arrival can be scheduled.
type spineReq struct {
	at    sim.Time // transmit execution time: the arbitration key
	src   int
	dst   *Adapter
	ready sim.Time    // egress drain: earliest interior entry
	wire  sim.Time    // link occupancy of this packet
	extra sim.Time    // deterministic reorder delay, applied after the interior
	h     sim.Handler // the arrival, scheduled on dst's engine once resolved
}

// New builds a switch with n endpoints on eng.
func New(eng *sim.Engine, n int, cfg Config) (*Switch, error) {
	return NewSharded([]*sim.Engine{eng}, n, cfg)
}

// NewSharded builds a switch whose n endpoints are partitioned into
// len(engines) shards of contiguous ranks (rank r belongs to shard
// r*shards/n), each owning its private sub-engine. Every adapter's events
// run on its shard's engine; packet and ack arrivals that cross a shard
// boundary are exported through per-shard outboxes for an epoch
// coordinator (parallel.RunEpochs) to deliver. The coordinator's
// lookahead window is WireLatency when positive; a zero-latency config
// falls back to micro-epochs bounded by the minimum adapter service time
// (Config.shardLookahead). Interior contention (SpineLinks or
// FatTreeLevels) is shared by every source adapter, so under sharding it
// is not claimed inline: each shard records its would-be occupancies
// speculatively and the epoch barrier arbitrates them in the same stable
// (timestamp, shard, sequence) order the serial engine's execution
// produces (ResolveSpine), re-injecting the delayed arrivals — which
// keeps serial and sharded virtual times byte-identical.
//
// A config that admits no positive lookahead window at all is
// unshardable; NewSharded returns a descriptive error rather than
// silently running serial.
func NewSharded(engines []*sim.Engine, n int, cfg Config) (*Switch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards := len(engines)
	if shards < 1 {
		return nil, fmt.Errorf("switchnet: need at least one engine")
	}
	if shards > n {
		return nil, fmt.Errorf("switchnet: %d shards for %d endpoints", shards, n)
	}
	if cfg.ReorderEvery > 0 && cfg.ReorderDelayPackets == 0 {
		cfg.ReorderDelayPackets = 2
	}
	s := &Switch{cfg: cfg, shards: make([]shardSlot, shards)}
	s.pool.max = max(1, poolBytes/cfg.PacketBytes)
	lookahead, laErr := cfg.shardLookahead()
	if shards > 1 {
		if laErr != nil {
			return nil, laErr
		}
		s.lookahead = lookahead
		s.spineMode = cfg.SpineLinks > 0 || len(cfg.FatTreeLevels) > 0
	} else if laErr == nil {
		s.lookahead = lookahead // single-engine: advisory only
	}
	for i, eng := range engines {
		s.shards[i].eng = eng
	}
	if cfg.SpineLinks > 0 {
		s.spineFree = make([]sim.Time, cfg.SpineLinks)
	}
	if len(cfg.FatTreeLevels) > 0 {
		s.treeFree = make([][]sim.Time, len(cfg.FatTreeLevels))
		for l, links := range cfg.FatTreeLevels {
			s.treeFree[l] = make([]sim.Time, links)
		}
	}
	s.adapters = make([]*Adapter, n)
	for i := range s.adapters {
		shard := i * shards / n
		s.adapters[i] = &Adapter{
			sw:     s,
			rank:   i,
			eng:    engines[shard],
			shard:  shard,
			posted: make(map[directKey]*dregion),
		}
	}
	return s, nil
}

// Shards returns the number of sub-engines driving this switch (one for a
// single-engine switch).
func (s *Switch) Shards() int { return len(s.shards) }

// ShardOf returns the shard index owning rank.
func (s *Switch) ShardOf(rank int) int {
	fabric.CheckRank(rank, len(s.adapters))
	return s.adapters[rank].shard
}

// Lookahead returns the conservative synchronization window for epoch
// execution: every cross-shard event takes effect at least this much
// virtual time after its creation — WireLatency when positive, otherwise
// the micro-epoch window (the minimum adapter service time; see
// Config.shardLookahead).
func (s *Switch) Lookahead() sim.Time { return s.lookahead }

// interiorOccupy claims the shared interior links a packet crosses from
// src to dst, given that its egress drain completes at ready and it
// occupies each link for wire. It returns the virtual time the packet
// exits the interior and the number of switch traversals (WireLatency
// charges). A crossbar has no shared interior (exit = ready, one
// traversal); a flat spine claims one of SpineLinks pair-hashed links
// (one traversal, as before the fat tree existed); a fat tree claims one
// up-link per pool from the leaf to the lowest common level and one
// down-link per pool back, charging one traversal per level climbed.
// Routes are a fixed hash of (src, dst, level, direction) — static, as
// on the real switch — so occupancy is deterministic in claim order.
func (s *Switch) interiorOccupy(src, dst int, ready, wire sim.Time) (sim.Time, int) {
	if s.spineFree != nil {
		// Deterministic multiplicative hash of the (src,dst) pair:
		// routes are fixed per pair, as on the real switch.
		h := uint64(src)*0x9E3779B97F4A7C15 ^ uint64(dst)*0xC2B2AE3D27D4EB4F
		sl := &s.spineFree[h%uint64(len(s.spineFree))]
		start := ready
		if *sl > start {
			start = *sl
		}
		*sl = start + wire
		return *sl, 1
	}
	if s.treeFree != nil {
		arity := s.cfg.FatTreeArity
		// lstar is the lowest level at which src and dst share a group
		// (leaves are level 1), capped at the root pool: packets whose
		// paths differ even at the top still route through the top pool.
		lstar := 1
		sg, dg := src/arity, dst/arity
		for sg != dg && lstar <= len(s.treeFree) {
			lstar++
			sg, dg = sg/arity, dg/arity
		}
		end := ready
		claim := func(level, dir int) {
			pool := s.treeFree[level-1]
			h := uint64(src)*0x9E3779B97F4A7C15 ^ uint64(dst)*0xC2B2AE3D27D4EB4F ^
				uint64(level)*0xD6E8FEB86659FD93 ^ uint64(dir)*0xFF51AFD7ED558CCD
			sl := &pool[h%uint64(len(pool))]
			if *sl > end {
				end = *sl
			}
			end += wire
			*sl = end
		}
		for l := 1; l < lstar; l++ {
			claim(l, 0) // up
		}
		for l := lstar - 1; l >= 1; l-- {
			claim(l, 1) // down
		}
		return end, lstar
	}
	return ready, 1
}

// resolveReqs arbitrates a batch of speculative interior claims: stable
// sort by (timestamp, source rank) — each source's claims are already in
// its own execution order, so the full key is (timestamp, source,
// per-source sequence) — then resolve against the authoritative
// occupancy clocks and schedule each arrival on its destination engine.
// Serial (instant-deferred) and sharded (barrier-deferred) interiors
// both funnel through here, which is what makes their virtual times
// identical: the arbitration key never mentions shards or engine event
// order.
func (s *Switch) resolveReqs(reqs []spineReq) {
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].at != reqs[j].at {
			return reqs[i].at < reqs[j].at
		}
		return reqs[i].src < reqs[j].src
	})
	lat := sim.Time(s.cfg.WireLatency)
	for i := range reqs {
		r := &reqs[i]
		end, hops := s.interiorOccupy(r.src, r.dst.rank, r.ready, r.wire)
		r.dst.eng.ScheduleHandlerAt(end+sim.Time(hops)*lat+r.extra, r.h)
	}
	s.Counters.Add(stats.SpineRequests, int64(len(reqs)))
	s.Counters.Max(stats.SpineReqHighWater, int64(len(reqs)))
}

// resolveInstant drains the single-engine interior's same-instant claim
// batch (armed by transmit via a due-FIFO event at the claim's own
// virtual instant).
func (s *Switch) resolveInstant() {
	s.resolverArmed = false
	reqs := s.instReqs
	s.instReqs = s.instReqs[:0]
	s.resolveReqs(reqs)
	for i := range reqs {
		reqs[i] = spineReq{} // drop packet references
	}
}

// instantResolver is the single-engine interior's same-instant resolver
// as an event.
type instantResolver Switch

func (r *instantResolver) Fire() { (*Switch)(r).resolveInstant() }

// ResolveSpine is the epoch-barrier arbitration hook
// (parallel.Hooks.Barrier) for a sharded switch with a shared interior.
// During the epoch each shard recorded its would-be interior occupancies
// speculatively (transmit appends to shardSlot.spineReqs instead of
// touching the shared clocks); here, with every engine parked, the
// requests of all shards are merged and resolved in the global
// (timestamp, source, per-source sequence) order (resolveReqs),
// scheduling each delayed arrival on its destination engine. On a switch
// without spineMode it is a cheap no-op, so callers may pass it
// unconditionally.
func (s *Switch) ResolveSpine() {
	reqs := s.reqScratch[:0]
	for i := range s.shards {
		reqs = append(reqs, s.shards[i].spineReqs...)
		s.shards[i].spineReqs = s.shards[i].spineReqs[:0]
	}
	if len(reqs) == 0 {
		s.reqScratch = reqs
		return
	}
	s.resolveReqs(reqs)
	for i := range reqs {
		reqs[i] = spineReq{} // drop packet references
	}
	s.reqScratch = reqs[:0]
}

// TakeOutbox drains and returns shard's accumulated cross-shard events in
// creation order — the parallel.RunEpochs collection hook. It must only be
// called at an epoch barrier (no shard engine running).
func (s *Switch) TakeOutbox(shard int) []parallel.Export {
	sl := &s.shards[shard]
	out := sl.outbox
	sl.outbox = nil
	return out
}

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Endpoint returns the adapter for rank, which implements fabric.Transport.
func (s *Switch) Endpoint(rank int) *Adapter {
	fabric.CheckRank(rank, len(s.adapters))
	return s.adapters[rank]
}

// directHdrBytes is the wire header charged per direct-lane fragment
// (8-byte token + 4-byte offset). Much smaller than the 48-byte LAPI
// packet header the eager path carries — the per-byte advantage that,
// against the fixed RTS/CTS round trip, sets the rendezvous crossover.
const directHdrBytes = 12

// txPacket is the record of one packet. The sender creates it; every
// transmission carries it to the receiver as the arrival event, and every
// acknowledgement carries it back. Its fields are split by side, so the
// two ends of a sharded switch never write the same one: acked, data and
// msg belong to the sender's engine, delivered to the receiver's, and the
// rest never change after the packet is sent.
type txPacket struct {
	from, to *Adapter
	// data is the packet, or a direct fragment's slice of the caller's
	// payload. The sender drops it at the ack; by then the receiver has
	// it, and a copy still in flight is discarded unread.
	data []byte
	// acked is set when the first acknowledgement reaches the sender.
	acked bool
	// delivered is set at the first arrival: any later copy — a
	// retransmission that raced the ack — is a duplicate, dropped before
	// a byte of data is read (the buffer may back another packet by then).
	delivered bool
	// Direct-lane fragments: data aliases the caller's payload slice
	// (zero-copy), off is its placement offset in the posted region, and
	// msg links the fragments of one SendDirect for the all-acked
	// completion callback.
	direct bool
	token  uint64
	off    uint32
	msg    *directMsg
}

// arrival is one transmission of a packet reaching its destination
// adapter, and ackArrival that adapter's acknowledgement reaching the
// sender: the record itself is the event, so neither allocates.
type (
	arrival    txPacket
	ackArrival txPacket
)

func (e *arrival) Fire() {
	p := (*txPacket)(e)
	if p.direct {
		p.to.receiveDirect(p)
	} else {
		p.to.receive(p)
	}
}

func (e *ackArrival) Fire() { (*txPacket)(e).from.ack((*txPacket)(e)) }

// rtoEntry is one transmission's retransmission deadline: the key (at,
// seq) its timer event would have had, and the packet it covers.
type rtoEntry struct {
	at  sim.Time
	seq uint64
	p   *txPacket
}

// rtoTimer is an adapter's one armed retransmission timer.
type rtoTimer Adapter

func (r *rtoTimer) Fire() { (*Adapter)(r).expire() }

// directMsg tracks one SendDirect until every fragment is acknowledged —
// only then may the caller touch the payload again (a retransmission
// re-reads the live slice until its ack lands).
type directMsg struct {
	remaining int
	sent      func()
}

// directKey identifies a pre-posted landing region (see RecvInto).
type directKey struct {
	src   int
	token uint64
}

// dregion is one pre-posted landing buffer on the receive side.
type dregion struct {
	buf   []byte
	recvd int
}

// Adapter is one node's attachment to the switch. It provides reliable,
// possibly-reordered packet delivery and implements fabric.Transport.
type Adapter struct {
	sw      *Switch
	rank    int
	eng     *sim.Engine // the sub-engine this adapter's events run on
	shard   int
	deliver func(src int, data []byte)

	// linkFree is the virtual time at which the outgoing link becomes
	// idle; packets queue behind it (link serialization).
	linkFree sim.Time
	// dataSent counts first transmissions, for the deterministic
	// reorder/drop rules.
	dataSent uint64

	// unacked counts packets sent and not yet acknowledged.
	unacked int
	// rto is the retransmission FIFO: one entry per transmission in
	// transmit order, so its deadlines never decrease. Only the entry at
	// rtoHead is in the engine's queue; expire explains why that is exact.
	rto     []rtoEntry
	rtoHead int

	directDone func(src int, token uint64)
	posted     map[directKey]*dregion
}

var _ fabric.Transport = (*Adapter)(nil)

// Self implements fabric.Transport.
func (a *Adapter) Self() int { return a.rank }

// N implements fabric.Transport.
func (a *Adapter) N() int { return len(a.sw.adapters) }

// MaxPacket implements fabric.Transport.
func (a *Adapter) MaxPacket() int { return a.sw.cfg.PacketBytes }

// SetDeliver implements fabric.Transport.
func (a *Adapter) SetDeliver(fn func(src int, data []byte)) { a.deliver = fn } //lapivet:ignore racefree registration precedes wire-up: no Send can deliver before the callback is installed

// Alloc implements fabric.Transport: a buffer of up to PacketBytes comes
// from the switch's free list, unzeroed; a larger one (which Send will
// refuse) is allocated outright.
func (a *Adapter) Alloc(n int) []byte {
	size := a.sw.cfg.PacketBytes
	if n > size {
		return make([]byte, n)
	}
	return a.sw.pool.get(size)[:n]
}

// Release implements fabric.Transport: a delivered packet goes back to the
// switch's free list. The sender's record keeps the slice header until the
// ack, to size a retransmission; a copy still in flight after the first
// delivery is discarded on the record's delivered flag before any byte is
// read (txPacket), so recycled bytes are never observed. A slice that did
// not come from Alloc is left to the garbage collector.
func (a *Adapter) Release(pkt []byte) {
	if cap(pkt) == a.sw.cfg.PacketBytes {
		a.sw.pool.put(pkt[:cap(pkt)])
	}
}

// Contract implements fabric.Transport: both directions are pooled. The
// receiver owns a delivered packet until it calls Release; direct-lane
// fragments bypass the pool and alias the caller's payload.
func (a *Adapter) Contract() fabric.Contract {
	return fabric.Contract{PooledDelivery: true, PooledSend: true}
}

// SetDirectDone implements fabric.Transport.
func (a *Adapter) SetDirectDone(fn func(src int, token uint64)) { a.directDone = fn } //lapivet:ignore racefree registration precedes wire-up: no direct send can complete before the callback is installed

// RecvInto implements fabric.Transport: posts buf as the landing region
// for direct fragments from (src, token). Completion (the SetDirectDone
// upcall) is modeled as adapter DMA — it costs no CPU time on the
// receiving task.
func (a *Adapter) RecvInto(src int, token uint64, buf []byte) {
	fabric.CheckRank(src, len(a.sw.adapters))
	a.posted[directKey{src: src, token: token}] = &dregion{buf: buf}
}

// SendDirect implements fabric.Transport: the payload is fragmented into
// PacketBytes-sized wire packets whose data slices ALIAS the caller's
// buffer (no copy), each carrying a 12-byte (token, offset) header instead
// of a protocol packet header. Fragments ride the normal seq/ack/RTO
// machinery, so drop and reorder injection exercise this path too; because
// a retransmission re-reads the live payload slice, sent fires only once
// every fragment has been ACKNOWLEDGED (not merely drained) — the earliest
// point the buffer can safely change.
func (a *Adapter) SendDirect(ctx exec.Context, dst int, token uint64, payload []byte, sent func()) {
	fabric.CheckRank(dst, len(a.sw.adapters))
	chunk := a.sw.cfg.PacketBytes - directHdrBytes
	if chunk <= 0 {
		panic(fmt.Sprintf("switchnet: PacketBytes=%d cannot carry a direct fragment header", a.sw.cfg.PacketBytes))
	}
	if dst == a.rank {
		// Loopback: one copy into the posted region at the next scheduling
		// point (no wire to elide it on).
		a.sw.Counters.Add(stats.PacketsSent, 1)
		a.sw.Counters.Add(stats.BytesSent, int64(len(payload)))
		a.eng.Schedule(0, func() {
			k := directKey{src: a.rank, token: token}
			r := a.posted[k]
			if r == nil {
				panic(fmt.Sprintf("switchnet: direct loopback at rank %d with no posted region (token %d)", a.rank, token))
			}
			copy(r.buf, payload)
			delete(a.posted, k)
			if sent != nil {
				sent()
			}
			if a.directDone != nil {
				a.directDone(a.rank, token)
			}
		})
		return
	}
	nfrag := (len(payload) + chunk - 1) / chunk
	if nfrag == 0 {
		nfrag = 1
	}
	msg := &directMsg{remaining: nfrag, sent: sent}
	for off := 0; ; off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		p := &txPacket{
			from: a, to: a.sw.adapters[dst], data: payload[off:end],
			direct: true, token: token, off: uint32(off), msg: msg,
		}
		a.unacked++
		a.transmit(p, false, nil)
		if end >= len(payload) {
			break
		}
	}
}

// Close implements fabric.Transport.
func (a *Adapter) Close() error { return nil }

// Send implements fabric.Transport: queue one packet for dst. The sent
// callback, if non-nil, fires when the packet has fully left the adapter
// (the origin buffer drain point used for LAPI's origin counter on
// zero-copy sends). Send never blocks.
func (a *Adapter) Send(ctx exec.Context, dst int, data []byte, sent func()) {
	fabric.CheckRank(dst, len(a.sw.adapters))
	if len(data) > a.sw.cfg.PacketBytes {
		panic(fmt.Sprintf("switchnet: packet of %d bytes exceeds PacketBytes=%d", len(data), a.sw.cfg.PacketBytes))
	}
	if dst == a.rank {
		// Loopback: no wire, deliver at the next scheduling point.
		a.sw.Counters.Add(stats.PacketsSent, 1)
		a.sw.Counters.Add(stats.BytesSent, int64(len(data)))
		a.eng.Schedule(0, func() {
			if sent != nil {
				sent()
			}
			a.sw.adapters[dst].receiveLoopback(a.rank, data)
		})
		return
	}
	a.unacked++
	a.transmit(&txPacket{from: a, to: a.sw.adapters[dst], data: data}, false, sent)
}

// post schedules h at absolute virtual time at on dst's engine. When dst
// shares a's engine the schedule is direct (and identical, event for
// event, to the pre-sharding code: ScheduleAt(at) is Schedule(at-now));
// otherwise the event goes to a's shard outbox for the epoch coordinator
// to import at the next barrier. Cross-shard posts are only ever created
// at least WireLatency ahead of the sender's clock — the lookahead
// guarantee the coordinator relies on.
func (a *Adapter) post(dst *Adapter, at sim.Time, h sim.Handler) {
	if dst.eng == a.eng {
		a.eng.ScheduleHandlerAt(at, h)
		return
	}
	sl := &a.sw.shards[a.shard]
	sl.outbox = append(sl.outbox, parallel.Export{At: at, Shard: dst.shard, H: h})
}

// transmit puts p on the wire (first transmission or retransmission).
func (a *Adapter) transmit(p *txPacket, isRetry bool, sent func()) {
	cfg := a.sw.cfg
	eng := a.eng

	wireBytes := len(p.data)
	if p.direct {
		wireBytes += directHdrBytes
	}
	wire := cfg.wireTime(wireBytes)
	depart := eng.Now()
	if a.linkFree > depart {
		depart = a.linkFree
	}
	a.linkFree = depart + sim.Time(wire)

	a.sw.Counters.Add(stats.PacketsSent, 1)
	a.sw.Counters.Add(stats.BytesSent, int64(wireBytes))

	drop := false
	extra := time.Duration(0)
	if !isRetry {
		a.dataSent++
		if cfg.DropEvery > 0 && a.dataSent%uint64(cfg.DropEvery) == 0 {
			drop = true
		}
		if !drop && cfg.ReorderEvery > 0 && a.dataSent%uint64(cfg.ReorderEvery) == 0 {
			extra = time.Duration(cfg.ReorderDelayPackets) * cfg.wireTime(cfg.PacketBytes)
		}
	} else {
		a.sw.Counters.Add(stats.Retransmits, 1)
	}

	if sent != nil {
		eng.Schedule(time.Duration(a.linkFree-eng.Now()), sent)
	}

	if drop {
		a.sw.Counters.Add(stats.PacketsDropped, 1)
	} else {
		// Egress-link drain, then the shared interior (if any), then
		// propagation.
		ready := a.linkFree
		dstAd := p.to
		h := (*arrival)(p)
		switch {
		case a.sw.spineMode:
			// Partitioned switch, shared interior: don't touch the
			// occupancy clocks from inside an epoch. Record the claim;
			// the barrier arbitrates it (ResolveSpine) and schedules the
			// arrival.
			sl := &a.sw.shards[a.shard]
			sl.spineReqs = append(sl.spineReqs, spineReq{
				at: eng.Now(), src: a.rank, dst: dstAd,
				ready: ready, wire: sim.Time(wire), extra: sim.Time(extra), h: h,
			})
		case a.sw.spineFree != nil || a.sw.treeFree != nil:
			// Single-engine interior: defer the claim to a resolver at
			// this same virtual instant (due-FIFO), so same-instant ties
			// are arbitrated by source rank — matching the sharded
			// barrier — not by event-creation order.
			a.sw.instReqs = append(a.sw.instReqs, spineReq{
				at: eng.Now(), src: a.rank, dst: dstAd,
				ready: ready, wire: sim.Time(wire), extra: sim.Time(extra), h: h,
			})
			if !a.sw.resolverArmed {
				a.sw.resolverArmed = true
				eng.ScheduleHandlerAt(eng.Now(), (*instantResolver)(a.sw))
			}
		default:
			arrive := ready + sim.Time(cfg.WireLatency) + sim.Time(extra)
			a.post(dstAd, arrive, h)
		}
	}

	// The retransmission deadline takes the sequence number its own timer
	// event would have: every other event keeps its (at, seq) key. Only
	// the FIFO's head is queued, so an entry joining an empty FIFO arms.
	a.rto = append(a.rto, rtoEntry{at: a.linkFree + sim.Time(cfg.RTO), seq: eng.ReserveSeq(), p: p})
	if len(a.rto)-a.rtoHead == 1 {
		a.armRTO()
	}
}

// armRTO queues the FIFO head's timer under its reserved key.
func (a *Adapter) armRTO() {
	e := &a.rto[a.rtoHead]
	a.eng.ScheduleReserved(e.at, e.seq, (*rtoTimer)(a))
}

// expire fires the FIFO head's retransmission deadline: an unacked packet
// goes out again (its new deadline joins the tail), an acked one does
// nothing — exactly what the head's own timer event would have done.
// Then it skips every following entry whose packet is acked already and
// arms the first that is not. The skip is exact: an entry's deadline is at
// or after the head's, so its own event would still lie ahead, and an
// acked packet stays acked, so that event would do nothing. The last
// entry is never skipped: its event is the adapter's latest, and firing it
// leaves the engine's clock where a timer per transmission would have —
// Job.Now() and everything printed from it depend on that.
func (a *Adapter) expire() {
	if p := a.rto[a.rtoHead].p; !p.acked {
		a.transmit(p, true, nil)
	}
	a.rto[a.rtoHead] = rtoEntry{}
	a.rtoHead++
	for a.rtoHead < len(a.rto)-1 && a.rto[a.rtoHead].p.acked {
		a.rto[a.rtoHead] = rtoEntry{}
		a.rtoHead++
	}
	if a.rtoHead == len(a.rto) {
		a.rto, a.rtoHead = a.rto[:0], 0
		return
	}
	if a.rtoHead >= 64 && 2*a.rtoHead >= len(a.rto) {
		n := copy(a.rto, a.rto[a.rtoHead:])
		clear(a.rto[n:])
		a.rto, a.rtoHead = a.rto[:n], 0
	}
	a.armRTO()
}

// receive handles an arriving data packet at the destination adapter.
func (a *Adapter) receive(p *txPacket) {
	// Always (re-)acknowledge: the earlier ack may have raced a
	// retransmission.
	a.sendAck(p)
	if p.delivered {
		return // duplicate from retransmission
	}
	p.delivered = true
	a.sw.Counters.Add(stats.PacketsRecv, 1)
	a.sw.Counters.Add(stats.BytesRecv, int64(len(p.data)))
	if a.deliver == nil {
		panic(fmt.Sprintf("switchnet: packet for rank %d with no deliver callback", a.rank))
	}
	a.deliver(p.from.rank, p.data)
}

// receiveDirect lands one direct-lane fragment in its pre-posted region —
// modeled as adapter DMA: the copy below is the simulation updating the
// bytes a real adapter would have placed without CPU involvement, so no
// virtual time is charged here beyond the wire time transmit already spent.
func (a *Adapter) receiveDirect(p *txPacket) {
	a.sendAck(p)
	if p.delivered {
		return // duplicate from retransmission
	}
	p.delivered = true
	src, token, off, data := p.from.rank, p.token, p.off, p.data
	a.sw.Counters.Add(stats.PacketsRecv, 1)
	a.sw.Counters.Add(stats.BytesRecv, int64(len(data)+directHdrBytes))
	k := directKey{src: src, token: token}
	r := a.posted[k]
	if r == nil {
		panic(fmt.Sprintf("switchnet: direct fragment at rank %d with no posted region (src %d token %d)", a.rank, src, token))
	}
	if int(off)+len(data) > len(r.buf) {
		panic(fmt.Sprintf("switchnet: direct fragment at rank %d overflows region (src %d token %d off %d len %d region %d)", a.rank, src, token, off, len(data), len(r.buf)))
	}
	copy(r.buf[off:], data)
	r.recvd += len(data)
	if r.recvd >= len(r.buf) {
		delete(a.posted, k)
		if a.directDone == nil {
			panic(fmt.Sprintf("switchnet: direct completion at rank %d with no done callback", a.rank))
		}
		a.directDone(src, token)
	}
}

// receiveLoopback bypasses sequencing for self-sends.
func (a *Adapter) receiveLoopback(src int, data []byte) {
	a.sw.Counters.Add(stats.PacketsRecv, 1)
	a.sw.Counters.Add(stats.BytesRecv, int64(len(data)))
	if a.deliver == nil {
		panic(fmt.Sprintf("switchnet: packet for rank %d with no deliver callback", a.rank))
	}
	a.deliver(src, data)
}

// sendAck returns a small acknowledgement of p to its sender. Acks consume
// reverse-link bandwidth but are never dropped or reordered (the adapter
// hardware protocol), which keeps retransmission logic simple and
// deterministic.
func (a *Adapter) sendAck(p *txPacket) {
	cfg := a.sw.cfg
	eng := a.eng
	wire := cfg.wireTime(cfg.AckBytes)
	depart := eng.Now()
	if a.linkFree > depart {
		depart = a.linkFree
	}
	a.linkFree = depart + sim.Time(wire)
	a.sw.Counters.Add(stats.AcksSent, 1)
	a.post(p.from, a.linkFree+sim.Time(cfg.WireLatency), (*ackArrival)(p))
}

// ack handles an acknowledgement of p arriving back at its sender. Only
// the first counts; the record then lets go of the packet's bytes, so a
// retransmission entry still queued behind the FIFO's head pins nothing.
func (a *Adapter) ack(p *txPacket) {
	if p.acked {
		return
	}
	p.acked = true
	p.data = nil
	a.unacked--
	if m := p.msg; m != nil {
		// Direct-lane fragment: the payload slice is pinned until the
		// whole message is acked, then the borrow ends.
		p.msg = nil
		m.remaining--
		if m.remaining == 0 && m.sent != nil {
			m.sent()
		}
	}
}

// PendingAcks reports the number of unacknowledged packets (test hook).
func (a *Adapter) PendingAcks() int { return a.unacked }
