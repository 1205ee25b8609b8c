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
	ready sim.Time // egress drain: earliest interior entry
	wire  sim.Time // link occupancy of this packet
	extra sim.Time // deterministic reorder delay, applied after the interior
	fn    func()   // the arrival, scheduled on dst's engine once resolved
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
			sw:      s,
			rank:    i,
			eng:     engines[shard],
			shard:   shard,
			unacked: make(map[uint64]*txPacket),
			// seen maps are allocated lazily on first delivery from each
			// source: at 1k+ ranks an eager n×n map grid dominates
			// construction time and memory for meshes whose traffic
			// touches few pairs.
			seen:   make([]map[uint64]bool, n),
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
		r.dst.eng.ScheduleAt(end+sim.Time(hops)*lat+r.extra, r.fn)
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
		reqs[i] = spineReq{} // drop closure references
	}
}

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
		reqs[i] = spineReq{} // drop closure references
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

// txPacket is a sender-side record of an in-flight packet.
type txPacket struct {
	dst     int
	seq     uint64
	data    []byte
	acked   bool
	retries int
	// Direct-lane fragments: data aliases the caller's payload slice
	// (zero-copy), off is its placement offset in the posted region, and
	// msg links the fragments of one SendDirect for the all-acked
	// completion callback.
	direct bool
	token  uint64
	off    uint32
	msg    *directMsg
}

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

	unacked map[uint64]*txPacket // keyed by seq (seqs are globally unique per adapter)
	seqGen  uint64               // global sequence generator for this adapter
	seen    []map[uint64]bool    // per-source delivered seqs (dedup of retransmits)

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

// Alloc implements fabric.Transport. The switch does not pool: sent packets
// are retained by the retransmission machinery (and delivered slices alias
// them), so buffers cannot be recycled on release.
func (a *Adapter) Alloc(n int) []byte { return make([]byte, n) }

// Release implements fabric.Transport as a no-op; see Alloc.
func (a *Adapter) Release(pkt []byte) {}

// Contract implements fabric.Transport: nothing is pooled.
func (a *Adapter) Contract() fabric.Contract { return fabric.Contract{} }

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
		a.seqGen++
		p := &txPacket{
			dst: dst, seq: a.seqGen, data: payload[off:end],
			direct: true, token: token, off: uint32(off), msg: msg,
		}
		a.unacked[p.seq] = p
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
	a.seqGen++
	p := &txPacket{dst: dst, seq: a.seqGen, data: data}
	a.unacked[p.seq] = p
	a.transmit(p, false, sent)
}

// post schedules fn at absolute virtual time at on dst's engine. When dst
// shares a's engine the schedule is direct (and identical, event for
// event, to the pre-sharding code: ScheduleAt(at) is Schedule(at-now));
// otherwise the event goes to a's shard outbox for the epoch coordinator
// to import at the next barrier. Cross-shard posts are only ever created
// at least WireLatency ahead of the sender's clock — the lookahead
// guarantee the coordinator relies on.
func (a *Adapter) post(dst *Adapter, at sim.Time, fn func()) {
	if dst.eng == a.eng {
		a.eng.ScheduleAt(at, fn)
		return
	}
	sl := &a.sw.shards[a.shard]
	sl.outbox = append(sl.outbox, parallel.Export{At: at, Shard: dst.shard, Fn: fn})
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
		src, seq, data := a.rank, p.seq, p.data
		dstAd := a.sw.adapters[p.dst]
		var fn func()
		if p.direct {
			token, off := p.token, p.off
			fn = func() { dstAd.receiveDirect(src, seq, token, off, data) }
		} else {
			fn = func() { dstAd.receive(src, seq, data) }
		}
		switch {
		case a.sw.spineMode:
			// Partitioned switch, shared interior: don't touch the
			// occupancy clocks from inside an epoch. Record the claim;
			// the barrier arbitrates it (ResolveSpine) and schedules fn.
			sl := &a.sw.shards[a.shard]
			sl.spineReqs = append(sl.spineReqs, spineReq{
				at: eng.Now(), src: src, dst: dstAd,
				ready: ready, wire: sim.Time(wire), extra: sim.Time(extra), fn: fn,
			})
		case a.sw.spineFree != nil || a.sw.treeFree != nil:
			// Single-engine interior: defer the claim to a resolver at
			// this same virtual instant (due-FIFO), so same-instant ties
			// are arbitrated by source rank — matching the sharded
			// barrier — not by event-creation order.
			a.sw.instReqs = append(a.sw.instReqs, spineReq{
				at: eng.Now(), src: src, dst: dstAd,
				ready: ready, wire: sim.Time(wire), extra: sim.Time(extra), fn: fn,
			})
			if !a.sw.resolverArmed {
				a.sw.resolverArmed = true
				eng.Schedule(0, a.sw.resolveInstant)
			}
		default:
			arrive := ready + sim.Time(cfg.WireLatency) + sim.Time(extra)
			a.post(dstAd, arrive, fn)
		}
	}

	// Arm the retransmission timer.
	seq := p.seq
	eng.Schedule(time.Duration(a.linkFree-eng.Now())+cfg.RTO, func() {
		q, ok := a.unacked[seq]
		if !ok || q.acked {
			return
		}
		q.retries++
		a.transmit(q, true, nil)
	})
}

// receive handles an arriving data packet at the destination adapter.
func (a *Adapter) receive(src int, seq uint64, data []byte) {
	// Always (re-)acknowledge: the earlier ack may have raced a
	// retransmission.
	a.sendAck(src, seq)
	if a.seen[src][seq] {
		return // duplicate from retransmission
	}
	if a.seen[src] == nil {
		a.seen[src] = make(map[uint64]bool)
	}
	a.seen[src][seq] = true
	a.sw.Counters.Add(stats.PacketsRecv, 1)
	a.sw.Counters.Add(stats.BytesRecv, int64(len(data)))
	if a.deliver == nil {
		panic(fmt.Sprintf("switchnet: packet for rank %d with no deliver callback", a.rank))
	}
	a.deliver(src, data)
}

// receiveDirect lands one direct-lane fragment in its pre-posted region —
// modeled as adapter DMA: the copy below is the simulation updating the
// bytes a real adapter would have placed without CPU involvement, so no
// virtual time is charged here beyond the wire time transmit already spent.
func (a *Adapter) receiveDirect(src int, seq uint64, token uint64, off uint32, data []byte) {
	a.sendAck(src, seq)
	if a.seen[src][seq] {
		return // duplicate from retransmission
	}
	if a.seen[src] == nil {
		a.seen[src] = make(map[uint64]bool)
	}
	a.seen[src][seq] = true
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

// sendAck returns a small acknowledgement to src. Acks consume reverse-link
// bandwidth but are never dropped or reordered (the adapter hardware
// protocol), which keeps retransmission logic simple and deterministic.
func (a *Adapter) sendAck(src int, seq uint64) {
	cfg := a.sw.cfg
	eng := a.eng
	wire := cfg.wireTime(cfg.AckBytes)
	depart := eng.Now()
	if a.linkFree > depart {
		depart = a.linkFree
	}
	a.linkFree = depart + sim.Time(wire)
	a.sw.Counters.Add(stats.AcksSent, 1)
	arrive := a.linkFree + sim.Time(cfg.WireLatency)
	origin := a.sw.adapters[src]
	a.post(origin, arrive, func() {
		if p, ok := origin.unacked[seq]; ok {
			p.acked = true
			delete(origin.unacked, seq)
			if m := p.msg; m != nil {
				// Direct-lane fragment: the payload slice is pinned until
				// the whole message is acked, then the borrow ends.
				m.remaining--
				if m.remaining == 0 && m.sent != nil {
					m.sent()
				}
			}
		}
	})
}

// PendingAcks reports the number of unacknowledged packets (test hook).
func (a *Adapter) PendingAcks() int { return len(a.unacked) }
