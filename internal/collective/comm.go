// Package collective implements collective operations — allreduce,
// reduce-scatter, allgather, broadcast, reduce and barrier — purely on top
// of the public LAPI one-sided API (Put, Get, Rmw, counters). It is the
// layering the paper's §6 positions LAPI for: a higher-level library built
// on one-sided remote memory copy and counters, with no two-sided matching
// anywhere.
//
// Design:
//
//   - Every rank pre-registers a mailbox region at Comm construction and
//     publishes its base address with AddressInit, so every collective step
//     is a plain LAPI_Put into a known remote offset.
//   - Completion uses the paper's counter scheme: each Put names a
//     target-side counter (the tgt counter of §2.3); the receiver waits on
//     its own counter with Waitcntr, whose decrement-on-return semantics
//     make counters reusable across calls.
//   - Counters and mailbox slots are indexed per schedule step, and the
//     whole mailbox is double-buffered by call parity, so the switch's
//     out-of-order packet delivery and ranks racing one call ahead can
//     never corrupt data that has not been consumed yet.
//   - Allreduce picks its algorithm by message size: recursive doubling
//     (latency-optimal, log2 N exchange steps of the full vector) below
//     Config.RingThreshold, and ring reduce-scatter + allgather
//     (bandwidth-optimal, 2(N-1) steps moving 2·(N-1)/N of the vector in
//     total) at or above it. The threshold is a tunable in the spirit of
//     MP_EAGER_LIMIT.
//
// All operations are collective: every rank of the job must call them in
// the same order, the convention LAPI programs already follow for
// AddressInit. Comm construction itself is collective too, and — like all
// SPMD counter use — requires that every rank has created the same number
// of LAPI counters beforehand, so counter IDs align across tasks.
package collective

import (
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/stats"
	"golapi/internal/trace"
)

// Alg selects an allreduce schedule.
type Alg int

const (
	// AlgAuto picks by message size against Config.RingThreshold.
	AlgAuto Alg = iota
	// AlgRing is reduce-scatter + allgather around a ring:
	// 2(N-1) steps, each moving 1/N of the vector — bandwidth-optimal.
	AlgRing
	// AlgRecursiveDoubling exchanges the full vector with partners at
	// doubling distances: ceil(log2 N) steps — latency-optimal.
	AlgRecursiveDoubling
)

func (a Alg) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgRing:
		return "ring"
	case AlgRecursiveDoubling:
		return "recdbl"
	default:
		return fmt.Sprintf("Alg(%d)", int(a))
	}
}

// Config parameterizes a Comm.
type Config struct {
	// MaxBytes is the largest collective payload the Comm supports; the
	// mailbox region every rank registers is sized from it.
	MaxBytes int
	// RingThreshold is the allreduce crossover: messages of at least
	// this many bytes use the ring schedule, smaller ones recursive
	// doubling. The analogue of MP_EAGER_LIMIT for algorithm choice.
	RingThreshold int
}

// DefaultConfig supports 1 MB collectives with a 64 KB ring crossover —
// the size where the ring's bandwidth advantage overtakes its 2(N-1)-step
// latency cost on the simulated switch (and, pleasingly, the maximum
// MP_EAGER_LIMIT of the paper's §4).
func DefaultConfig() Config {
	return Config{MaxBytes: 1 << 20, RingThreshold: 65536}
}

// Comm is a collective communicator bound to one LAPI task of a job. All
// ranks construct it together (New is collective) and then call the same
// collective operations in the same order.
type Comm struct {
	t   *lapi.Task
	cfg Config

	n    int // job size
	rank int

	// Schedule geometry. slots is the number of MaxBytes-sized mailbox
	// regions per parity half; steps is the number of per-parity
	// arrival counters (enough for the longest schedule: ring's 2(N-1)
	// steps or recursive doubling's log2 N + fold + unfold).
	slots int
	steps int

	mbBase  lapi.Addr   // local mailbox base
	mbAddrs []lapi.Addr // every rank's mailbox base

	// cntrs[step*2+parity]: arrival counters, created in identical
	// order on every rank so IDs align (the SPMD counter convention).
	cntrs []*lapi.Counter

	// seq counts collective calls; seq&1 is the parity selecting the
	// mailbox half and counter set, so a rank racing one call ahead
	// writes regions the laggard is not still consuming.
	seq uint64

	// orgCntr serializes rendezvous puts: above the crossover LAPI borrows
	// the payload until the direct send drains, so put blocks on this
	// counter before handing the buffer back to the schedule.
	orgCntr *lapi.Counter
}

// ceilLog2 returns the smallest L with 1<<L >= n.
func ceilLog2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// New collectively constructs a Comm over task t. Every rank of the job
// must call it at the same point in its program.
func New(ctx exec.Context, t *lapi.Task, cfg Config) (*Comm, error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("collective: MaxBytes must be positive, got %d", cfg.MaxBytes)
	}
	if cfg.RingThreshold < 0 {
		return nil, fmt.Errorf("collective: RingThreshold must be non-negative, got %d", cfg.RingThreshold)
	}
	n := t.N()
	l := ceilLog2(n)
	c := &Comm{
		t:     t,
		cfg:   cfg,
		n:     n,
		rank:  t.Self(),
		slots: l + 2, // recursive doubling: one slot per step + fold + unfold
	}
	c.steps = 2 * (n - 1) // ring: reduce-scatter + allgather steps
	if c.steps < c.slots {
		c.steps = c.slots
	}
	for i := 0; i < 2*c.steps; i++ {
		c.cntrs = append(c.cntrs, t.NewCounter())
	}
	c.orgCntr = t.NewCounter() // after the arrival counters, same order on every rank
	c.mbBase = t.Alloc(2 * c.slots * cfg.MaxBytes)
	var err error
	if c.mbAddrs, err = t.AddressInit(ctx, c.mbBase); err != nil {
		return nil, err
	}
	return c, nil
}

// Rank returns this task's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.n }

// AlgFor reports which allreduce schedule AlgAuto selects for a payload of
// the given size.
func (c *Comm) AlgFor(bytes int) Alg {
	if c.n > 1 && bytes >= c.cfg.RingThreshold {
		return AlgRing
	}
	return AlgRecursiveDoubling
}

// parity is the mailbox/counter half used by the current call.
func (c *Comm) parity() int { return int(c.seq & 1) }

// stepCntr is the local arrival counter for a schedule step.
func (c *Comm) stepCntr(step int) *lapi.Counter {
	return c.cntrs[step*2+c.parity()]
}

// remoteCntr names the corresponding counter on a peer (same ID by SPMD
// creation order).
func (c *Comm) remoteCntr(step int) lapi.RemoteCounter {
	return c.stepCntr(step).ID()
}

// slotAddr is the address of byte off within a mailbox slot on rank r, in
// the current call's parity half.
func (c *Comm) slotAddr(r, slot, off int) lapi.Addr {
	return c.mbAddrs[r] + lapi.Addr((c.parity()*c.slots+slot)*c.cfg.MaxBytes+off)
}

// localSlot returns n bytes of this rank's own mailbox slot.
func (c *Comm) localSlot(slot, off, n int) []byte {
	return c.t.MustBytes(c.slotAddr(c.rank, slot, off), n)
}

// put lands data in a peer's mailbox slot and rings its step counter.
// Below the rendezvous crossover the payload is captured synchronously by
// LAPI (packets carry copies), so the caller may reuse data as soon as put
// returns. At or above the crossover LAPI borrows the buffer until the
// direct send drains, so put waits on the origin counter to preserve the
// same reuse contract for every size.
func (c *Comm) put(ctx exec.Context, tgt, slot, off int, data []byte, step int) error {
	if len(data) == 0 {
		// Ring schedules on short vectors produce empty segments; the
		// peer still waits on the step counter, so send a data-less Put
		// that only rings it.
		return c.t.Put(ctx, tgt, lapi.AddrNil, nil, c.remoteCntr(step), nil, nil)
	}
	if x := c.t.RndvCrossover(); x > 0 && len(data) >= x {
		if err := c.t.Put(ctx, tgt, c.slotAddr(tgt, slot, off), data, c.remoteCntr(step), c.orgCntr, nil); err != nil {
			return err
		}
		c.t.Waitcntr(ctx, c.orgCntr, 1)
		return nil
	}
	return c.t.Put(ctx, tgt, c.slotAddr(tgt, slot, off), data, c.remoteCntr(step), nil, nil)
}

// wait blocks until the step's arrival counter fires, consuming one
// arrival (Waitcntr decrements, keeping counters reusable across calls).
func (c *Comm) wait(ctx exec.Context, step int) {
	c.t.Waitcntr(ctx, c.stepCntr(step), 1)
}

// begin opens a collective call: bumps the call sequence (flipping the
// parity), validates the payload, and records the trace/stats entry.
func (c *Comm) begin(op, alg string, nbytes int) error {
	if nbytes > c.cfg.MaxBytes {
		return fmt.Errorf("collective: %s: %d bytes exceeds Comm MaxBytes %d", op, nbytes, c.cfg.MaxBytes)
	}
	c.seq++
	c.t.Counters.Add(stats.CollCalls, 1)
	c.tracef("%s alg=%s bytes=%d seq=%d", op, alg, nbytes, c.seq)
	return nil
}

// tracef records a collective-kind event on the task's tracer, if any.
func (c *Comm) tracef(format string, args ...interface{}) {
	if tr := c.t.Config().Tracer; tr != nil {
		tr.Recordf(c.t.Runtime().Now(), c.rank, trace.KindCollective, format, args...)
	}
}

// checkOp validates a reduction payload against the operation.
func checkOp(op Op, buf []byte) error {
	if !op.valid() {
		return fmt.Errorf("collective: invalid op %v", op)
	}
	if es := op.ElemSize(); len(buf)%es != 0 {
		return fmt.Errorf("collective: %d-byte buffer not a multiple of %v element size %d", len(buf), op, es)
	}
	return nil
}

// mod returns x mod n in [0,n).
func mod(x, n int) int {
	x %= n
	if x < 0 {
		x += n
	}
	return x
}

// Allreduce reduces buf element-wise across all ranks with op and leaves
// the full result in buf on every rank, selecting the schedule by size.
func (c *Comm) Allreduce(ctx exec.Context, buf []byte, op Op) error {
	return c.AllreduceAlg(ctx, buf, op, AlgAuto)
}

// AllreduceAlg is Allreduce with an explicit schedule choice.
func (c *Comm) AllreduceAlg(ctx exec.Context, buf []byte, op Op, alg Alg) error {
	if err := checkOp(op, buf); err != nil {
		return err
	}
	switch alg {
	case AlgAuto:
		alg = c.AlgFor(len(buf))
	case AlgRing, AlgRecursiveDoubling:
	default:
		return fmt.Errorf("collective: invalid algorithm %v", alg)
	}
	if err := c.begin("allreduce", alg.String(), len(buf)); err != nil {
		return err
	}
	if c.n == 1 {
		return nil
	}
	if alg == AlgRing {
		cut := byteCuts(len(buf), op.ElemSize(), c.n)
		if err := c.ringReduceScatter(ctx, buf, op, cut); err != nil {
			return err
		}
		// After reduce-scatter, rank r owns segment r+1; relay from there.
		return c.ringAllgatherFrom(ctx, buf, cut, c.rank+1)
	}
	return c.rdAllreduce(ctx, buf, op)
}

// ReduceScatter reduces buf element-wise across all ranks and scatters the
// result: on return, buf[lo:hi] holds this rank's fully reduced segment
// (the ring partition of the element space). The rest of buf is scratch.
func (c *Comm) ReduceScatter(ctx exec.Context, buf []byte, op Op) (lo, hi int, err error) {
	if err := checkOp(op, buf); err != nil {
		return 0, 0, err
	}
	if err := c.begin("reduce-scatter", "ring", len(buf)); err != nil {
		return 0, 0, err
	}
	if c.n == 1 {
		return 0, len(buf), nil
	}
	cut := byteCuts(len(buf), op.ElemSize(), c.n)
	if err := c.ringReduceScatter(ctx, buf, op, cut); err != nil {
		return 0, 0, err
	}
	own := (c.rank + 1) % c.n
	return cut[own], cut[own+1], nil
}

// Allgather concatenates every rank's equal-sized contribution into out on
// every rank: out[r*len(contrib):(r+1)*len(contrib)] is rank r's bytes.
func (c *Comm) Allgather(ctx exec.Context, contrib, out []byte) error {
	l := len(contrib)
	if len(out) != c.n*l {
		return fmt.Errorf("collective: Allgather: out is %d bytes, need %d (%d ranks × %d)", len(out), c.n*l, c.n, l)
	}
	if err := c.begin("allgather", "ring", len(out)); err != nil {
		return err
	}
	copy(out[c.rank*l:], contrib)
	if c.n == 1 {
		return nil
	}
	cut := make([]int, c.n+1)
	for i := range cut {
		cut[i] = i * l
	}
	// Each rank starts owning its own segment (rank r owns segment r,
	// unlike the post-reduce-scatter relay which starts at r+1).
	return c.ringAllgatherFrom(ctx, out, cut, c.rank)
}
