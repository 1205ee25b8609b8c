package lapi

import (
	"encoding/binary"
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/trace"
)

// Probe makes communication progress without blocking (a polling point for
// polling-mode programs; cheap in interrupt mode).
func (t *Task) Probe(ctx exec.Context) { t.Poll(ctx) }

// Fence blocks until every operation this task initiated has completed its
// data transfer (LAPI_Fence). Completion handlers of outstanding active
// messages may still be running — "the status of corresponding completion
// handlers is not known" (§5.3.2); use completion counters to wait for
// those.
func (t *Task) Fence(ctx exec.Context) {
	t.requireBlockingAllowed("Fence")
	if t.cfg.Tracer != nil {
		t.tracef(trace.KindFence, "fence enter, %d outstanding", t.outstanding)
		defer t.tracef(trace.KindFence, "fence complete")
	}
	t.Until(ctx, func() bool { return t.outstanding == 0 })
}

// Outstanding reports the number of initiated operations whose data
// transfer has not yet completed (test and instrumentation hook).
func (t *Task) Outstanding() int { return t.outstanding }

// Gfence is the global fence (LAPI_Gfence): a Fence on every task plus a
// barrier. When it returns, all operations initiated by any task before its
// Gfence have completed their data transfers.
func (t *Task) Gfence(ctx exec.Context) {
	t.requireBlockingAllowed("Gfence")
	t.Fence(ctx)
	t.Barrier(ctx)
}

// Barrier blocks until all tasks have arrived (not part of the paper's
// Table 1, but required by Gfence and exported for user libraries like GA).
// Implemented centrally: everyone reports to rank 0, which releases the
// epoch.
func (t *Task) Barrier(ctx exec.Context) {
	t.requireBlockingAllowed("Barrier")
	epoch := t.coll.barrierEpoch
	t.coll.barrierEpoch++
	t.sendControl(ctx, 0, header{typ: ptBarrierArrive, aux: epoch})
	if t.coll.barrierDone <= epoch {
		// A release that came in while the arrival was sent skips the poll.
		t.Until(ctx, func() bool { return t.coll.barrierDone > epoch })
	}
}

// AddressInit exchanges one address with every task (LAPI_Address_init):
// returns the table of values such that table[r] is task r's value. Every
// task must call it in the same order. Typically used right after setup to
// publish base addresses of shared regions.
func (t *Task) AddressInit(ctx exec.Context, local Addr) ([]Addr, error) {
	t.requireBlockingAllowed("AddressInit")
	words, err := t.ExchangeWord(ctx, uint64(local))
	if err != nil {
		return nil, err
	}
	addrs := make([]Addr, len(words))
	for i, w := range words {
		addrs[i] = Addr(w)
	}
	return addrs, nil
}

// ExchangeWord is the collective underlying AddressInit: an all-gather of
// one 64-bit word per task.
func (t *Task) ExchangeWord(ctx exec.Context, value uint64) ([]uint64, error) {
	t.requireBlockingAllowed("ExchangeWord")
	gen := t.coll.gatherGen
	t.coll.gatherGen++
	t.sendControl(ctx, 0, header{
		typ:    ptGatherWord,
		offset: uint32(t.Self()),
		addr2:  value,
		aux:    gen,
	})
	t.Until(ctx, func() bool { return t.coll.tableWords[gen] == t.N() })
	tbl := t.coll.tables[gen]
	delete(t.coll.tables, gen)
	delete(t.coll.tableWords, gen)
	return tbl, nil
}

// collectives holds the small amount of state behind Barrier and
// ExchangeWord. Rank 0 acts as the root for both.
type collectives struct {
	t *Task

	barrierEpoch   uint64         // next epoch this task will enter
	barrierDone    uint64         // lowest epoch not yet released
	barrierArrived map[uint64]int // root only: arrivals per epoch

	gatherGen   uint64              // next exchange generation
	gathered    map[uint64][]uint64 // root only: words per generation
	gatherCount map[uint64]int      // root only: arrivals per generation
	tables      map[uint64][]uint64 // everyone: received tables
	tableWords  map[uint64]int      // words received so far per generation
}

func (c *collectives) init(t *Task) {
	c.t = t
	c.barrierArrived = make(map[uint64]int)
	c.gathered = make(map[uint64][]uint64)
	c.gatherCount = make(map[uint64]int)
	c.tables = make(map[uint64][]uint64)
	c.tableWords = make(map[uint64]int)
}

// handle processes collective control packets inside the dispatcher.
func (c *collectives) handle(ctx exec.Context, src int, h header, payload []byte) {
	t := c.t
	switch h.typ {
	case ptBarrierArrive:
		if t.Self() != 0 {
			panic("lapi: barrier arrival at non-root")
		}
		epoch := h.aux
		c.barrierArrived[epoch]++
		if c.barrierArrived[epoch] == t.N() {
			delete(c.barrierArrived, epoch)
			for r := 0; r < t.N(); r++ {
				t.sendControl(ctx, r, header{typ: ptBarrierGo, aux: epoch})
			}
		}

	case ptBarrierGo:
		if h.aux+1 > c.barrierDone {
			c.barrierDone = h.aux + 1
		}
		t.Notify()

	case ptGatherWord:
		if t.Self() != 0 {
			panic("lapi: gather word at non-root")
		}
		gen := h.aux
		if c.gathered[gen] == nil {
			c.gathered[gen] = make([]uint64, t.N())
		}
		c.gathered[gen][h.offset] = h.addr2
		c.gatherCount[gen]++
		if c.gatherCount[gen] == t.N() {
			table := c.gathered[gen]
			delete(c.gathered, gen)
			delete(c.gatherCount, gen)
			c.broadcastTable(ctx, gen, table)
		}

	case ptTableChunk:
		gen := h.aux
		n := int(h.totalLen)
		if c.tables[gen] == nil {
			c.tables[gen] = make([]uint64, n)
		}
		start := int(h.offset)
		for i := 0; i*8+8 <= len(payload); i++ {
			c.tables[gen][start+i] = binary.BigEndian.Uint64(payload[i*8:])
			c.tableWords[gen]++
		}
		t.Notify()

	default:
		panic(fmt.Sprintf("lapi: collectives: unexpected packet type %d", h.typ))
	}
}

// broadcastTable ships the gathered table to every rank, chunked to the
// packet payload.
func (c *collectives) broadcastTable(ctx exec.Context, gen uint64, table []uint64) {
	t := c.t
	wordsPerChunk := t.maxPayload() / 8
	if wordsPerChunk < 1 {
		panic("lapi: packet too small for table broadcast")
	}
	for start := 0; start < len(table); start += wordsPerChunk {
		end := start + wordsPerChunk
		if end > len(table) {
			end = len(table)
		}
		payload := make([]byte, (end-start)*8)
		for i, w := range table[start:end] {
			binary.BigEndian.PutUint64(payload[i*8:], w)
		}
		h := header{
			typ:      ptTableChunk,
			offset:   uint32(start),
			totalLen: uint32(len(table)),
			aux:      gen,
		}
		for r := 0; r < t.N(); r++ {
			pkt := t.buildPacket(&h, payload)
			t.tr.Send(ctx, r, pkt, nil)
		}
	}
}
