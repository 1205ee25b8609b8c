// rndv.go implements the rendezvous side of the two-regime message
// protocol (DESIGN.md §12). Messages below the crossover keep the eager
// path (sendChunked: payload copied through pooled transport buffers);
// messages at or above it negotiate direct placement:
//
//	origin                          target
//	  | -- ptRts(len, tgtAddr) ------> |   resolve + register region,
//	  |                                |   RecvInto(token) pre-posts it
//	  | <------------- ptCts(msgID) -- |
//	  | == SendDirect(payload) ======> |   bytes land straight in user
//	  |            (zero-copy lane)    |   memory; done upcall fires
//	  | <-------------- ptDataAck ---- |   tgt counter, then origin's
//	  |                                |   cmpl counter + fence accounting
//
// A rendezvous Get skips the CTS: the origin pre-posts its own buffer
// before sending the request, so the target can SendDirect immediately.
//
// The payload itself never transits the LAPI packet header path — it rides
// the transport's direct lane (see ptRndvData) — so neither runtime copies
// it through an intermediate buffer.
package lapi

import (
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/stats"
	"golapi/internal/trace"
)

// Auto-tuned crossover defaults (Config.RndvLimit == 0), mirroring the
// measured-constant style of collective's 64 KB ring/recursive-doubling
// crossover.
//
// On the simulated SP switch the trade is: rendezvous buys 1012/1024 wire
// bytes of payload per packet against eager's 976/1024 (the 48-byte LAPI
// header vs the direct lane's 12-byte fragment header), i.e. ≈0.36 ns/B at
// 102 MB/s, and costs a fixed RTS/CTS round trip (two control packets:
// wire + latency + dispatch on both ends, ≈60–70 µs with the DESIGN.md §5
// calibration). Breakeven is therefore ≈180 KB; the default rounds to the
// next power of two so the fig2 sweep (doubling sizes) shows the regime
// flip cleanly at 256 KB.
//
// On a zero-cost config (real transports: no modelled CPU, TCP moves
// bytes) the win is avoiding the per-chunk copy through pooled buffers,
// which pays off as soon as a message spans a couple of packets: default
// 2×MaxPacket.
const rndvAutoSim = 256 << 10

// resolveRndvLimit turns Config.RndvLimit into the task's operative
// crossover: <= 0 disabled, otherwise the byte threshold at which Put/Get
// switch to rendezvous. Auto-tuning keys off whether the CPU cost model is
// live (the simulator calibration) or zeroed (real transports).
func resolveRndvLimit(cfg Config, tr fabric.Transport) int {
	if cfg.RndvLimit < 0 {
		return 0
	}
	if cfg.RndvLimit > 0 {
		return cfg.RndvLimit
	}
	if cfg.SendOverhead == 0 && cfg.RecvOverhead == 0 {
		return 2 * tr.MaxPacket()
	}
	return rndvAutoSim
}

// RndvCrossover reports the task's eager/rendezvous crossover in bytes:
// Puts and Gets of at least this size use the zero-copy rendezvous path.
// 0 means rendezvous is disabled (Config.RndvLimit < 0) and every message
// is eager. Callers that hold references to origin buffers (collectives,
// services) use this to decide when Put stops capturing the payload
// synchronously.
func (t *Task) RndvCrossover() int { return t.rndvLimit }

// rndvEligible reports whether an n-byte Put/Get takes the rendezvous path.
func (t *Task) rndvEligible(n int) bool {
	return t.rndvLimit > 0 && n >= t.rndvLimit
}

// Direct-lane tokens: msgID shifted up one bit, low bit carrying the
// landing side (0 = Put payload landing at the target, keyed by origin
// rank + msgID in inMsgs; 1 = Get payload landing back at the origin,
// keyed by msgID in outMsgs). msgIDs are per-origin-task sequence numbers,
// so tokens are unique per (sender, token) as the transport requires.
func putToken(msgID uint32) uint64 { return uint64(msgID) << 1 }
func getToken(msgID uint32) uint64 { return uint64(msgID)<<1 | 1 }

// putRndv initiates a rendezvous Put: a control-size RTS instead of the
// payload. The origin buffer is pinned (om.rndvData) until the transport
// reports the direct send drained, which fires the origin counter.
func (t *Task) putRndv(ctx exec.Context, tgt int, tgtAddr Addr, data []byte, tgtCntr RemoteCounter, om *outMsg, id uint32) {
	om.rndv = true
	om.rndvData = data
	t.Counters.Add(stats.RndvMsgs, 1)
	t.sendControl(ctx, tgt, header{
		typ:      ptRts,
		msgID:    id,
		totalLen: uint32(len(data)),
		addr:     uint64(tgtAddr),
		cntrA:    uint32(tgtCntr),
	})
}

// handleRts prepares the target for direct placement: resolve the target
// region, charge registration on a cache miss, pre-post the region on the
// transport's direct lane, and grant the transfer with a CTS.
func (t *Task) handleRts(ctx exec.Context, src int, h header) {
	key := inKey{src: src, msgID: h.msgID}
	if t.inMsgs[key] != nil {
		panic(fmt.Sprintf("lapi: task %d: duplicate RTS for msg %d from %d", t.Self(), h.msgID, src))
	}
	n := int(h.totalLen)
	dst, err := t.mem.bytes(Addr(h.addr), n)
	if err != nil {
		panic(fmt.Sprintf("lapi: task %d: RTS from %d: %v", t.Self(), src, err))
	}
	im := t.newInMsg()
	im.kind, im.rndv = ptPutData, true
	im.total = n
	im.tgtAddr = Addr(h.addr)
	im.tgtCntr = t.counterByID(RemoteCounter(h.cntrA))
	t.inMsgs[key] = im
	t.registerRegion(ctx, Addr(h.addr), n)
	t.tr.RecvInto(src, putToken(h.msgID), dst)
	t.sendControl(ctx, src, header{typ: ptCts, msgID: h.msgID})
}

// handleCts releases the pinned payload onto the direct lane. The origin
// counter rides the transport's drain callback (pre-bound on the counter:
// no per-message closure); the completion counter still comes back on the
// ptDataAck the target sends once the bytes have landed.
func (t *Task) handleCts(ctx exec.Context, h header) {
	om := t.outMsgs[h.msgID]
	if om == nil || !om.rndv || om.kind != ptPutData {
		panic(fmt.Sprintf("lapi: task %d: CTS for unknown rendezvous msg %d", t.Self(), h.msgID))
	}
	data := om.rndvData
	om.rndvData = nil
	if t.cfg.SendOverhead > 0 {
		ctx.Sleep(t.cfg.SendOverhead)
	}
	t.tr.SendDirect(ctx, om.dst, putToken(h.msgID), data, om.orgCntr.incrFn())
}

// getRndv initiates a rendezvous Get. The origin pre-posts its own buffer
// before the request leaves, so no CTS leg is needed: by the time the
// target sees the request the landing region is guaranteed armed (the
// request travels strictly after RecvInto on both runtimes).
func (t *Task) getRndv(tgt int, buf []byte, om *outMsg, id uint32) {
	om.rndv = true
	t.Counters.Add(stats.RndvMsgs, 1)
	t.tr.RecvInto(tgt, getToken(id), buf)
}

// handleGetReqRndv serves the target side of a rendezvous Get: register
// the source region, then stream it on the direct lane. The target-side
// counter fires when the transport reports the region drained — the
// "copied out of target memory" event — via the counter's pre-bound
// callback.
func (t *Task) handleGetReqRndv(ctx exec.Context, src int, h header) {
	n := int(h.totalLen)
	data, err := t.mem.bytes(Addr(h.addr), n)
	if err != nil {
		panic(fmt.Sprintf("lapi: task %d: rendezvous Get from %d: %v", t.Self(), src, err))
	}
	t.registerRegion(ctx, Addr(h.addr), n)
	if t.cfg.SendOverhead > 0 {
		ctx.Sleep(t.cfg.SendOverhead)
	}
	t.tr.SendDirect(ctx, src, getToken(h.msgID), data, t.counterByID(RemoteCounter(h.cntrA)).incrFn())
}

// handleDirectDone is the transport's direct-lane completion upcall
// (serialized on the task's runtime): all bytes for (src, token) have
// landed in the pre-posted region. Modeled as adapter DMA completion — no
// dispatcher receive overhead is charged, which is the receive-side half
// of the zero-copy win.
func (t *Task) handleDirectDone(src int, token uint64) {
	msgID := uint32(token >> 1)
	if token&1 == 0 {
		// Put payload landed at this task (the target).
		key := inKey{src: src, msgID: msgID}
		im := t.inMsgs[key]
		if im == nil || !im.rndv {
			panic(fmt.Sprintf("lapi: task %d: direct completion for unknown msg %d from %d", t.Self(), msgID, src))
		}
		delete(t.inMsgs, key)
		im.tgtCntr.incr()
		t.freeInMsg(im)
		t.sendAckPacket(src, ptDataAck, msgID)
		return
	}
	// Get payload landed back at this task (the origin).
	om := t.outMsgs[msgID]
	if om == nil || !om.rndv || om.kind != ptGetReq {
		panic(fmt.Sprintf("lapi: task %d: direct Get completion for unknown msg %d", t.Self(), msgID))
	}
	delete(t.outMsgs, msgID)
	om.orgCntr.incr()
	t.freeOutMsg(om)
	t.opDone()
}

// Registration cache (DESIGN.md §12): rendezvous placement requires the
// target region to be pinned and registered with the adapter, a costly
// operation worth caching across transfers that reuse the same buffers
// (the MPICH2-over-InfiniBand pin-down cache). The model is a small
// fully-associative cache of address ranges with LRU eviction: a lookup
// covered by a cached range is free; a miss charges Config.RegisterCost
// and inserts the range. Keys are arena addresses (virtual, deterministic
// across serial and sharded runs) — never Go pointers.
const regCacheSlots = 64

type regEntry struct {
	base    Addr
	n       int
	lastUse uint64
}

type regCache struct {
	entries [regCacheSlots]regEntry
	used    int
	clock   uint64
}

// lookup reports whether [base, base+n) is covered by a cached
// registration, inserting it (evicting the least recently used entry if
// full) when not.
func (rc *regCache) lookup(base Addr, n int) bool {
	rc.clock++
	for i := 0; i < rc.used; i++ {
		e := &rc.entries[i]
		if base >= e.base && int(base-e.base)+n <= e.n {
			e.lastUse = rc.clock
			return true
		}
	}
	slot := rc.used
	if slot < regCacheSlots {
		rc.used++
	} else {
		slot = 0
		for i := 1; i < regCacheSlots; i++ {
			if rc.entries[i].lastUse < rc.entries[slot].lastUse {
				slot = i
			}
		}
	}
	rc.entries[slot] = regEntry{base: base, n: n, lastUse: rc.clock}
	return false
}

// registerRegion consults the registration cache for [base, base+n),
// charging the pin/registration cost on a miss.
func (t *Task) registerRegion(ctx exec.Context, base Addr, n int) {
	if t.regCache.lookup(base, n) {
		t.Counters.Add(stats.RndvRegHits, 1)
		return
	}
	t.Counters.Add(stats.RndvRegMisses, 1)
	if t.cfg.Tracer != nil {
		t.tracef(trace.KindOp, "register region %d+%d (cache miss)", base, n)
	}
	if t.cfg.RegisterCost > 0 {
		ctx.Sleep(t.cfg.RegisterCost)
	}
}
