package lapi

import (
	"encoding/binary"
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/progress"
	"golapi/internal/stats"
	"golapi/internal/trace"
)

// flag bits in the wire header's aux field for data-carrying operations.
const (
	auxWantCmpl uint64 = 1 << 63 // origin asked for a completion ack
	// auxRndvGet marks a ptGetReq whose reply must use the rendezvous
	// direct lane: the origin has already pre-posted its buffer under
	// getToken(msgID), so the target streams straight into it instead of
	// sending ptGetData packets.
	auxRndvGet uint64 = 1 << 62
)

// Put copies data into target memory at tgtAddr (LAPI_Put). It is
// non-blocking and unilateral: the call returns once the message is queued,
// and the target takes no action for it to complete (§2.2).
//
// Completion signalling (§2.3), all optional:
//   - org fires when the origin buffer (data) is reusable;
//   - tgtCntr names a counter at the target, incremented when the data has
//     landed there;
//   - cmpl fires at the origin when the data has landed at the target.
func (t *Task) Put(ctx exec.Context, tgt int, tgtAddr Addr, data []byte, tgtCntr RemoteCounter, org, cmpl *Counter) error {
	return t.put(ctx, "Put", tgt, tgtAddr, Stride{}, data, tgtCntr, org, cmpl)
}

// put is Put and PutStrided: st is the target layout, the zero Stride (and
// op "Put") a contiguous region. Only a contiguous Put may take the
// rendezvous path.
func (t *Task) put(ctx exec.Context, op string, tgt int, tgtAddr Addr, st Stride, data []byte, tgtCntr RemoteCounter, org, cmpl *Counter) error {
	t.Poll(ctx)
	if err := t.checkOp(op, tgt, tgtAddr, st, len(data)); err != nil {
		return err
	}
	if t.cfg.OpOverhead > 0 {
		ctx.Sleep(t.cfg.OpOverhead)
	}

	id, om := t.begin(ptPutData, tgt, org)
	om.cmplCntr = cmpl
	if t.cfg.Tracer != nil {
		t.tracef(trace.KindOp, "put %dB -> %d (msg %d)", len(data), tgt, id)
	}
	if st == (Stride{}) && t.rndvEligible(len(data)) {
		t.putRndv(ctx, tgt, tgtAddr, data, tgtCntr, om, id)
		return nil
	}
	addr2, aux := packStride(st)
	h := header{
		typ:      ptPutData,
		msgID:    id,
		totalLen: uint32(len(data)),
		addr:     uint64(tgtAddr),
		addr2:    addr2,
		cntrA:    uint32(tgtCntr),
		aux:      aux,
	}
	t.sendChunked(ctx, tgt, om, h, h, nil, data)
	return nil
}

// Get pulls n bytes from target memory at tgtAddr into buf (LAPI_Get).
// Non-blocking: buf must stay valid until org fires, which happens when all
// data has arrived at the origin. tgtCntr, if non-zero, names a counter at
// the target incremented once the data has been copied out of the target's
// memory (§2.3).
func (t *Task) Get(ctx exec.Context, tgt int, tgtAddr Addr, buf []byte, tgtCntr RemoteCounter, org *Counter) error {
	return t.get(ctx, "Get", tgt, tgtAddr, Stride{}, buf, tgtCntr, org)
}

// get is Get and GetStrided, as put is Put and PutStrided.
func (t *Task) get(ctx exec.Context, op string, tgt int, tgtAddr Addr, st Stride, buf []byte, tgtCntr RemoteCounter, org *Counter) error {
	t.Poll(ctx)
	if err := t.checkOp(op, tgt, tgtAddr, st, len(buf)); err != nil {
		return err
	}
	if t.cfg.OpOverhead > 0 {
		ctx.Sleep(t.cfg.OpOverhead + t.cfg.GetExtra)
	}

	id, om := t.begin(ptGetReq, tgt, org)
	om.getBuf = buf
	if t.cfg.Tracer != nil {
		t.tracef(trace.KindOp, "get %dB <- %d (msg %d)", len(buf), tgt, id)
	}
	addr2, aux := packStride(st)
	if st == (Stride{}) && t.rndvEligible(len(buf)) {
		// Pre-post the landing region before the request leaves: by the
		// time the target serves it, direct placement is already armed.
		t.getRndv(tgt, buf, om, id)
		aux = auxRndvGet
	}
	t.sendControl(ctx, tgt, header{
		typ:      ptGetReq,
		msgID:    id,
		totalLen: uint32(len(buf)),
		addr:     uint64(tgtAddr),
		addr2:    addr2,
		cntrA:    uint32(tgtCntr),
		aux:      aux,
	})
	return nil
}

// checkOp validates the arguments of a Put or Get (op names the public
// call): the target rank, and for a strided call a valid vector of exactly
// n bytes that the header can carry; a region that moves bytes needs an
// address.
func (t *Task) checkOp(op string, tgt int, tgtAddr Addr, st Stride, n int) error {
	if err := t.checkTarget(tgt); err != nil {
		return err
	}
	if op == "PutStrided" || op == "GetStrided" {
		if err := st.validate(); err != nil {
			return err
		}
		if err := st.fitsHeader(); err != nil {
			return err
		}
		if n != st.Total() {
			return fmt.Errorf("lapi: %s: %d bytes for a %d-byte vector", op, n, st.Total())
		}
	}
	if tgtAddr == AddrNil && n > 0 {
		return fmt.Errorf("lapi: %s: nil target address", op)
	}
	return nil
}

// checkTarget validates a destination rank.
func (t *Task) checkTarget(tgt int) error {
	if tgt < 0 || tgt >= t.N() {
		return fmt.Errorf("lapi: target %d out of range [0,%d)", tgt, t.N())
	}
	return nil
}

// begin opens the origin record of a new operation: the next message id,
// an outMsg of the given kind bound for tgt with origin counter org, and
// one more operation for Fence to wait out.
func (t *Task) begin(kind byte, tgt int, org *Counter) (uint32, *outMsg) {
	t.msgSeq++
	om := t.newOutMsg()
	om.kind, om.dst, om.orgCntr = kind, tgt, org
	t.outMsgs[t.msgSeq] = om
	t.outstanding++
	return t.msgSeq, om
}

// sendChunked sends one message of a Put or an Amsend: uhdr (Amsend's user
// header, nil for Put) and then data, in packets of at most maxPayload
// bytes. The first packet carries header first, uhdr and as much data as
// fits after it; the rest carry header rest. Each header is taken by value
// and stamped with its packet's data offset, so no per-packet header (or
// header-building closure) is allocated. It charges injection costs and
// wires up origin-counter semantics: small messages are copied into
// internal buffers (origin counter fires immediately, §5.3.1); large ones
// are zero-copy (origin counter fires when the adapter drains the last
// packet).
func (t *Task) sendChunked(ctx exec.Context, tgt int, om *outMsg, first, rest header, uhdr, data []byte) {
	p, total := t.maxPayload(), len(data)

	msgBytes := len(uhdr) + total
	internal := msgBytes <= t.cfg.InternalBufferLimit
	if internal {
		// Model the copy into LAPI's retransmit buffers. The physical
		// copy into the packets happens either way; only the cost is
		// conditional.
		progress.ChargeCopy(ctx, msgBytes, t.cfg.MemcpyBandwidth)
		t.Counters.Add(stats.CopiesBytes, int64(msgBytes))
	}

	// At least one packet even for an empty message: the header must reach
	// the target to fire counters and acks.
	end := min(p-len(uhdr), total)
	npkts := 1 + (total-end+p-1)/p

	var onWire func()
	if !internal && om.orgCntr != nil {
		// Capture the counter, not om: om may be recycled by an early ack
		// before the transport reports the last packet drained. remaining
		// is declared inside the branch so its heap move (it outlives the
		// frame via the closure) is never charged to the buffered path.
		org := om.orgCntr
		remaining := npkts
		onWire = func() {
			remaining--
			if remaining == 0 {
				org.incr()
			}
		}
	}

	h, off := first, 0
	for {
		if t.cfg.SendOverhead > 0 {
			ctx.Sleep(t.cfg.SendOverhead)
		}
		h.offset = uint32(off)
		pkt := t.newPacket(&h, len(uhdr)+end-off)
		n := copy(pkt[t.cfg.HeaderBytes:], uhdr)
		copy(pkt[t.cfg.HeaderBytes+n:], data[off:end])
		t.tr.Send(ctx, tgt, pkt, onWire)
		if end == total {
			break
		}
		h, uhdr, off = rest, nil, end
		end = min(off+p, total)
	}

	if internal && om.orgCntr != nil {
		om.orgCntr.incr()
	}
}

// handlePutData lands one Put packet directly in target memory — the
// zero-copy remote-memory-copy path ("no user handlers are executed or
// intermediate buffering is required", §5.3). Each packet is
// self-describing (linear offset + layout), so out-of-order arrival needs
// no reassembly buffer: the bytes go straight into place, cut at block
// ends when the layout is strided.
func (t *Task) handlePutData(src int, h header, payload []byte) {
	r, err := t.targetRegion(h)
	if err == nil && uint64(h.offset)+uint64(len(payload)) > uint64(h.totalLen) {
		err = fmt.Errorf("%d bytes at offset %d overrun a %d-byte message", len(payload), h.offset, h.totalLen)
	}
	if err != nil {
		panic(fmt.Sprintf("lapi: task %d: Put from %d: %v", t.Self(), src, err))
	}
	key := inKey{src: src, msgID: h.msgID}
	im := t.inMsgs[key]
	if im == nil {
		im = t.newInMsg()
		im.total = int(h.totalLen)
		im.tgtCntr = t.counterByID(RemoteCounter(h.cntrA))
		t.inMsgs[key] = im
	}
	for off, b := int(h.offset), payload; len(b) > 0; {
		n := copy(r.at(off, len(b)), b)
		off, b = off+n, b[n:]
	}
	im.recvd += len(payload)
	if im.recvd >= im.total {
		delete(t.inMsgs, key)
		im.tgtCntr.incr()
		t.freeInMsg(im)
		// Acknowledge data arrival: completes the origin's fence
		// accounting and its completion counter.
		t.sendAckPacket(src, ptDataAck, h.msgID)
	}
}

// handleGetReq serves a Get at the target: read memory, stream it back,
// gathering each packet's share of the region straight into its wire
// buffer. Injection costs are charged to the dispatcher (target CPU), which
// is part of why Get latency exceeds Put latency.
func (t *Task) handleGetReq(ctx exec.Context, src int, h header) {
	if h.aux&auxRndvGet != 0 {
		t.handleGetReqRndv(ctx, src, h)
		return
	}
	r, err := t.targetRegion(h)
	if err != nil {
		panic(fmt.Sprintf("lapi: task %d: Get from %d: %v", t.Self(), src, err))
	}
	n, p := int(h.totalLen), t.maxPayload()
	gh := header{typ: ptGetData, msgID: h.msgID, totalLen: h.totalLen}
	for off := 0; ; off += p {
		end := min(off+p, n)
		if t.cfg.SendOverhead > 0 {
			ctx.Sleep(t.cfg.SendOverhead)
		}
		gh.offset = uint32(off)
		pkt := t.newPacket(&gh, end-off)
		for o, b := off, pkt[t.cfg.HeaderBytes:]; len(b) > 0; {
			k := copy(b, r.at(o, len(b)))
			o, b = o+k, b[k:]
		}
		t.tr.Send(ctx, src, pkt, nil)
		if end == n {
			break
		}
	}
	// Data copied out of target memory: fire the target-side counter.
	t.counterByID(RemoteCounter(h.cntrA)).incr()
}

// handleGetData lands returning Get data in the origin buffer.
func (t *Task) handleGetData(h header, payload []byte) {
	om := t.outMsgs[h.msgID]
	if om == nil || om.kind != ptGetReq {
		panic(fmt.Sprintf("lapi: task %d: GetData for unknown msg %d", t.Self(), h.msgID))
	}
	if len(payload) > 0 {
		copy(om.getBuf[h.offset:int(h.offset)+len(payload)], payload)
		om.getRecv += len(payload)
	}
	if om.getRecv >= int(h.totalLen) {
		delete(t.outMsgs, h.msgID)
		om.orgCntr.incr()
		t.freeOutMsg(om)
		t.opDone()
	}
}

// handleDataAck completes fence accounting (and, for Put, the origin's
// completion counter) when the target confirms all data arrived.
func (t *Task) handleDataAck(h header) {
	om := t.outMsgs[h.msgID]
	if om == nil {
		panic(fmt.Sprintf("lapi: task %d: DataAck for unknown msg %d", t.Self(), h.msgID))
	}
	om.dataAcked = true
	switch om.kind {
	case ptPutData:
		delete(t.outMsgs, h.msgID)
		om.cmplCntr.incr()
		t.freeOutMsg(om)
	case ptAmHdr:
		if !om.wantCmpl || om.cmplAcked {
			delete(t.outMsgs, h.msgID)
			t.freeOutMsg(om)
		}
	default:
		panic(fmt.Sprintf("lapi: DataAck for op kind %d", om.kind))
	}
	t.opDone()
}

// handleCmplAck fires the Amsend completion counter once the target's
// completion handler has finished (§2.1 step 4).
func (t *Task) handleCmplAck(h header) {
	om := t.outMsgs[h.msgID]
	if om == nil {
		panic(fmt.Sprintf("lapi: task %d: CmplAck for unknown msg %d", t.Self(), h.msgID))
	}
	om.cmplAcked = true
	om.cmplCntr.incr()
	if om.dataAcked {
		delete(t.outMsgs, h.msgID)
		t.freeOutMsg(om)
	}
}

// sendAckPacket sends a LAPI-level acknowledgement. Acks bypass the
// injection cost model: on the SP they are piggybacked adapter-level
// traffic, and charging them would double-count the dispatcher overhead
// already charged for the packet that triggered them.
func (t *Task) sendAckPacket(dst int, typ byte, msgID uint32) {
	h := header{typ: typ, msgID: msgID}
	t.tr.Send(nil, dst, t.buildPacket(&h, nil), nil)
}

// RmwOp selects the atomic operation of Rmw (§3: "four atomic primitives").
type RmwOp int

const (
	// RmwSwap atomically stores the input value and returns the old one.
	RmwSwap RmwOp = iota + 1
	// RmwCompareAndSwap stores the input value only if the current value
	// equals the comparand; returns the old value.
	RmwCompareAndSwap
	// RmwFetchAndAdd atomically adds the input value; returns the old value.
	RmwFetchAndAdd
	// RmwFetchAndOr atomically ORs the input value; returns the old value.
	RmwFetchAndOr
)

func (op RmwOp) String() string {
	switch op {
	case RmwSwap:
		return "Swap"
	case RmwCompareAndSwap:
		return "CompareAndSwap"
	case RmwFetchAndAdd:
		return "FetchAndAdd"
	case RmwFetchAndOr:
		return "FetchAndOr"
	default:
		return fmt.Sprintf("RmwOp(%d)", int(op))
	}
}

// Rmw atomically read-modify-writes the 8-byte integer at tgtVar on the
// target (LAPI_Rmw). prev, if non-nil, receives the pre-operation value;
// org fires when prev is valid. comparand is used only by CompareAndSwap.
// Atomicity comes from the target dispatcher executing the operation as a
// single event.
func (t *Task) Rmw(ctx exec.Context, op RmwOp, tgt int, tgtVar Addr, inVal, comparand int64, prev *int64, org *Counter) error {
	t.Poll(ctx)
	if err := t.checkTarget(tgt); err != nil {
		return err
	}
	switch op {
	case RmwSwap, RmwCompareAndSwap, RmwFetchAndAdd, RmwFetchAndOr:
	default:
		return fmt.Errorf("lapi: Rmw: invalid op %d", op)
	}
	if tgtVar == AddrNil {
		return fmt.Errorf("lapi: Rmw: nil target variable")
	}
	if t.cfg.OpOverhead > 0 {
		ctx.Sleep(t.cfg.OpOverhead)
	}

	id, om := t.begin(ptRmwReq, tgt, org)
	om.rmwPrev = prev
	if t.cfg.Tracer != nil {
		t.tracef(trace.KindOp, "rmw %v -> %d (msg %d)", op, tgt, id)
	}

	t.sendControl(ctx, tgt, header{
		typ:     ptRmwReq,
		msgID:   id,
		handler: uint16(op),
		addr:    uint64(tgtVar),
		addr2:   uint64(inVal),
		aux:     uint64(comparand),
	})
	return nil
}

// handleRmwReq executes the atomic op at the target and replies with the
// old value.
func (t *Task) handleRmwReq(ctx exec.Context, src int, h header) {
	b, err := t.mem.bytes(Addr(h.addr), 8)
	if err != nil {
		panic(fmt.Sprintf("lapi: task %d: Rmw from %d: %v", t.Self(), src, err))
	}
	old := int64(binary.BigEndian.Uint64(b))
	in := int64(h.addr2)
	var next int64
	switch RmwOp(h.handler) {
	case RmwSwap:
		next = in
	case RmwCompareAndSwap:
		if old == int64(h.aux) {
			next = in
		} else {
			next = old
		}
	case RmwFetchAndAdd:
		next = old + in
	case RmwFetchAndOr:
		next = old | in
	default:
		panic(fmt.Sprintf("lapi: task %d: bad Rmw op %d", t.Self(), h.handler))
	}
	binary.BigEndian.PutUint64(b, uint64(next))
	t.sendControl(ctx, src, header{typ: ptRmwRep, msgID: h.msgID, addr2: uint64(old)})
}

// handleRmwRep delivers the old value to the origin.
func (t *Task) handleRmwRep(h header) {
	om := t.outMsgs[h.msgID]
	if om == nil || om.kind != ptRmwReq {
		panic(fmt.Sprintf("lapi: task %d: RmwRep for unknown msg %d", t.Self(), h.msgID))
	}
	delete(t.outMsgs, h.msgID)
	if om.rmwPrev != nil {
		*om.rmwPrev = int64(h.addr2)
	}
	om.orgCntr.incr()
	t.freeOutMsg(om)
	t.opDone()
}
