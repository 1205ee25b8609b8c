package lapi

import (
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/stats"
	"golapi/internal/trace"
)

// HandlerID names a registered header handler. Like remote addresses and
// counters, handler IDs are exchanged by SPMD convention: registering
// handlers in the same order on every task yields equal IDs for
// corresponding handlers (the analogue of the function addresses LAPI
// programs pass in hdr_hdl).
type HandlerID uint16

// AmInfo describes an arriving active message to its header handler.
type AmInfo struct {
	// Src is the origin task.
	Src int
	// UHdr is the user header sent with the message. Valid only for the
	// duration of the header handler call; copy it if needed later.
	UHdr []byte
	// DataLen is the total udata length that will be delivered.
	DataLen int
}

// CompletionHandler runs at the target after an active message's data has
// been fully received (§2.1 step 4). Multiple completion handlers may be
// in flight concurrently; the user synchronizes between them. Completion
// handlers may issue LAPI calls.
type CompletionHandler func(ctx exec.Context, t *Task)

// HeaderHandler runs when the first packet of an active message arrives
// (§2.1 step 2). It returns the buffer where the message's udata must be
// placed and an optional completion handler. It must be fast, must not
// block, and — when the message carries data — must not return AddrNil:
// LAPI copies arriving packets straight into the returned buffer.
//
// Only one header handler executes at a time per task (§2.1): the
// dispatcher calls it inline.
type HeaderHandler func(t *Task, info *AmInfo) (buf Addr, done CompletionHandler)

// RegisterHandler registers a header handler and returns its ID.
// Registration must happen before messages using the ID can arrive;
// register handlers in the same order on every task.
func (t *Task) RegisterHandler(h HeaderHandler) HandlerID {
	if h == nil {
		panic("lapi: RegisterHandler(nil)")
	}
	t.handlers = append(t.handlers, h)
	return HandlerID(len(t.handlers)) // IDs start at 1
}

func (t *Task) handlerByID(id HandlerID) HeaderHandler {
	i := int(id) - 1
	if i < 0 || i >= len(t.handlers) {
		panic(fmt.Sprintf("lapi: task %d: unknown handler id %d", t.Self(), id))
	}
	return t.handlers[i]
}

// Amsend sends an active message (LAPI_Amsend): uhdr and udata are
// delivered to the target, where the handler identified by hdl decides
// buffer placement and post-processing. Non-blocking; counters as in Put,
// with cmpl firing only after the target's completion handler finishes.
//
// uhdr must fit in one packet alongside the LAPI header (QueryMaxUhdr).
func (t *Task) Amsend(ctx exec.Context, tgt int, hdl HandlerID, uhdr, udata []byte, tgtCntr RemoteCounter, org, cmpl *Counter) error {
	t.Poll(ctx)
	if err := t.checkTarget(tgt); err != nil {
		return err
	}
	if len(uhdr) > t.maxPayload() {
		return fmt.Errorf("lapi: Amsend: uhdr of %d bytes exceeds max %d", len(uhdr), t.maxPayload())
	}
	if hdl == 0 {
		return fmt.Errorf("lapi: Amsend: zero handler id")
	}
	if t.cfg.OpOverhead > 0 {
		ctx.Sleep(t.cfg.OpOverhead)
	}

	id, om := t.begin(ptAmHdr, tgt, org)
	om.cmplCntr, om.wantCmpl = cmpl, cmpl != nil
	if t.cfg.Tracer != nil {
		t.tracef(trace.KindOp, "amsend hdl=%d uhdr=%dB data=%dB -> %d (msg %d)", hdl, len(uhdr), len(udata), tgt, id)
	}

	aux := uint64(len(uhdr))
	if om.wantCmpl {
		aux |= auxWantCmpl
	}
	// The whole message (uhdr + udata) is one chunked send: the first
	// packet carries the handler and uhdr, the rest only udata.
	t.sendChunked(ctx, tgt, om, header{
		typ:      ptAmHdr,
		handler:  uint16(hdl),
		msgID:    id,
		totalLen: uint32(len(udata)),
		cntrA:    uint32(tgtCntr),
		aux:      aux,
	}, header{
		typ:      ptAmData,
		msgID:    id,
		totalLen: uint32(len(udata)),
	}, uhdr, udata)
	return nil
}

// handleAm processes an arriving active-message packet. Packets of one
// message can arrive in any order; data packets that beat the header packet
// are stashed until the header handler has supplied the user buffer (§2.1).
func (t *Task) handleAm(src int, h header, payload []byte) {
	key := inKey{src: src, msgID: h.msgID}
	im := t.inMsgs[key]
	if im == nil {
		im = t.newInMsg()
		im.total = int(h.totalLen)
		t.inMsgs[key] = im
	}

	switch h.typ {
	case ptAmHdr:
		uhdrLen := int(h.aux &^ auxWantCmpl)
		im.wantCmpl = h.aux&auxWantCmpl != 0
		im.tgtCntr = t.counterByID(RemoteCounter(h.cntrA))
		uhdr := payload[:uhdrLen]
		data := payload[uhdrLen:]

		info := &AmInfo{Src: src, UHdr: uhdr, DataLen: im.total}
		handler := t.handlerByID(HandlerID(h.handler))
		t.Counters.Add(stats.HeaderHandlers, 1)
		if t.cfg.Tracer != nil {
			t.tracef(trace.KindHandler, "header handler %d (msg %d from %d)", h.handler, h.msgID, src)
		}
		t.inHeaderHandler = true
		bufAddr, done := handler(t, info)
		t.inHeaderHandler = false
		im.complete = done
		im.hdrSeen = true

		if im.total > 0 {
			if bufAddr == AddrNil {
				panic(fmt.Sprintf("lapi: task %d: header handler returned nil buffer for %d-byte message", t.Self(), im.total))
			}
			buf, err := t.mem.bytes(bufAddr, im.total)
			if err != nil {
				panic(fmt.Sprintf("lapi: task %d: header handler buffer: %v", t.Self(), err))
			}
			im.buf = buf
			copy(buf, data)
			im.recvd += len(data)
			// Merge any data packets that arrived before the header, then
			// hand their wire buffers back to the transport.
			for i := range im.stash {
				st := &im.stash[i]
				copy(buf[st.offset:], st.data)
				im.recvd += len(st.data)
				t.tr.Release(st.pkt)
				*st = stashed{}
			}
			im.stash = im.stash[:0]
		}

	case ptAmData:
		if !im.hdrSeen {
			// Header packet still in flight: keep the whole wire packet
			// instead of copying the payload out, and tell the dispatcher
			// not to release it yet. It goes back to the transport when
			// the header arrives and the stash is merged.
			im.stash = append(im.stash, stashed{offset: int(h.offset), data: payload, pkt: t.rxPkt})
			t.rxRetain = true
			return
		}
		copy(im.buf[h.offset:], payload)
		im.recvd += len(payload)
	}

	if im.hdrSeen && im.recvd >= im.total {
		delete(t.inMsgs, key)
		t.amComplete(src, h.msgID, im)
	}
}

// amComplete runs after all of an active message's data has landed in the
// user buffer: acknowledge the data transfer, then run the completion
// handler in its own activity (completion handlers may run concurrently,
// §2.1) and only afterwards fire the target counter and completion ack
// (§2.1 step 4).
func (t *Task) amComplete(src int, msgID uint32, im *inMsg) {
	t.sendAckPacket(src, ptDataAck, msgID)
	if im.complete == nil {
		im.tgtCntr.incr()
		wantCmpl := im.wantCmpl
		t.freeInMsg(im)
		if wantCmpl {
			t.sendAckPacket(src, ptCmplAck, msgID)
		}
		return
	}
	t.Counters.Add(stats.ComplHandlers, 1)
	im.src, im.msgID = src, msgID
	if im.runCompl == nil {
		// Bound once per record: a recycled inMsg spawns its next
		// completion handler without a closure of its own.
		im.runCompl = im.runCompletion
	}
	t.rt.Go(t.complName, im.runCompl)
}

// runCompletion is the activity of one completion handler: it waits for a
// completion thread (§6), runs the handler, and then fires the target
// counter and sends the completion ack.
func (im *inMsg) runCompletion(ctx exec.Context) {
	t := im.task
	for t.cfg.CompletionThreads > 0 && t.complRunning >= t.cfg.CompletionThreads {
		ctx.Wait(t.complCond)
	}
	t.complRunning++
	src, msgID := im.src, im.msgID
	if t.cfg.Tracer != nil {
		t.tracef(trace.KindHandler, "completion handler (msg %d from %d)", msgID, src)
	}
	im.complete(ctx, t)
	t.complRunning--
	t.complCond.Broadcast()
	im.tgtCntr.incr()
	wantCmpl := im.wantCmpl
	t.freeInMsg(im)
	if wantCmpl {
		t.sendAckPacket(src, ptCmplAck, msgID)
	}
}
