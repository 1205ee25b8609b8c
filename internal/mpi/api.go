package mpi

import (
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/progress"
	"golapi/internal/stats"
)

// Isend starts a non-blocking send of data to dst with the given tag.
// Messages up to the eager limit are buffered and the request completes
// immediately (data is reusable); larger messages rendezvous and complete
// once the receiver's clear-to-send has been honoured.
func (t *Task) Isend(ctx exec.Context, dst, tag int, data []byte) (*Request, error) {
	t.Poll(ctx)
	if dst < 0 || dst >= t.N() {
		return nil, fmt.Errorf("mpi: Isend: rank %d out of range", dst)
	}
	if err := checkTag(tag); err != nil {
		return nil, err
	}
	return t.isend(ctx, dst, tag, data), nil
}

// isend implements Isend after validation; internal protocols (Barrier)
// use it with reserved tags.
func (t *Task) isend(ctx exec.Context, dst, tag int, data []byte) *Request {
	if t.cfg.OpOverhead > 0 {
		ctx.Sleep(t.cfg.OpOverhead)
	}
	msgID := t.sendSeq[dst]
	t.sendSeq[dst]++
	req := &Request{task: t, isSend: true, tag: tag, buf: data}

	if len(data) <= t.cfg.EagerLimit {
		// Eager: copy into internal buffers (the sender-side buffering
		// that lets the send "return to the application sooner",
		// §5.4) and stream immediately. The copy is charged per packet
		// — it pipelines with injection. The pool is finite: when it is
		// exhausted the send blocks until earlier messages drain onto
		// the wire.
		if t.cfg.BufferPoolBytes > 0 && len(data) > 0 {
			for t.eagerInFlight+len(data) > t.cfg.BufferPoolBytes {
				t.Engine.Wait(ctx)
				t.Poll(ctx)
			}
			t.eagerInFlight += len(data)
		}
		t.Counters.Add(stats.CopiesBytes, int64(len(data)))
		p := t.maxPayload()
		npkts := (len(data) + p - 1) / p
		if npkts == 0 {
			npkts = 1
		}
		remaining := npkts
		total := len(data)
		var onWire func()
		if t.cfg.BufferPoolBytes > 0 && total > 0 {
			onWire = func() {
				remaining--
				if remaining == 0 {
					t.eagerInFlight -= total
					t.Notify()
				}
			}
		}
		for off := 0; ; off += p {
			end := off + p
			if end > len(data) {
				end = len(data)
			}
			progress.ChargeCopy(ctx, end-off, t.cfg.MemcpyBandwidth)
			if t.cfg.SendOverhead > 0 {
				ctx.Sleep(t.cfg.SendOverhead)
			}
			h := &wireHeader{typ: mtEager, tag: uint16(tag), msgID: msgID, offset: uint32(off), totalLen: uint32(len(data))}
			t.tr.Send(ctx, dst, t.buildPacket(h, data[off:end]), onWire)
			if end >= len(data) {
				break
			}
		}
		t.complete(req, Status{Source: t.Self(), Tag: tag, Len: len(data)})
		return req
	}

	// Rendezvous: request-to-send, stream on CTS.
	t.outSends[msgKey{peer: dst, msgID: msgID}] = req
	if t.cfg.SendOverhead > 0 {
		ctx.Sleep(t.cfg.SendOverhead)
	}
	h := &wireHeader{typ: mtRts, tag: uint16(tag), msgID: msgID, totalLen: uint32(len(data))}
	t.tr.Send(ctx, dst, t.buildPacket(h, nil), nil)
	return req
}

// Irecv posts a non-blocking receive into buf. src may be AnySource and tag
// AnyTag. The request completes when a matching message has fully arrived
// in buf.
func (t *Task) Irecv(ctx exec.Context, src, tag int, buf []byte) (*Request, error) {
	t.Poll(ctx)
	if src != AnySource && (src < 0 || src >= t.N()) {
		return nil, fmt.Errorf("mpi: Irecv: rank %d out of range", src)
	}
	if tag != AnyTag {
		if err := checkTag(tag); err != nil {
			return nil, err
		}
	}
	return t.irecv(ctx, src, tag, buf, nil), nil
}

func (t *Task) irecv(ctx exec.Context, src, tag int, buf []byte, onComplete func(exec.Context, Status)) *Request {
	if t.cfg.OpOverhead > 0 {
		ctx.Sleep(t.cfg.OpOverhead)
	}
	req := &Request{task: t, src: src, tag: tag, buf: buf, onComplete: onComplete}
	// Check the unexpected queue first (FIFO), then post.
	for i, im := range t.unexpected {
		if req.matches(im) {
			t.unexpected = append(t.unexpected[:i], t.unexpected[i+1:]...)
			t.bind(ctx, im, req)
			return req
		}
	}
	t.posted = append(t.posted, req)
	return req
}

// Wait blocks until req completes, driving progress while it waits.
func (t *Task) Wait(ctx exec.Context, req *Request) (Status, error) {
	t.Until(ctx, req.Done)
	return req.Status, req.err
}

// Send is the blocking send: Isend + Wait.
func (t *Task) Send(ctx exec.Context, dst, tag int, data []byte) error {
	req, err := t.Isend(ctx, dst, tag, data)
	if err != nil {
		return err
	}
	_, err = t.Wait(ctx, req)
	return err
}

// Recv is the blocking receive: Irecv + Wait.
func (t *Task) Recv(ctx exec.Context, src, tag int, buf []byte) (Status, error) {
	req, err := t.Irecv(ctx, src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return t.Wait(ctx, req)
}

// IrecvCall posts a receive whose completion invokes fn in a fresh activity
// after the modelled handler-context-creation cost (RcvncallCost). This is
// the primitive MPL's interrupt-driven rcvncall (§5.2) is built on.
func (t *Task) IrecvCall(ctx exec.Context, src, tag int, buf []byte, fn func(exec.Context, Status)) (*Request, error) {
	t.Poll(ctx)
	if src != AnySource && (src < 0 || src >= t.N()) {
		return nil, fmt.Errorf("mpi: IrecvCall: rank %d out of range", src)
	}
	if tag != AnyTag {
		if err := checkTag(tag); err != nil {
			return nil, err
		}
	}
	if fn == nil {
		return nil, fmt.Errorf("mpi: IrecvCall: nil handler")
	}
	return t.irecv(ctx, src, tag, buf, fn), nil
}

// Iprobe reports, without receiving, whether an eligible message matching
// (src, tag) is queued.
func (t *Task) Iprobe(ctx exec.Context, src, tag int) (bool, Status) {
	t.Poll(ctx)
	probe := &Request{task: t, src: src, tag: tag}
	for _, im := range t.unexpected {
		if probe.matches(im) {
			return true, Status{Source: im.src, Tag: int(im.tag), Len: im.total}
		}
	}
	return false, Status{}
}

// tagBarrier is the internal tag for Barrier traffic, above MaxTag so user
// messages can never collide with it.
const tagBarrier = 0xFFFF

func checkTag(tag int) error {
	if tag < 0 || tag > MaxTag {
		return fmt.Errorf("mpi: tag %d out of range [0,%d]", tag, MaxTag)
	}
	return nil
}

// Barrier blocks until all ranks arrive. Central algorithm on rank 0,
// entirely on top of the point-to-point layer. Concurrent user receives
// with AnyTag must not be outstanding across a Barrier (they could steal
// barrier messages), matching MPI's rule that wildcard receives and
// collectives must not race.
func (t *Task) Barrier(ctx exec.Context) error {
	if t.Self() == 0 {
		for i := 1; i < t.N(); i++ {
			r := t.irecv(ctx, AnySource, tagBarrier, nil, nil)
			if _, err := t.Wait(ctx, r); err != nil {
				return err
			}
		}
		for r := 1; r < t.N(); r++ {
			s := t.isend(ctx, r, tagBarrier, nil)
			if _, err := t.Wait(ctx, s); err != nil {
				return err
			}
		}
		return nil
	}
	s := t.isend(ctx, 0, tagBarrier, nil)
	if _, err := t.Wait(ctx, s); err != nil {
		return err
	}
	r := t.irecv(ctx, 0, tagBarrier, nil, nil)
	_, err := t.Wait(ctx, r)
	return err
}

// Waitall blocks until every request in reqs has completed, driving
// progress while waiting. It returns the first error encountered (after
// all requests have still been waited for).
func (t *Task) Waitall(ctx exec.Context, reqs []*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := t.Wait(ctx, r); err != nil && first == nil {
			first = err
		}
	}
	return first
}
