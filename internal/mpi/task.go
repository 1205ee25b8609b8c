package mpi

import (
	"errors"
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/stats"
)

// ErrTruncate reports a message larger than its matched receive buffer.
var ErrTruncate = errors.New("mpi: truncated message")

// Task is one rank of an MPI-style job.
type Task struct {
	rt  exec.Runtime
	tr  fabric.Transport
	cfg Config

	rx       []rxPacket
	rxHead   int
	rxCond   exec.Cond
	progress exec.Cond
	draining bool
	closed   bool

	sendSeq   []uint32 // per destination: next outgoing msgID
	nextMatch []uint32 // per source: next msgID eligible for matching

	eagerInFlight int // bytes held in the sender-side eager buffer pool

	inMsgs     map[msgKey]*inMsg
	posted     []*Request          // posted receives, FIFO
	unexpected []*inMsg            // eligible but unmatched messages, FIFO
	outSends   map[msgKey]*Request // rendezvous sends awaiting CTS

	// Counters tracks protocol accounting (matches, early-buffer copies,
	// rendezvous round trips, interrupts).
	Counters stats.Counters
}

type rxPacket struct {
	src int
	pkt []byte
}

type msgKey struct {
	peer  int
	msgID uint32
}

// inMsg is an arriving message at the receiver.
type inMsg struct {
	src       int
	msgID     uint32
	tag       uint16
	total     int
	kind      byte // mtEager or mtRts
	early     []byte
	recvd     int
	eligible  bool
	matched   *Request
	delivered bool
}

// Request is a communication request handle (the MPI_Request analogue).
type Request struct {
	task   *Task
	isSend bool
	done   bool
	err    error

	// Receive criteria.
	src int
	tag int
	buf []byte

	// onComplete, when set, runs in a fresh activity after completion —
	// the hook MPL's rcvncall is built on.
	onComplete func(ctx exec.Context, st Status)

	// Status describes the completed operation.
	Status Status
}

// Status reports the outcome of a completed receive.
type Status struct {
	// Source is the sending rank.
	Source int
	// Tag is the message tag.
	Tag int
	// Len is the received message length in bytes.
	Len int
}

// Done reports whether the request has completed (non-blocking check).
func (r *Request) Done() bool { return r.done }

// NewTask initializes rank tr.Self() of an MPI job over tr.
func NewTask(rt exec.Runtime, tr fabric.Transport, cfg Config) (*Task, error) {
	if err := cfg.validate(tr.MaxPacket()); err != nil {
		return nil, err
	}
	t := &Task{
		rt:        rt,
		tr:        tr,
		cfg:       cfg,
		sendSeq:   make([]uint32, tr.N()),
		nextMatch: make([]uint32, tr.N()),
		inMsgs:    make(map[msgKey]*inMsg),
		outSends:  make(map[msgKey]*Request),
	}
	t.rxCond = rt.NewCond()
	t.progress = rt.NewCond()
	tr.SetDeliver(t.deliver)
	rt.Go(fmt.Sprintf("mpi-dispatcher-%d", tr.Self()), t.dispatcherLoop)
	return t, nil
}

// Self returns this task's rank.
func (t *Task) Self() int { return t.tr.Self() }

// N returns the job size.
func (t *Task) N() int { return t.tr.N() }

// Config returns the task configuration.
func (t *Task) Config() Config { return t.cfg }

// SetEagerLimit adjusts the eager/rendezvous switch point at runtime — the
// MP_EAGER_LIMIT knob of §4. It is clamped to [0, MaxEagerLimit].
func (t *Task) SetEagerLimit(n int) {
	if n < 0 {
		n = 0
	}
	if t.cfg.MaxEagerLimit > 0 && n > t.cfg.MaxEagerLimit {
		n = t.cfg.MaxEagerLimit
	}
	t.cfg.EagerLimit = n
}

// Close shuts the task down.
func (t *Task) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.rxCond.Broadcast()
	t.progress.Broadcast()
	return t.tr.Close()
}

func (t *Task) maxPayload() int { return t.tr.MaxPacket() - t.cfg.HeaderBytes }

func (t *Task) deliver(src int, pkt []byte) {
	if t.closed {
		return
	}
	t.rx = append(t.rx, rxPacket{src: src, pkt: pkt})
	t.rxCond.Broadcast()
	t.progress.Broadcast()
}

func (t *Task) dispatcherLoop(ctx exec.Context) {
	for {
		for !t.closed && (t.cfg.Mode == Polling || t.rxHead == len(t.rx) || t.draining) {
			ctx.Wait(t.rxCond)
		}
		if t.closed {
			return
		}
		if t.cfg.InterruptCost > 0 {
			t.Counters.Add(stats.Interrupts, 1)
			ctx.Sleep(t.cfg.InterruptCost)
		}
		t.drain(ctx)
	}
}

func (t *Task) poll(ctx exec.Context) {
	if t.draining {
		return
	}
	t.Counters.Add(stats.Polls, 1)
	t.drain(ctx)
}

func (t *Task) drain(ctx exec.Context) {
	t.draining = true
	defer func() { t.draining = false }()
	for t.rxHead < len(t.rx) {
		rp := t.rx[t.rxHead]
		t.rx[t.rxHead] = rxPacket{}
		t.rxHead++
		if t.cfg.RecvOverhead > 0 {
			ctx.Sleep(t.cfg.RecvOverhead)
		}
		t.handle(ctx, rp.src, rp.pkt)
		// Every handler copies what it keeps (eager staging buffers,
		// matched receive buffers), so the wire buffer can go back to the
		// transport's pool.
		t.tr.Release(rp.pkt)
	}
	t.rx = t.rx[:0]
	t.rxHead = 0
}

func (t *Task) handle(ctx exec.Context, src int, pkt []byte) {
	h, payload, err := t.splitPacket(pkt)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d: %v", t.Self(), err))
	}
	switch h.typ {
	case mtEager:
		t.handleEager(ctx, src, h, payload)
	case mtRts:
		t.handleRts(ctx, src, h)
	case mtCts:
		t.handleCts(ctx, src, h)
	case mtRData:
		t.handleRData(src, h, payload)
	default:
		panic(fmt.Sprintf("mpi: rank %d: unknown packet type %d", t.Self(), h.typ))
	}
}

// getInMsg finds or creates the receiver record for (src, msgID).
func (t *Task) getInMsg(src int, h wireHeader, kind byte) *inMsg {
	key := msgKey{peer: src, msgID: h.msgID}
	im := t.inMsgs[key]
	if im == nil {
		im = &inMsg{
			src:   src,
			msgID: h.msgID,
			tag:   h.tag,
			total: int(h.totalLen),
			kind:  kind,
		}
		if kind == mtEager && im.total > 0 {
			// Early-arrival buffer: eager data always lands here
			// first and is copied to the user buffer at delivery —
			// the "extra copy in MPI" of §4.
			im.early = make([]byte, im.total)
		}
		t.inMsgs[key] = im
	}
	return im
}

func (t *Task) handleEager(ctx exec.Context, src int, h wireHeader, payload []byte) {
	im := t.getInMsg(src, h, mtEager)
	if len(payload) > 0 {
		// The early-arrival buffer copy — "the extra copy in MPI"
		// (§4) — is charged per packet: it pipelines with reception,
		// so its real effect is to raise the receiver's per-packet
		// CPU cost (and cap eager bandwidth below LAPI's).
		if c := t.cfg.copyCost(len(payload)); c > 0 {
			ctx.Sleep(c)
		}
		t.Counters.Add(stats.CopiesBytes, int64(len(payload)))
		copy(im.early[h.offset:], payload)
		im.recvd += len(payload)
	}
	t.advanceMatching(ctx, src)
	// advanceMatching may itself have delivered the message (bind runs
	// when this packet made it both eligible and complete); only deliver
	// here if it is matched and still pending.
	if im.matched != nil && !im.delivered && im.recvd >= im.total {
		t.deliverEager(ctx, im)
	}
}

func (t *Task) handleRts(ctx exec.Context, src int, h wireHeader) {
	t.getInMsg(src, h, mtRts)
	t.Counters.Add(stats.RendezvousRTS, 1)
	t.advanceMatching(ctx, src)
}

// advanceMatching makes messages from src eligible in msgID order — MPI's
// in-order matching guarantee, preserved even though the fabric reorders
// packets.
func (t *Task) advanceMatching(ctx exec.Context, src int) {
	for {
		key := msgKey{peer: src, msgID: t.nextMatch[src]}
		im := t.inMsgs[key]
		if im == nil || im.eligible {
			return
		}
		im.eligible = true
		t.nextMatch[src]++
		t.matchEligible(ctx, im)
	}
}

// matchEligible pairs a newly eligible message with the oldest matching
// posted receive, or queues it as unexpected.
func (t *Task) matchEligible(ctx exec.Context, im *inMsg) {
	for i, req := range t.posted {
		if req.matches(im) {
			t.posted = append(t.posted[:i], t.posted[i+1:]...)
			t.bind(ctx, im, req)
			return
		}
	}
	t.unexpected = append(t.unexpected, im)
	t.Counters.Add(stats.UnexpectedMsgs, 1)
}

// bind attaches a message to a receive request and advances the protocol.
// A message larger than the receive buffer fails the request with
// ErrTruncate (the MPI_ERR_TRUNCATE analogue); the message itself drains
// into a sink so the sender is never wedged.
func (t *Task) bind(ctx exec.Context, im *inMsg, req *Request) {
	// Matching cost is charged per message matched, whichever side
	// (arrival or posting) performs the match.
	if t.cfg.MatchCost > 0 {
		ctx.Sleep(t.cfg.MatchCost)
	}
	if im.total > len(req.buf) {
		req.err = fmt.Errorf("%w: %d-byte message (src %d tag %d) into %d-byte buffer",
			ErrTruncate, im.total, im.src, im.tag, len(req.buf))
		t.complete(req, Status{Source: im.src, Tag: int(im.tag), Len: im.total})
		req = &Request{task: t, buf: make([]byte, im.total)} // sink
	}
	im.matched = req
	t.Counters.Add(stats.Matches, 1)
	switch im.kind {
	case mtEager:
		if im.recvd >= im.total {
			t.deliverEager(ctx, im)
		}
	case mtRts:
		// Clear-to-send: rendezvous data will land directly in the
		// user buffer (no extra copy, but a full round trip).
		if t.cfg.SendOverhead > 0 {
			ctx.Sleep(t.cfg.SendOverhead)
		}
		cts := &wireHeader{typ: mtCts, msgID: im.msgID, totalLen: uint32(im.total)}
		t.tr.Send(ctx, im.src, t.buildPacket(cts, nil), nil)
	}
}

// deliverEager drains the early-arrival buffer into the user buffer and
// completes the receive.
func (t *Task) deliverEager(ctx exec.Context, im *inMsg) {
	im.delivered = true
	copy(im.matched.buf, im.early[:im.total])
	delete(t.inMsgs, msgKey{peer: im.src, msgID: im.msgID})
	t.complete(im.matched, Status{Source: im.src, Tag: int(im.tag), Len: im.total})
}

func (t *Task) handleCts(ctx exec.Context, src int, h wireHeader) {
	key := msgKey{peer: src, msgID: h.msgID}
	req := t.outSends[key]
	if req == nil {
		panic(fmt.Sprintf("mpi: rank %d: CTS for unknown send %d from %d", t.Self(), h.msgID, src))
	}
	delete(t.outSends, key)
	// Stream the payload; injection CPU is charged to whoever processes
	// the CTS (dispatcher or a polling call) — it is this rank's CPU
	// either way. The send request completes only when the LAST packet
	// has drained from the adapter: rendezvous streams from the user
	// buffer, so the buffer is reusable — and the blocking Send returns —
	// only then ("buffering of all the data is not possible on the
	// sender side", §5.4).
	data := req.buf
	p := t.maxPayload()
	npkts := (len(data) + p - 1) / p
	if npkts == 0 {
		npkts = 1
	}
	remaining := npkts
	st := Status{Source: src, Tag: req.tag, Len: len(data)}
	onWire := func() {
		remaining--
		if remaining == 0 {
			t.complete(req, st)
		}
	}
	for off := 0; off < len(data) || off == 0; off += p {
		end := off + p
		if end > len(data) {
			end = len(data)
		}
		if t.cfg.SendOverhead > 0 {
			ctx.Sleep(t.cfg.SendOverhead)
		}
		dh := &wireHeader{typ: mtRData, msgID: h.msgID, offset: uint32(off), totalLen: uint32(len(data))}
		t.tr.Send(ctx, src, t.buildPacket(dh, data[off:end]), onWire)
		if len(data) == 0 {
			break
		}
	}
}

func (t *Task) handleRData(src int, h wireHeader, payload []byte) {
	key := msgKey{peer: src, msgID: h.msgID}
	im := t.inMsgs[key]
	if im == nil || im.matched == nil {
		panic(fmt.Sprintf("mpi: rank %d: rendezvous data without matched RTS (msg %d from %d)", t.Self(), h.msgID, src))
	}
	if len(payload) > 0 {
		copy(im.matched.buf[h.offset:], payload)
		im.recvd += len(payload)
	}
	if im.recvd >= im.total {
		delete(t.inMsgs, key)
		t.complete(im.matched, Status{Source: im.src, Tag: int(im.tag), Len: im.total})
	}
}

// complete finishes a request and notifies waiters (and rcvncall hooks).
func (t *Task) complete(req *Request, st Status) {
	req.Status = st
	req.done = true
	t.progress.Broadcast()
	if req.onComplete != nil {
		fn := req.onComplete
		t.rt.Go(fmt.Sprintf("mpi-oncomplete-%d", t.Self()), func(ctx exec.Context) {
			if t.cfg.RcvncallCost > 0 {
				ctx.Sleep(t.cfg.RcvncallCost)
			}
			fn(ctx, st)
		})
	}
}

func (r *Request) matches(im *inMsg) bool {
	if r.isSend {
		return false
	}
	if r.src != AnySource && r.src != im.src {
		return false
	}
	if r.tag != AnyTag && uint16(r.tag) != im.tag {
		return false
	}
	return true
}
