package lapi

import (
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/progress"
	"golapi/internal/stats"
	"golapi/internal/trace"
)

// Task is one participant in a LAPI job: the analogue of the process handle
// returned by LAPI_Init. All LAPI operations are methods on Task.
//
// A Task is single-threaded in the exec sense: every method must be called
// from an activity of the task's runtime (the main program, a completion
// handler, or the dispatcher), which the runtime serializes.
type Task struct {
	rt  exec.Runtime
	tr  fabric.Transport
	cfg Config

	mem       arena
	counters  []*Counter
	handlers  []HeaderHandler
	blockPool []*blockSlot // free-list for the blocking-call wrappers

	// The receive queue, the dispatcher and the progress mode (§2.1).
	progress.Engine
	inHeaderHandler bool // a user header handler is on the stack

	// Packet recycling. rxPkt is the wire packet currently being handled;
	// rxRetain is set when a handler keeps a reference past the dispatch
	// (a stashed out-of-order AM packet), deferring the transport Release.
	rxPkt    []byte
	rxRetain bool

	// Free lists for per-message tracking records. The dispatcher
	// serializes all access, so plain slices suffice; steady-state traffic
	// allocates no outMsg/inMsg and reuses each inMsg's stash slice.
	outFree []*outMsg
	inFree  []*inMsg

	// Origin-side state for messages this task initiated.
	msgSeq      uint32
	outMsgs     map[uint32]*outMsg
	outstanding int // operations whose data transfer hasn't completed (Fence)

	// Target-side reassembly state.
	inMsgs map[inKey]*inMsg

	// Rendezvous state: the resolved eager/rendezvous crossover (0 =
	// disabled; see resolveRndvLimit) and the target-side registration
	// cache.
	rndvLimit int
	regCache  regCache

	// Completion-handler thread pool accounting (Config.CompletionThreads),
	// and the name every completion-handler activity runs under.
	complRunning int
	complCond    exec.Cond
	complName    string

	// Collective state (Gfence barrier, AddressInit exchanges).
	coll collectives

	// Counters records protocol-level accounting (handlers run,
	// interrupts taken, internal copies).
	Counters stats.Counters
}

// outMsg tracks an operation initiated by this task until all its
// acknowledgements arrive.
type outMsg struct {
	kind     byte // ptPutData, ptAmHdr, ptGetReq, ptRmwReq
	dst      int
	orgCntr  *Counter
	cmplCntr *Counter
	// Get state: data is copied into getBuf as ptGetData packets arrive.
	getBuf  []byte
	getRecv int
	// Rmw state.
	rmwPrev *int64
	// Amsend acknowledgement tracking.
	wantCmpl  bool
	dataAcked bool
	cmplAcked bool
	// Rendezvous state: rndv marks the op as RTS/CTS-negotiated; rndvData
	// pins the Put payload (borrowed by the caller's contract) from RTS
	// until the CTS hands it to the transport's direct lane.
	rndv     bool
	rndvData []byte
}

type inKey struct {
	src   int
	msgID uint32
}

// inMsg tracks an arriving multi-packet message at the target.
type inMsg struct {
	total   int
	recvd   int
	tgtCntr *Counter
	// Active message state.
	hdrSeen  bool
	buf      []byte // user buffer returned by the header handler
	stash    []stashed
	complete CompletionHandler
	wantCmpl bool
	// src and msgID identify the message to its completion handler;
	// runCompl, the activity that runs it, and task, the receiving task,
	// are kept across recycling.
	src      int
	msgID    uint32
	runCompl func(exec.Context)
	task     *Task
	// rndv marks a region pre-posted for direct placement: no per-packet
	// handlePutData runs; completion arrives via handleDirectDone.
	rndv bool
}

type stashed struct {
	offset int
	data   []byte // aliases pkt's payload region
	pkt    []byte // the retained wire packet, released once merged
}

// newOutMsg returns a zeroed outMsg, recycled when possible.
func (t *Task) newOutMsg() *outMsg {
	if n := len(t.outFree); n > 0 {
		om := t.outFree[n-1]
		t.outFree = t.outFree[:n-1]
		return om
	}
	return &outMsg{}
}

// freeOutMsg recycles om. Callers must be done reading its fields and must
// not have handed om itself to any closure (the send path captures the
// origin counter, never the record).
func (t *Task) freeOutMsg(om *outMsg) {
	*om = outMsg{}
	t.outFree = append(t.outFree, om)
}

// newInMsg returns a zeroed inMsg, recycled when possible. The stash slice
// keeps its capacity across reuses.
func (t *Task) newInMsg() *inMsg {
	if n := len(t.inFree); n > 0 {
		im := t.inFree[n-1]
		t.inFree = t.inFree[:n-1]
		return im
	}
	return &inMsg{task: t}
}

// freeInMsg recycles im, retaining the stash backing array and the
// completion activity.
func (t *Task) freeInMsg(im *inMsg) {
	stash := im.stash
	for i := range stash {
		stash[i] = stashed{} // release packet references
	}
	*im = inMsg{stash: stash[:0], runCompl: im.runCompl, task: im.task}
	t.inFree = append(t.inFree, im)
}

// NewTask initializes a LAPI task over transport tr (the analogue of
// LAPI_Init). The transport's deliver callback is claimed by the task.
func NewTask(rt exec.Runtime, tr fabric.Transport, cfg Config) (*Task, error) {
	if err := cfg.validate(tr.MaxPacket()); err != nil {
		return nil, err
	}
	t := &Task{
		rt:        rt,
		tr:        tr,
		cfg:       cfg,
		outMsgs:   make(map[uint32]*outMsg),
		inMsgs:    make(map[inKey]*inMsg),
		complName: fmt.Sprintf("lapi-compl-%d", tr.Self()),
	}
	t.complCond = rt.NewCond()
	t.coll.init(t)
	t.rndvLimit = resolveRndvLimit(cfg, tr)
	tr.SetDirectDone(t.handleDirectDone)
	t.Init(rt, tr, "lapi", cfg.Mode, cfg.InterruptCost, &t.Counters, cfg.Tracer, t.receive)
	return t, nil
}

// Self returns this task's rank.
func (t *Task) Self() int { return t.tr.Self() }

// Runtime returns the execution runtime the task is bound to, so user
// libraries (e.g. GA) can create their own conditions and activities on the
// same serialization domain.
func (t *Task) Runtime() exec.Runtime { return t.rt }

// N returns the number of tasks in the job.
func (t *Task) N() int { return t.tr.N() }

// Config returns the task's configuration, with the current progress mode.
func (t *Task) Config() Config {
	cfg := t.cfg
	cfg.Mode = t.Mode()
	return cfg
}

// maxPayload is the per-packet user payload (QueryMaxPayload).
func (t *Task) maxPayload() int { return t.tr.MaxPacket() - t.cfg.HeaderBytes }

// Qenv answers environment queries (LAPI_Qenv).
func (t *Task) Qenv(q Query) int {
	switch q {
	case QueryNumTasks:
		return t.N()
	case QueryMaxUhdr:
		return t.maxPayload()
	case QueryMaxPayload:
		return t.maxPayload()
	case QueryMode:
		return int(t.Mode())
	default:
		panic(fmt.Sprintf("lapi: unknown query %d", q))
	}
}

// Senv updates runtime-settable environment state; currently the progress
// mode (LAPI_Senv). Switching to interrupt mode kicks the dispatcher so any
// backlog queued while polling is drained.
func (t *Task) Senv(mode Mode) { t.SetMode(mode) }

// Close terminates the task (LAPI_Term): the dispatcher exits and the
// transport endpoint is closed.
func (t *Task) Close() error {
	if !t.Engine.Close() {
		return nil
	}
	return t.tr.Close()
}

// receive charges one queued packet's receive overhead (AckOverhead for an
// acknowledgement), dispatches it, and releases it unless retained.
func (t *Task) receive(ctx exec.Context, src int, pkt []byte) {
	cost := t.cfg.RecvOverhead
	if len(pkt) > 0 && (pkt[0] == ptDataAck || pkt[0] == ptCmplAck) {
		cost = t.cfg.AckOverhead
	}
	if cost > 0 {
		ctx.Sleep(cost)
	}
	if t.cfg.Tracer != nil && len(pkt) > 0 {
		t.tracef(trace.KindPacket, "type=%d from=%d %dB", pkt[0], src, len(pkt))
	}
	t.rxPkt = pkt
	t.rxRetain = false
	t.handle(ctx, src, pkt)
	if !t.rxRetain {
		// Handlers copy what they keep (or stash the whole packet and
		// set rxRetain), so the wire buffer can back a future frame.
		t.tr.Release(pkt)
	}
	t.rxPkt = nil
}

// handle dispatches one received packet.
func (t *Task) handle(ctx exec.Context, src int, pkt []byte) {
	h, payload, err := t.splitPacket(pkt)
	if err != nil {
		panic(fmt.Sprintf("lapi: task %d: %v", t.Self(), err))
	}
	switch h.typ {
	case ptPutData:
		t.handlePutData(src, h, payload)
	case ptGetReq:
		t.handleGetReq(ctx, src, h)
	case ptGetData:
		t.handleGetData(h, payload)
	case ptAmHdr, ptAmData:
		t.handleAm(src, h, payload)
	case ptDataAck:
		t.handleDataAck(h)
	case ptCmplAck:
		t.handleCmplAck(h)
	case ptRmwReq:
		t.handleRmwReq(ctx, src, h)
	case ptRmwRep:
		t.handleRmwRep(h)
	case ptRts:
		t.handleRts(ctx, src, h)
	case ptCts:
		t.handleCts(ctx, h)
	case ptBarrierArrive, ptBarrierGo, ptGatherWord, ptTableChunk:
		t.coll.handle(ctx, src, h, payload)
	default:
		panic(fmt.Sprintf("lapi: task %d: unknown packet type %d", t.Self(), h.typ))
	}
}

// tracef records an event on the task's tracer, if any.
func (t *Task) tracef(kind, format string, args ...interface{}) {
	if t.cfg.Tracer != nil {
		t.cfg.Tracer.Recordf(t.rt.Now(), t.Self(), kind, format, args...)
	}
}

// requireBlockingAllowed panics when a blocking LAPI call is made from a
// header handler, which the paper forbids ("the header handler cannot
// block", §5.3.1).
func (t *Task) requireBlockingAllowed(op string) {
	if t.inHeaderHandler {
		panic(fmt.Sprintf("lapi: %s called from a header handler; header handlers must not block", op))
	}
}

// sendControl transmits a payload-less control packet, charging injection
// cost. The header is taken by value so callers can pass a stack literal —
// no per-control-packet header allocation.
func (t *Task) sendControl(ctx exec.Context, dst int, h header) {
	if t.cfg.SendOverhead > 0 {
		ctx.Sleep(t.cfg.SendOverhead)
	}
	t.tr.Send(ctx, dst, t.buildPacket(&h, nil), nil)
}

// opDone is called when an operation initiated by this task has finished
// its data transfer (fence accounting).
func (t *Task) opDone() {
	t.outstanding--
	if t.outstanding < 0 {
		panic("lapi: fence accounting underflow")
	}
	t.Notify()
}
