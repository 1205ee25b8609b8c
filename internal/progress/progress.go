// Package progress is the §2.1 progress engine LAPI and MPI share: a
// receive queue drained by an interrupt-mode dispatcher or, in polling mode,
// only inside library calls, each packet by the library's receive function.
package progress

import (
	"fmt"
	"time"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/stats"
	"golapi/internal/trace"
)

// Mode selects how communication progress is made at a task.
type Mode int

const (
	// Interrupt (the paper's typical mode): an arrival wakes the dispatcher,
	// or, when the interrupt is free and the runtime lends the delivering
	// activity, drains the queue there.
	Interrupt Mode = iota
	// Polling: progress happens only inside library calls.
	Polling
)

func (m Mode) String() string {
	switch m {
	case Interrupt:
		return "interrupt"
	case Polling:
		return "polling"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ChargeCopy sleeps ctx for the modelled time of copying n bytes at
// bandwidth bytes/sec; a bandwidth of 0 makes copies free. LAPI's internal
// buffering, MPI's and GA's pack and unpack copies are all priced here.
func ChargeCopy(ctx exec.Context, n int, bandwidth float64) {
	if bandwidth <= 0 || n <= 0 {
		return
	}
	if d := time.Duration(float64(n) / bandwidth * float64(time.Second)); d > 0 {
		ctx.Sleep(d)
	}
}

// Engine is one task's progress engine, embedded by value and started by
// Init. Like the task around it, it runs serialized on its runtime.
type Engine struct {
	rt            exec.Runtime
	self          int
	interruptCost time.Duration
	counters      *stats.Counters
	tracer        *trace.Tracer
	receive       func(ctx exec.Context, src int, pkt []byte)
	// drainFn is the drain method value, bound once so a lent drain does
	// not allocate a closure per packet.
	drainFn func(ctx exec.Context)

	// rx[rxHead:] is the pending queue; its backing array is reused.
	rx       []packet
	rxHead   int
	rxCond   exec.Cond // arrivals: wakes the dispatcher
	progress exec.Cond // arrivals and Notify: wakes waiters
	mode     Mode
	draining bool // polls inside a drain return at once
	closed   bool
}

type packet struct {
	src int
	pkt []byte
}

// Init claims tr's deliver upcall and starts the lib-dispatcher-rank
// activity. receive owns each packet it gets; each interrupt-mode wakeup
// costs interruptCost, counted in counters and traced on a non-nil tracer.
func (e *Engine) Init(rt exec.Runtime, tr fabric.Transport, lib string, mode Mode, interruptCost time.Duration,
	counters *stats.Counters, tracer *trace.Tracer, receive func(ctx exec.Context, src int, pkt []byte)) {
	e.rt, e.self, e.mode, e.interruptCost = rt, tr.Self(), mode, interruptCost
	e.counters, e.tracer, e.receive = counters, tracer, receive
	e.drainFn = e.drain
	e.rxCond, e.progress = rt.NewCond(), rt.NewCond()
	tr.SetDeliver(e.deliver)
	rt.Go(fmt.Sprintf("%s-dispatcher-%d", lib, e.self), e.dispatch)
}

// Mode reports the current progress mode.
func (e *Engine) Mode() Mode { return e.mode }

// SetMode switches the progress mode; a switch to interrupt mode kicks the
// dispatcher to drain any backlog queued while polling.
func (e *Engine) SetMode(mode Mode) {
	e.mode = mode
	if mode == Interrupt {
		e.rxCond.Broadcast()
	}
}

// Close stops the dispatcher, wakes every waiter and drops later
// arrivals. It reports whether this call closed the engine.
func (e *Engine) Close() bool {
	if e.closed {
		return false
	}
	e.closed = true
	e.rxCond.Broadcast()
	e.progress.Broadcast()
	return true
}

// Notify wakes the activities waiting for progress.
func (e *Engine) Notify() { e.progress.Broadcast() }

// Wait parks the activity until the next arrival or Notify.
func (e *Engine) Wait(ctx exec.Context) { ctx.Wait(e.progress) }

// Until polls, then returns once done reports true or the engine is
// closed, waiting for progress between checks.
func (e *Engine) Until(ctx exec.Context, done func() bool) {
	for {
		e.Poll(ctx)
		if done() || e.closed {
			return
		}
		ctx.Wait(e.progress)
	}
}

// Poll drains the queue from a library call, each one a polling point. Inside
// a drain (a handler calling Put, say) it returns at once.
func (e *Engine) Poll(ctx exec.Context) {
	if e.draining {
		return
	}
	e.counters.Add(stats.Polls, 1)
	e.drain(ctx)
}

// deliver is the transport upcall. In interrupt mode with a free interrupt
// the arrival drains the queue itself on the delivering activity when the
// runtime lends it one (the real runtime's reader goroutine), saving the
// hand-off to the dispatcher; otherwise the dispatcher is woken.
func (e *Engine) deliver(src int, pkt []byte) {
	if e.closed {
		return
	}
	e.rx = append(e.rx, packet{src: src, pkt: pkt})
	if e.mode == Interrupt && e.interruptCost == 0 && !e.draining && e.rt.Lend(e.drainFn) {
		e.progress.Broadcast()
		return
	}
	e.rxCond.Broadcast()
	e.progress.Broadcast()
}

// dispatch is the interrupt-mode dispatcher: it sleeps until packets
// arrive, charges the interrupt for the idle->running transition and
// drains the queue. In polling mode it stays parked.
func (e *Engine) dispatch(ctx exec.Context) {
	for {
		for !e.closed && (e.mode == Polling || e.rxHead == len(e.rx) || e.draining) {
			ctx.Wait(e.rxCond)
		}
		if e.closed {
			return
		}
		if e.interruptCost > 0 {
			e.counters.Add(stats.Interrupts, 1)
			if e.tracer != nil {
				e.tracer.Recordf(ctx.Now(), e.self, trace.KindInterrupt, "dispatcher wake, %d queued", len(e.rx)-e.rxHead)
			}
			ctx.Sleep(e.interruptCost)
		}
		e.drain(ctx)
	}
}

// drain hands every queued packet to receive.
func (e *Engine) drain(ctx exec.Context) {
	e.draining = true
	defer func() { e.draining = false }()
	for e.rxHead < len(e.rx) {
		p := e.rx[e.rxHead]
		e.rx[e.rxHead] = packet{}
		e.rxHead++
		e.receive(ctx, p.src, p.pkt)
	}
	e.rx = e.rx[:0]
	e.rxHead = 0
}
