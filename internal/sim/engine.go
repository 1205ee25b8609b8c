//go:build go1.23

// Package sim implements a deterministic discrete-event simulation engine
// with cooperatively scheduled processes.
//
// The engine maintains a virtual clock and a priority queue of events.
// Exactly one flow of control — the caller of Run/RunUntil or a single
// simulated process — runs at any instant, so simulated code needs no
// locking and every run with the same inputs produces the same event order.
//
// Processes are coroutines (iter.Pull): a switch into or out of one is a
// direct hand-off that never enters the Go scheduler's run queue. There is
// one event loop, dispatch, and whoever has nothing else to do runs it: the
// hub inside Run/RunUntil, and every process that parks (Sleep, WaitCond).
// A parking process keeps firing events in (at, seq) order on its own
// stack; if the next wake-up is its own it simply returns — no switch at
// all — and otherwise it names the process to run next and yields to the
// hub, which resumes it. Which stack pops the queue never changes the order
// in which events fire, so virtual time is independent of all of this.
//
// A process and its coroutine are separate things. Go allocates a new Proc
// handle for every process and never reuses one, so Join and a stale
// wake-up of a finished process behave as if each process had a coroutine
// of its own. The coroutine — goroutine, grown stack and iter.Pull pair —
// outlives its process: when the function returns, the coroutine marks the
// process done, puts itself on the engine's idle list and yields, and the
// next Go hands it the new process instead of building another. A process
// that panics or is unwound takes its coroutine with it. Idle coroutines
// never outlive the engine's work: unwinding stops them, and so does every
// Run or RunUntil that leaves nothing pending.
//
// The contract that follows from it:
//
//   - A Schedule/ScheduleAt callback may run on the hub or on the coroutine
//     of whichever process happens to be parked, so a callback must never
//     park (no Sleep, WaitCond, Pop, Acquire, Await, Join); it may schedule
//     events, broadcast conditions and spawn processes.
//   - Run and RunUntil may be called from different goroutines over an
//     engine's life (the sharded executor resumes an engine on whichever
//     worker picks up its epoch) but never concurrently, and never from a
//     callback or a process of the same engine.
//   - When Run returns, no process is left suspended: one still parked at a
//     deadlock is unwound (its deferred calls run) before the
//     *DeadlockError is returned. A panic in a process or a callback
//     unwinds the others the same way and then surfaces on the goroutine
//     that called Run/RunUntil.
//
// The event queue is built for the hot path: events are inline values in a
// 4-ary heap (no per-Schedule allocation, no interface boxing), and events
// scheduled for the current instant — the overwhelming majority in a busy
// protocol exchange: process wakeups, condition broadcasts, zero-delay
// handoffs — bypass the heap entirely through a FIFO.
//
// Future events that are created already in order need not be sorted again.
// A Lane holds such a stream — the packets a serialized link puts on the
// wire — behind one heap entry, its head: when the head fires the lane
// arms its next entry under the key that entry would have had anyway, so
// the firing order is the heap's, event for event. An entry that would
// break the lane's order goes to the heap itself, and DueBy counts a
// lane's due entries through its head, so NextAt and DueBy answer as if
// every entry were in the heap. The switch's retransmission deadlines use
// the same idea with one extra rule (switchnet's one armed timer per
// adapter).
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for virtual intervals; virtual durations
// use the same unit (nanoseconds) as wall-clock durations so the usual
// time.Microsecond constants read naturally in configs.
type Duration = time.Duration

func (t Time) String() string {
	return time.Duration(t).String()
}

// Handler is an event that carries its own state. A pointer type whose
// Fire method does the work is stored in the queue as it is, so scheduling
// one allocates nothing — unlike a closure, which must capture its state
// on the heap. Protocol code that schedules an event per packet converts
// its per-packet record to a small handler type (a zero-cost pointer
// conversion) instead of building a closure for each one.
type Handler interface{ Fire() }

// HandlerFunc adapts an ordinary function to a Handler; Schedule and
// ScheduleAt store their callbacks this way. A func value is
// pointer-shaped, so the conversion allocates nothing.
type HandlerFunc func()

// Fire calls f.
func (f HandlerFunc) Fire() { f() }

// wakeup is a process wake-up as a Handler: dispatch recognises it and
// resumes the process instead of calling Fire, so the scheduler's own
// bookkeeping never allocates.
type wakeup Proc

// Fire is never called; see wakeup.
func (w *wakeup) Fire() {}

// event is a scheduled callback, stored by value. Events with equal time
// fire in scheduling order (seq breaks ties), which is what makes runs
// deterministic. Every payload is a Handler — a callback as a HandlerFunc,
// a process wake-up as a wakeup — so an event is three words.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// timerEntry is one future event in the timer heap: the ordering key plus
// the index of its payload in the slot slab. Deliberately pointer-free so
// the heap array is never scanned by the GC and sift swaps need no write
// barriers — with millions of queued timers both costs dominate the pop
// path otherwise.
type timerEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// entryLess orders timer entries by (at, seq).
func entryLess(a, b *timerEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// timerSlot holds the payload of one queued timer event, referenced by
// index from the heap. Slots are recycled through a free list, so steady
// state schedules allocate nothing.
type timerSlot struct {
	h Handler
}

// Engine is a discrete-event scheduler; create one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// timers is a 4-ary min-heap (by (at, seq)) of events in the future,
	// plus any reserved-seq event queued for the current instant
	// (ScheduleReserved). 4-ary rather than binary: shallower trees mean
	// fewer swaps per push/pop, and the 4 children share cache lines.
	// Payloads live in slots; freeSlots recycles vacated indices.
	timers    []timerEntry
	slots     []timerSlot
	freeSlots []int32
	// due is a FIFO of events scheduled for the current instant. Invariant:
	// every entry has at == now (now only advances once due is empty), and
	// entries are in seq order, so due[dueHead] is always the oldest
	// current-instant event. The backing array is reused across drains.
	due     []event
	dueHead int

	// deadline bounds the current Run/RunUntil window: dispatch fires
	// nothing later, whichever stack it runs on.
	deadline Time
	// handoff is how a process that yields tells the hub whom to resume:
	// the process whose wake-up its dispatch popped, or nil when nothing
	// more is due.
	handoff *Proc
	// procs holds every unfinished process (Proc.idx is its position), so
	// a deadlock can name and unwind them.
	procs     []*Proc
	unwinding bool
	// idle holds the coroutines of finished processes, for Go to reuse.
	idle []*coro
}

// NewEngine returns an engine with an empty event queue at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at Now()+d on the engine goroutine.
// A negative delay is treated as zero.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+Time(d), HandlerFunc(fn))
}

// schedule enqueues one event. Current-instant events go to the due FIFO;
// future events go to the timer heap.
func (e *Engine) schedule(at Time, h Handler) {
	e.seq++
	if at == e.now {
		e.due = append(e.due, event{at: at, seq: e.seq, h: h})
		return
	}
	e.pushTimer(at, e.seq, h)
}

// pushTimer puts one event on the timer heap under the key (at, seq).
func (e *Engine) pushTimer(at Time, seq uint64, h Handler) {
	var slot int32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		slot = int32(len(e.slots))
		e.slots = append(e.slots, timerSlot{})
	}
	e.slots[slot] = timerSlot{h: h}
	e.push(timerEntry{at: at, seq: seq, slot: slot})
}

// ScheduleAt arranges for fn to run at the absolute virtual time at, which
// must not be in the past. It is the event-import half of conservative
// parallel simulation (internal/parallel): a coordinator moves events
// between sub-engines by reading one engine's outbox and replaying each
// entry here with its precomputed timestamp. Import order assigns seq, so
// same-instant imports fire in the order they are scheduled — the caller
// is responsible for making that order deterministic.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) is in the past (now %v)", at, e.now))
	}
	e.schedule(at, HandlerFunc(fn))
}

// ScheduleHandlerAt is ScheduleAt for a Handler: h.Fire runs at the
// absolute virtual time at, which must not be in the past.
func (e *Engine) ScheduleHandlerAt(at Time, h Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleHandlerAt(%v) is in the past (now %v)", at, e.now))
	}
	e.schedule(at, h)
}

// ReserveSeq consumes one sequence number exactly as scheduling an event
// would, without queueing anything, and returns it. Together with
// ScheduleReserved it lets a caller decide later — or never — to queue an
// event that keeps the (at, seq) key it would have had if scheduled now,
// so every other event's key, and with it the firing order, is the same
// whether or not the reserved event is ever queued.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleReserved queues h under the key (at, seq), where seq came from
// ReserveSeq and at is not in the past. The event fires where that key
// sorts among all pending events — before a current-instant event
// scheduled after the reservation, for example — so it always goes to the
// timer heap, never the due FIFO (whose entries must stay in seq order).
func (e *Engine) ScheduleReserved(at Time, seq uint64, h Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleReserved(%v) is in the past (now %v)", at, e.now))
	}
	if seq == 0 || seq > e.seq {
		panic(fmt.Sprintf("sim: ScheduleReserved with unreserved seq %d", seq))
	}
	e.pushTimer(at, seq, h)
}

// NextAt returns the timestamp of the earliest pending event, if any. A
// coordinator driving several engines in lookahead epochs uses it to pick
// the next epoch window (and to detect global quiescence).
func (e *Engine) NextAt() (Time, bool) {
	// Due entries sit at the current instant, so they can never be later
	// than the timer-heap minimum.
	if e.dueHead < len(e.due) {
		return e.due[e.dueHead].at, true
	}
	if len(e.timers) > 0 {
		return e.timers[0].at, true
	}
	return 0, false
}

// scheduleProc enqueues a wakeup for p at Now()+d without allocating a
// closure.
func (e *Engine) scheduleProc(d Duration, p *Proc) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+Time(d), (*wakeup)(p))
}

// pending reports the number of queued heap and due entries, which is zero
// exactly when no event is pending: a lane's later entries wait behind its
// armed head.
func (e *Engine) pending() int { return len(e.timers) + len(e.due) - e.dueHead }

// push inserts ev into the 4-ary timer heap.
func (e *Engine) push(ev timerEntry) {
	h := append(e.timers, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.timers = h
}

// popTimer removes and returns the minimum of the timer heap, recycling its
// payload slot.
func (e *Engine) popTimer() event {
	h := e.timers
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(&h[c], &h[min]) {
				min = c
			}
		}
		if !entryLess(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.timers = h
	s := &e.slots[top.slot]
	ev := event{at: top.at, seq: top.seq, h: s.h}
	*s = timerSlot{} // release payload references
	e.freeSlots = append(e.freeSlots, top.slot)
	return ev
}

// popDue removes and returns the head of the due FIFO, which the caller has
// checked is non-empty. The backing array is recycled once drained.
func (e *Engine) popDue() event {
	ev := e.due[e.dueHead]
	e.due[e.dueHead] = event{} // release payload references
	e.dueHead++
	if e.dueHead == len(e.due) {
		e.due = e.due[:0]
		e.dueHead = 0
	}
	return ev
}

// DueBy reports how many pending events have timestamps <= deadline,
// counting no further than limit. A coordinator uses it to size an epoch
// window before deciding how to run it, so the cost must follow the answer,
// not the queue: the heap is walked from the root and a subtree is entered
// only when its root is due (children are never earlier than their parent),
// which visits at most four entries per event counted.
func (e *Engine) DueBy(deadline Time, limit int) int {
	n := 0
	if e.dueHead < len(e.due) && e.due[e.dueHead].at <= deadline {
		// Every due entry sits at the same instant.
		n = len(e.due) - e.dueHead
	}
	if n >= limit {
		return limit
	}
	return n + e.timersDueBy(0, deadline, limit-n)
}

// timersDueBy counts, up to limit, the due entries of the heap subtree
// rooted at index i. A lane's armed head counts as every due entry of its
// lane, so the answer is the same as if each lane entry were in the heap.
func (e *Engine) timersDueBy(i int, deadline Time, limit int) int {
	if i >= len(e.timers) || e.timers[i].at > deadline {
		return 0
	}
	n := 1
	if l, ok := e.slots[e.timers[i].slot].h.(*laneHead); ok {
		n = (*Lane)(l).dueBy(deadline, limit)
	}
	for c := 4*i + 1; c <= 4*i+4 && n < limit; c++ {
		n += e.timersDueBy(c, deadline, limit-n)
	}
	return n
}

// dispatch is the event loop, shared by the hub (Run, RunUntil) and by
// every parking process. It fires callback events in (at, seq) order until
// the next event is a process wake-up, which it returns for the caller to
// act on — a parking process that gets itself back just carries on — or
// until nothing is left inside the deadline, when it returns nil.
func (e *Engine) dispatch() *Proc {
	for {
		var ev event
		switch {
		case e.dueHead < len(e.due):
			// Due entries sit at the current instant, so they are never
			// later than the heap minimum; at the same instant the smaller
			// seq — necessarily the heap's, scheduled or reserved strictly
			// earlier — fires first.
			d := &e.due[e.dueHead]
			if d.at > e.deadline {
				return nil
			}
			if len(e.timers) == 0 || d.at < e.timers[0].at ||
				(d.at == e.timers[0].at && d.seq < e.timers[0].seq) {
				ev = e.popDue()
			} else {
				ev = e.popTimer()
			}
		case len(e.timers) > 0:
			if e.timers[0].at > e.deadline {
				return nil
			}
			ev = e.popTimer()
		default:
			return nil
		}
		if ev.at < e.now {
			panic("sim: event scheduled in the past")
		}
		e.now = ev.at
		if w, ok := ev.h.(*wakeup); !ok {
			ev.h.Fire()
		} else if p := (*Proc)(w); !p.done {
			return p
		}
	}
}

// run is the hub: it drives dispatch up to deadline, resuming each process
// dispatch names and then whichever process that one handed off to.
func (e *Engine) run(deadline Time) {
	e.deadline = deadline
	clean := false
	defer func() {
		if !clean {
			// A process or callback panicked (or called Goexit): do not
			// leave the others suspended behind it.
			e.unwind()
		}
	}()
	for p := e.dispatch(); p != nil; p = e.dispatch() {
		for p != nil {
			e.handoff = nil
			p.co.next()
			p = e.handoff
		}
	}
	clean = true
	if e.pending() == 0 {
		e.stopIdle()
	}
}

// unwind stops every unfinished process, most recent first, and then every
// idle coroutine: a parked process resumes inside park with a panic that
// its wrapper recovers, so its deferred calls run; one that never started
// just never will.
func (e *Engine) unwind() {
	e.unwinding = true
	defer func() { e.unwinding = false }()
	for n := len(e.procs); n > 0; n = len(e.procs) {
		p := e.procs[n-1]
		p.co.stop()
		if !p.done {
			p.finish()
		}
	}
	e.stopIdle()
}

// stopIdle ends every idle coroutine, so none outlives the work that made
// it.
func (e *Engine) stopIdle() {
	for n := len(e.idle); n > 0; n = len(e.idle) {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		c.stop()
	}
}

// DeadlockError reports that the event queue drained while processes were
// still parked — the simulated system can make no further progress.
type DeadlockError struct {
	// Parked lists the names of the stuck processes, sorted.
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events: %v", len(d.Parked), d.Parked)
}

// Run executes events until the queue is empty. It returns nil when every
// spawned process has finished, or a *DeadlockError if processes remain
// parked with nothing left to wake them; those are unwound before Run
// returns, so a deadlocked simulation leaves nothing suspended behind it.
func (e *Engine) Run() error {
	e.run(math.MaxInt64)
	if len(e.procs) == 0 {
		return nil
	}
	parked := make([]string, len(e.procs))
	for i, p := range e.procs {
		parked[i] = p.name
	}
	sort.Strings(parked)
	e.unwind()
	return &DeadlockError{Parked: parked}
}

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued and parked processes suspended for the next
// call. It reports whether any events remain.
func (e *Engine) RunUntil(deadline Time) bool {
	e.run(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.pending() > 0
}

// Proc is a simulated process: a function that runs on a coroutine and
// interleaves with the engine one-at-a-time. All Proc methods must be
// called from within the process's own function. A Proc is never reused:
// the handle stays valid (Join, Name) after the process has finished and
// its coroutine has moved on to another.
type Proc struct {
	eng  *Engine
	name string
	co   *coro
	idx  int // position in eng.procs until done
	done bool
	// parked is true while the process is inside park, where the events
	// its dispatch fires are not its own code: a panic then is the
	// callback's, not the process's.
	parked bool
	exit   Cond // broadcast on completion, for Join
}

// coro is a coroutine that runs processes one after another: it runs the
// process Go assigned it, and when that process returns it puts itself on
// the engine's idle list and yields until Go assigns it the next one.
type coro struct {
	// next resumes the coroutine until it yields or finishes, stop unwinds
	// it (iter.Pull); yield is the coroutine's side of the pair.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// p and fn are the assigned process, cleared once it starts.
	p  *Proc
	fn func(p *Proc)
}

// loop is the coroutine's body. It ends when the coroutine is stopped —
// idle, assigned but not yet started, or parked in a process being
// unwound — or when a process panics, which takes the coroutine with it.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p, fn := c.p, c.fn
		c.p, c.fn = nil, nil
		if !p.main(fn) {
			return
		}
		p.eng.idle = append(p.eng.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// unwound is the panic value park raises in a process that Engine.unwind
// is stopping; main recovers it. (runtime.Goexit would not do: iter.Pull
// re-raises a coroutine's Goexit in the hub.)
type unwound struct{}

// Go spawns fn as a new simulated process starting at the current virtual
// time. fn begins executing when the engine reaches the start event, on an
// idle coroutine if a finished process left one and on a new one
// otherwise.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:  e,
		name: name,
		idx:  len(e.procs),
		exit: Cond{eng: e},
	}
	e.procs = append(e.procs, p)
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &coro{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p, c.fn = p, fn
	p.co = c
	e.scheduleProc(0, p)
	return p
}

// main runs fn to completion on the process's coroutine and reports
// whether fn returned, which is when the coroutine may run another
// process. A panic in fn is re-raised — and so reaches whoever called
// Run/RunUntil — with the process named in the message.
func (p *Proc) main(fn func(p *Proc)) bool {
	defer func() {
		r := recover()
		p.finish()
		if r == nil {
			p.exit.Broadcast()
			return
		}
		if _, ok := r.(unwound); ok {
			return
		}
		if p.parked {
			panic(r)
		}
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}()
	fn(p)
	return true
}

// finish marks p done and drops it from the engine's unfinished set.
func (p *Proc) finish() {
	p.done = true
	procs := p.eng.procs
	last := procs[len(procs)-1]
	procs[p.idx] = last
	last.idx = p.idx
	procs[len(procs)-1] = nil
	p.eng.procs = procs[:len(procs)-1]
}

// park suspends the process until its next wake-up event fires. The
// process runs the event loop itself while it waits: a wake-up of its own
// costs no switch at all, and anything else goes through the hub.
func (p *Proc) park() {
	e := p.eng
	if e.unwinding {
		panic(unwound{}) // a deferred call of an unwinding process tried to block
	}
	p.parked = true
	if next := e.dispatch(); next != p {
		e.handoff = next
		if !p.co.yield(struct{}{}) {
			panic(unwound{})
		}
	}
	p.parked = false
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d Duration) {
	// Even a zero-length sleep is a scheduling point: other events at the
	// current time run before we continue.
	p.eng.scheduleProc(d, p)
	p.park()
}

// Join blocks until q has finished.
func (p *Proc) Join(q *Proc) {
	for !q.done {
		p.WaitCond(&q.exit)
	}
}

// Cond is a broadcast-only condition variable for simulated processes.
// Because the engine serializes execution, no lock is associated with it:
// checking a predicate and calling WaitCond cannot race with a Broadcast.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// WaitCond parks the process until c is broadcast. As with sync.Cond, the
// caller must re-check its predicate in a loop.
func (p *Proc) WaitCond(c *Cond) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes all processes currently waiting on c. Wakeups are
// scheduled at the current virtual time in wait order. Scheduling runs
// nothing, so the waiter list cannot change underneath the loop and its
// backing array is kept for the next round of waiters.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.eng.scheduleProc(0, p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}
