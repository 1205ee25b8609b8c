package sim

import "fmt"

// Lane is a FIFO of future events whose keys never decrease — the packets
// one serialized link puts on the wire, say, which reach the far end in the
// order they left. Only the lane's head is in the engine's timer heap; the
// entries behind it wait in the lane's own array, so a link with a
// thousand packets in flight costs the heap one entry instead of a
// thousand.
//
// This is exact. Every entry takes its seq from ReserveSeq when it is
// added, just as scheduling it directly would, and keeps the key (at, seq)
// it would have had. The entries are sorted by that key, so the head is
// the lane's minimum, and the heap's minimum is therefore the minimum of
// all pending events: every event fires at its own key, in the same
// global order, whether or not it went through a lane. An entry that would
// break the order — earlier than the lane's tail — goes straight to the
// heap under its own key instead. DueBy counts a lane's due entries, not
// just its head, and NextAt needs nothing: the head is the lane's earliest
// entry.
type Lane struct {
	eng *Engine
	// head is the entry armed in the heap, its h nil when the lane is
	// empty; q[qHead:] holds the entries behind it in key order. A lane of
	// one entry — a quiet link — never touches q, and q's backing array is
	// reused once it drains.
	head  event
	q     []event
	qHead int
}

// NewLane returns an empty lane on e.
func NewLane(e *Engine) *Lane { return &Lane{eng: e} }

// At queues h to fire at the absolute virtual time at, which must not be in
// the past: the same event, under the same key, as e.ScheduleHandlerAt(at,
// h). An at earlier than the lane's tail is scheduled on the heap directly.
func (l *Lane) At(at Time, h Handler) {
	e := l.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: Lane.At(%v) is in the past (now %v)", at, e.now))
	}
	seq := e.ReserveSeq()
	if l.head.h == nil {
		l.head = event{at: at, seq: seq, h: h}
		e.pushTimer(at, seq, (*laneHead)(l))
		return
	}
	tail := l.head.at
	if n := len(l.q); n > l.qHead {
		tail = l.q[n-1].at
	}
	if at < tail {
		e.pushTimer(at, seq, h)
		return
	}
	l.q = append(l.q, event{at: at, seq: seq, h: h})
}

// dueBy counts, up to limit, the lane's entries with timestamps <= deadline;
// the caller has checked that the head is one.
func (l *Lane) dueBy(deadline Time, limit int) int {
	n := 1
	for i := l.qHead; i < len(l.q) && n < limit && l.q[i].at <= deadline; i++ {
		n++
	}
	return n
}

// laneHead is a lane's armed head as a Handler: the heap holds it under the
// head entry's key.
type laneHead Lane

// Fire pops the head, arms the next entry under its key and only then runs
// the popped handler, which may add to this very lane: an entry it adds to
// an empty lane arms itself, one behind a pending entry waits its turn.
func (lh *laneHead) Fire() {
	l := (*Lane)(lh)
	h := l.head.h
	if l.qHead == len(l.q) {
		l.head = event{} // release payload references
		h.Fire()
		return
	}
	l.head = l.q[l.qHead]
	l.q[l.qHead] = event{}
	l.qHead++
	if l.qHead == len(l.q) {
		l.q, l.qHead = l.q[:0], 0
	} else if l.qHead >= 64 && 2*l.qHead >= len(l.q) {
		n := copy(l.q, l.q[l.qHead:])
		clear(l.q[n:])
		l.q, l.qHead = l.q[:n], 0
	}
	l.eng.pushTimer(l.head.at, l.head.seq, lh)
	h.Fire()
}
