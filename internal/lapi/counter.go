package lapi

import (
	"fmt"

	"golapi/internal/exec"
)

// Counter is LAPI's completion-signalling object (§2.3): an opaque counter
// the library increments when communication events occur. The same counter
// may be associated with many operations, letting the user wait on a group
// of operations with a single Waitcntr.
//
// Counters are created by NewCounter on the task whose events they observe.
// A counter's ID is meaningful to remote tasks: an origin may name a
// target-side counter (the tgt_cntr argument of Put/Get/Amsend) by
// RemoteCounter. In SPMD programs that create counters in the same order on
// every task, equal IDs name corresponding counters — the same convention
// LAPI programs use for exchanged addresses.
type Counter struct {
	id    uint32
	value int
	cond  exec.Cond
	task  *Task
	// fn is the incr method value, bound once at creation so hot paths
	// that hand a completion callback to the transport (rendezvous sends)
	// do not allocate a closure per operation.
	fn func()
}

// RemoteCounter names a counter on another task. The zero value
// (NoCounter) means "no counter" — no target-side signalling.
type RemoteCounter uint32

// NoCounter is the absent RemoteCounter.
const NoCounter RemoteCounter = 0

// NewCounter creates a counter with initial value zero and registers it for
// remote signalling.
func (t *Task) NewCounter() *Counter {
	c := &Counter{
		id:   uint32(len(t.counters) + 1),
		cond: t.rt.NewCond(),
		task: t,
	}
	c.fn = c.incr
	t.counters = append(t.counters, c)
	return c
}

// incrFn returns the counter's pre-bound increment callback (nil for a nil
// counter), for handing to transport completion hooks without allocating.
func (c *Counter) incrFn() func() {
	if c == nil {
		return nil
	}
	return c.fn
}

// ID returns the counter's remote name; pass it to another task as the
// tgt_cntr of a Put/Get/Amsend targeting this task.
func (c *Counter) ID() RemoteCounter { return RemoteCounter(c.id) }

// counterByID resolves a RemoteCounter received on the wire; 0 resolves to
// nil (no signalling).
func (t *Task) counterByID(id RemoteCounter) *Counter {
	if id == NoCounter {
		return nil
	}
	i := int(id) - 1
	if i < 0 || i >= len(t.counters) {
		panic(fmt.Sprintf("lapi: task %d: unknown counter id %d", t.Self(), id))
	}
	return t.counters[i]
}

// incr bumps the counter and wakes waiters. Internal: called by the
// protocol engine with the task serialized.
func (c *Counter) incr() {
	if c == nil {
		return
	}
	c.value++
	c.cond.Broadcast()
	c.task.Notify()
}

// Getcntr returns the current counter value without blocking, after making
// communication progress (the paper's non-blocking polling check, §2.3).
func (t *Task) Getcntr(ctx exec.Context, c *Counter) int {
	t.Poll(ctx)
	return c.value
}

// Setcntr sets the counter to val (LAPI_Setcntr).
func (t *Task) Setcntr(ctx exec.Context, c *Counter, val int) {
	t.Poll(ctx)
	c.value = val
	c.cond.Broadcast()
	t.Notify()
}

// Waitcntr blocks until the counter reaches at least val, then atomically
// decrements it by val (the paper's LAPI_Waitcntr semantics: "the counter
// value is automatically decremented by the value specified"). In polling
// mode the wait itself drives communication progress.
func (t *Task) Waitcntr(ctx exec.Context, c *Counter, val int) {
	t.requireBlockingAllowed("Waitcntr")
	for {
		t.Poll(ctx)
		if c.value >= val {
			c.value -= val
			return
		}
		if t.Mode() == Polling {
			// Progress is our job: wake on any arrival or counter
			// change and drain again.
			t.Wait(ctx)
		} else {
			ctx.Wait(c.cond)
		}
	}
}

// Value reports the counter value without making progress (test hook; real
// LAPI programs use Getcntr).
func (c *Counter) Value() int { return c.value }
