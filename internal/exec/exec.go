// Package exec abstracts the execution substrate a communication task runs
// on, so the same protocol code drives both the deterministic discrete-event
// simulator (virtual time) and real goroutines over real transports
// (wall-clock time).
//
// A Runtime serializes all activity belonging to one domain (in the
// simulator, the whole cluster; in real mode, one task): callbacks scheduled
// with After and activities spawned with Go never run concurrently with each
// other. Blocking-capable code receives a Context; only code holding a
// Context may Sleep or Wait.
package exec

import "time"

// Cond is a broadcast-only condition variable. Waiting requires a Context
// (see Context.Wait); Broadcast may be called from any serialized activity.
type Cond interface {
	Broadcast()
}

// Context is the handle held by blocking-capable activities. All methods
// must be called from the activity the context was passed to.
type Context interface {
	// Now returns the time since the runtime started.
	Now() time.Duration
	// Sleep suspends the activity for d. In the simulator this advances
	// virtual time; in real mode it wall-clock sleeps. A non-positive d
	// still acts as a scheduling point.
	Sleep(d time.Duration)
	// Wait parks the activity until c is broadcast. Callers must re-check
	// their predicate in a loop, as with sync.Cond.
	Wait(c Cond)
}

// Runtime schedules serialized activities and timers.
type Runtime interface {
	// Now returns the time since the runtime started.
	Now() time.Duration
	// NewCond returns a condition variable bound to this runtime.
	NewCond() Cond
	// After runs fn at Now()+d, serialized with all other activity.
	// fn must not block.
	After(d time.Duration, fn func())
	// Go spawns fn as a new serialized, blocking-capable activity.
	Go(name string, fn func(Context))
	// Lend runs fn as a blocking-capable activity on the calling one, which
	// must already be serialized on the runtime (a transport upcall), and
	// reports whether it did. A runtime whose activities cannot borrow the
	// caller's stack runs nothing and returns false.
	Lend(fn func(Context)) bool
}
