package exec

import (
	"sync"
	"time"
)

// RealRuntime implements Runtime over wall-clock time and real goroutines.
// A single mutex serializes every activity belonging to the runtime, giving
// protocol code the same single-threaded view it has under the simulator.
// One RealRuntime backs one task (each task is its own serialization
// domain), unlike the simulator where one engine backs the whole cluster.
type RealRuntime struct {
	mu    sync.Mutex
	start time.Time
	wg    sync.WaitGroup
	ctx   realContext // stateless past rt: one serves every activity
}

// NewRealRuntime returns a runtime whose clock starts now.
func NewRealRuntime() *RealRuntime {
	r := &RealRuntime{start: time.Now()}
	r.ctx.rt = r
	return r
}

// Now implements Runtime.
func (r *RealRuntime) Now() time.Duration { return time.Since(r.start) }

// NewCond implements Runtime.
func (r *RealRuntime) NewCond() Cond {
	return &realCond{c: sync.NewCond(&r.mu)}
}

// After implements Runtime. fn runs with the runtime lock held.
func (r *RealRuntime) After(d time.Duration, fn func()) {
	r.wg.Add(1)
	time.AfterFunc(d, func() {
		defer r.wg.Done()
		r.mu.Lock()
		defer r.mu.Unlock()
		fn()
	})
}

// Post runs fn serialized as soon as possible; safe to call from goroutines
// outside the runtime (e.g. a transport read loop).
func (r *RealRuntime) Post(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// PostPacket is Post specialized for packet delivery: it runs fn(src, data)
// serialized without forcing the caller to allocate a closure per frame.
func (r *RealRuntime) PostPacket(fn func(src int, data []byte), src int, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(src, data)
}

// PostDone runs fn(src, token) serialized — the direct-lane completion
// shape (see fabric.Transport.SetDirectDone). Like PostPacket it avoids a
// per-completion closure allocation on the transport's read loop.
func (r *RealRuntime) PostDone(fn func(src int, token uint64), src int, token uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(src, token)
}

// PostArg runs fn(arg) serialized. Like PostPacket it exists for hot paths
// that would otherwise allocate a closure per call: fn is bound once by the
// caller and arg rides in the interface word (pointer payloads do not
// allocate).
func (r *RealRuntime) PostArg(fn func(arg any), arg any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(arg)
}

// Do runs fn serialized on the caller's goroutine, as a blocking-capable
// activity: fn's Context may Wait and Sleep, releasing the runtime lock
// meanwhile exactly as a Go activity's does. It returns when fn does. A
// goroutine outside the runtime (a server's connection reader) uses it to
// run an operation to completion on its own stack instead of handing it to
// a spawned activity; a call allocates nothing.
func (r *RealRuntime) Do(fn func(Context)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.ctx)
}

// Lend implements Runtime: fn runs on the caller's goroutine, which already
// holds the runtime lock (an After, Post or PostPacket callback, say), so this
// is Do without taking the lock. fn's Context may Wait and Sleep; the lock
// is released meanwhile and held again when Lend returns.
func (r *RealRuntime) Lend(fn func(Context)) bool {
	fn(&r.ctx)
	return true
}

// Go implements Runtime.
func (r *RealRuntime) Go(name string, fn func(Context)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.mu.Lock()
		defer r.mu.Unlock()
		fn(&r.ctx)
	}()
}

// Drain blocks until all activities spawned so far have finished. Intended
// for orderly shutdown in tools and examples.
func (r *RealRuntime) Drain() { r.wg.Wait() }

type realCond struct {
	c *sync.Cond
}

func (c *realCond) Broadcast() { c.c.Broadcast() }

type realContext struct {
	rt *RealRuntime
}

func (c *realContext) Now() time.Duration { return c.rt.Now() }

func (c *realContext) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	// Release the serialization lock while sleeping so other activities
	// make progress, mirroring how a simulated process parks.
	c.rt.mu.Unlock()
	time.Sleep(d)
	c.rt.mu.Lock()
}

func (c *realContext) Wait(cond Cond) { cond.(*realCond).c.Wait() }
