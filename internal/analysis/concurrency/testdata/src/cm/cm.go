// Package main is the concurrency-model unit-test fixture: small functions
// whose happens-before edges (channel, WaitGroup, barrier hook, PostArg, Do)
// and lockset joins the white-box tests in the parent package assert on
// directly. It is a real program (package main) so main-goroutine context
// is genuine.
package main

import (
	"sync"

	"golapi/internal/exec"
	"golapi/internal/parallel"
)

func main() {
	chanRelease()
	wgJoin()
	_ = barrierHook()
	postArg(exec.NewRealRuntime(), 7)
	doSession(exec.NewRealRuntime())
	branchLock(longLived, true)
	bothLock(longLived)
	_ = workload()
}

var (
	done   = make(chan struct{})
	result int
)

// chanRelease: the goroutine publishes result with close(done); the parent
// acquires it with the receive.
func chanRelease() {
	go func() {
		result = 1
		close(done)
	}()
	<-done
	_ = result
}

var (
	wg      sync.WaitGroup
	partial int
)

// wgJoin: fork-join through the WaitGroup.
func wgJoin() {
	wg.Add(1)
	go func() {
		defer wg.Done()
		partial++
	}()
	wg.Wait()
	_ = partial
}

var shared int

// barrierHook: the Barrier callback runs at the epoch barrier with every
// engine parked — its unit must hold the ⟨serialized⟩ pseudo-lock.
func barrierHook() parallel.Hooks {
	return parallel.Hooks{
		TakeOutbox: func(shard int) []parallel.Export { return nil },
		Barrier: func() {
			shared++
		},
	}
}

var posted int

// handle is the PostArg target: it runs on the runtime's serialization
// domain.
func handle(arg any) {
	posted++
}

// postArg publishes into the domain: the call is a release, handle's entry
// the matching acquire.
func postArg(rt *exec.RealRuntime, v int) {
	rt.PostArg(handle, v)
}

// sess is shared by a session-style goroutine and a Post callback.
type sess struct {
	inDo      int // written in the Do callback and in the Post callback
	published int // written before Do, read in the Post callback
	outside   int // written after Do, read in the Post callback
}

var session = new(sess)

// doSession: the goroutine fills a request, runs it under Do, then writes
// outside both domains. The Do callback and the Post callback each hold
// ⟨serialized⟩, so inDo is clean; Do publishes the write before it, so
// published is clean; outside is a race, which the model test asserts on
// the pair directly.
func doSession(rt *exec.RealRuntime) {
	go func() {
		session.published = 1
		rt.Do(doRun)
		session.outside = 1 //lapivet:ignore racefree the race TestDoDomain asserts
	}()
	rt.Post(func() {
		session.inDo++
		_ = session.published
		_ = session.outside
	})
}

// doRun is the Do callback: it runs on the runtime's serialization domain,
// on the calling goroutine.
func doRun(ctx exec.Context) {
	session.inDo++
}

// longLived keeps the cell non-fresh at the call sites: a &cell{} argument
// would qualify for interprocedural constructor freshness and the accesses
// under test would be dropped.
var longLived = new(cell)

type cell struct {
	mu   sync.Mutex
	val  int
	val2 int
}

// branchLock holds mu on only one path into the merge: the must-lockset at
// the write is the intersection — empty.
func branchLock(c *cell, cond bool) {
	if cond {
		c.mu.Lock()
	}
	c.val++
	if cond {
		c.mu.Unlock()
	}
}

// bothLock holds mu on the only path: the write's lockset keeps it.
func bothLock(c *cell) {
	c.mu.Lock()
	c.val2++
	c.mu.Unlock()
}

var bodyHits, deepHits int

// workload returns a body for the runtime to run: the constructor itself
// runs on the main goroutine, holding nothing, but the literal takes an
// exec.Context, so its code and every call below it hold ⟨serialized⟩ —
// eight calls deep, which takes the entry fixpoint more than six rounds.
func workload() func(ctx exec.Context) {
	return func(ctx exec.Context) {
		bodyHits++
		depth1()
	}
}

func depth1() { depth2() }
func depth2() { depth3() }
func depth3() { depth4() }
func depth4() { depth5() }
func depth5() { depth6() }
func depth6() { depth7() }
func depth7() { depth8() }
func depth8() { deepHits++ }
