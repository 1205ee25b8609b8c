// Package main is the call-resolution fixture of the concurrency model.
// Each racing case reaches its race through exactly one way of resolving
// a call: interface dispatch, a bound struct field, a bound local closure,
// rt.Post of a bound field, a spawn-forwarding wrapper two levels deep,
// and a Set/Register registration. Without that resolution the writer is
// uncalled API surface, or inline code ordered before the spawn, and the
// pair is clean. Each has a clean twin that a lock or a join orders. A
// parallel.Hooks callback races a plain goroutine either way; its twin is
// clean only because the Hooks edge runs the callback under ⟨serialized⟩.
// Two calls must not resolve at all: io.Closer.Close, a standard-library
// interface, and a method call on a type parameter. Their writes race
// the reads after the spawn, and both stay silent.
package main

import (
	"io"
	"sync"

	"golapi/internal/exec"
	"golapi/internal/parallel"
)

func main() {
	rt := exec.NewRealRuntime()
	dispatch(bumpA{})
	dispatch(bumpB{})
	dispatchJoined(joinA{})
	dispatchJoined(joinB{})
	closeAsync(file{})
	closeGeneric(sock{})
	boundField()
	boundFieldLocked()
	boundClosure()
	boundClosureJoined()
	postBound(rt)
	postBoundLocked(rt)
	_ = hooks()
	_ = hooksSerialized(rt)
	forwarded(rt)
	forwardedLocked(rt)
	register(&registry{})
	registerLocked(&registry{})
}

// --- interface dispatch ------------------------------------------------------

type bumper interface{ bump() }

type bumpA struct{}
type bumpB struct{}

var hitsA, hitsB int

func (bumpA) bump() { hitsA++ } // want `possible data race on hitsA`
func (bumpB) bump() { hitsB++ } // want `possible data race on hitsB`

// dispatch: the goroutine reaches both writes only through bumper.bump,
// which resolves to every module implementation.
func dispatch(b bumper) {
	go func() { b.bump() }()
	_ = hitsA
	_ = hitsB
}

type joiner interface{ tally() }

type joinA struct{}
type joinB struct{}

var joinedA, joinedB int

func (joinA) tally() { joinedA++ }
func (joinB) tally() { joinedB++ }

// dispatchJoined: the same dispatch, joined before the reads.
func dispatchJoined(j joiner) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		j.tally()
	}()
	wg.Wait()
	_ = joinedA
	_ = joinedB
}

// --- calls that must not resolve --------------------------------------------

type file struct{}

var closes int

func (file) Close() error { closes++; return nil }

// closeAsync: io.Closer is a standard-library interface, so c.Close does
// not resolve to file.Close, and its write is never paired.
func closeAsync(c io.Closer) {
	go func() { _ = c.Close() }()
	_ = closes
}

type sock struct{}

var sockCloses int

func (sock) Close() error { sockCloses++; return nil }

// closeGeneric: a method call on a type parameter does not resolve to the
// module types that satisfy its constraint.
func closeGeneric[T interface{ Close() error }](c T) {
	go func() { _ = c.Close() }()
	_ = sockCloses
}

// --- bound struct field ------------------------------------------------------

type worker struct{ run func() }

var fieldHits int

func fieldWork() { fieldHits++ } // want `possible data race on fieldHits`

// boundField: the goroutine reaches fieldWork only through the run field
// it was stored into.
func boundField() {
	w := &worker{}
	w.run = fieldWork
	go func() { w.run() }()
	_ = fieldHits
}

type lockedWorker struct{ run func() }

var (
	workMu      sync.Mutex
	lockedField int
)

func lockedWork() {
	workMu.Lock()
	lockedField++
	workMu.Unlock()
}

// boundFieldLocked: the same binding, with both sides under workMu.
func boundFieldLocked() {
	w := &lockedWorker{}
	w.run = lockedWork
	go func() { w.run() }()
	workMu.Lock()
	_ = lockedField
	workMu.Unlock()
}

// --- bound local closure -----------------------------------------------------

var closureHits int

// boundClosure: kernel is a closure variable; the goroutine that calls it
// runs the literal, which is therefore a unit of its own and not code of
// boundClosure before the spawn.
func boundClosure() {
	kernel := func() { closureHits++ } // want `possible data race on closureHits`
	go func() { kernel() }()
	_ = closureHits
}

var joinedClosure int

// boundClosureJoined: the same closure, joined by a done channel.
func boundClosureJoined() {
	kernel := func() { joinedClosure++ }
	done := make(chan struct{})
	go func() {
		kernel()
		close(done)
	}()
	<-done
	_ = joinedClosure
}

// --- rt.Post of a bound field ------------------------------------------------

type poster struct{ cb func() }

var postHits int

func postWork() { postHits++ } // want `possible data race on postHits`

// postBound: the posted function is the value stored into the cb field.
func postBound(rt *exec.RealRuntime) {
	p := &poster{cb: postWork}
	go func() { _ = postHits }()
	rt.Post(p.cb)
}

type lockedPoster struct{ cb func() }

var (
	postMu      sync.Mutex
	lockedPosts int
)

func lockedPostWork() {
	postMu.Lock()
	lockedPosts++
	postMu.Unlock()
}

// postBoundLocked: the same post, with both sides under postMu.
func postBoundLocked(rt *exec.RealRuntime) {
	p := &lockedPoster{cb: lockedPostWork}
	go func() {
		postMu.Lock()
		_ = lockedPosts
		postMu.Unlock()
	}()
	rt.Post(p.cb)
}

// --- parallel.Hooks callback -------------------------------------------------

var hookHits int

// hooks: the Barrier callback holds ⟨serialized⟩; the plain goroutine
// holds nothing.
func hooks() parallel.Hooks {
	go func() { _ = hookHits }()
	return parallel.Hooks{Barrier: func() { hookHits++ }} // want `possible data race on hookHits`
}

var serialHooks int

// hooksSerialized: the reader runs on the serialization domain too, so it
// shares ⟨serialized⟩ with the Barrier callback.
func hooksSerialized(rt *exec.RealRuntime) parallel.Hooks {
	rt.Post(func() { _ = serialHooks })
	return parallel.Hooks{Barrier: func() { serialHooks++ }}
}

// --- spawn forwarding, two levels --------------------------------------------

// launch hands its body to the runtime.
func launch(rt *exec.RealRuntime, body func(exec.Context)) { rt.Go("w", body) }

// launchVia forwards its body to launch.
func launchVia(rt *exec.RealRuntime, body func(exec.Context)) { launch(rt, body) }

var fwdHits int

// forwarded: the literal runs as a runtime activity through launchVia and
// launch, not as code of forwarded before the spawn.
func forwarded(rt *exec.RealRuntime) {
	launchVia(rt, func(ctx exec.Context) { fwdHits++ }) // want `possible data race on fwdHits`
	go func() { _ = fwdHits }()
}

var (
	fwdMu     sync.Mutex
	lockedFwd int
)

// forwardedLocked: the same activity, with both sides under fwdMu.
func forwardedLocked(rt *exec.RealRuntime) {
	launchVia(rt, func(ctx exec.Context) {
		fwdMu.Lock()
		lockedFwd++
		fwdMu.Unlock()
	})
	go func() {
		fwdMu.Lock()
		_ = lockedFwd
		fwdMu.Unlock()
	}()
}

// --- registration ------------------------------------------------------------

type registry struct{ fn func() }

// SetHandler stores a callback, which runs later on the owner's domain.
func (r *registry) SetHandler(fn func()) { r.fn = fn }

// RegisterHook is the Register spelling of the same surface.
func (r *registry) RegisterHook(fn func()) { r.fn = fn }

var regHits, hookRegs int

// register: each registered literal is a class of its own, not code of
// register before the spawn.
func register(r *registry) {
	r.SetHandler(func() { regHits++ })    // want `possible data race on regHits`
	r.RegisterHook(func() { hookRegs++ }) // want `possible data race on hookRegs`
	go func() {
		_ = regHits
		_ = hookRegs
	}()
}

var (
	regMu               sync.Mutex
	lockedReg, lockedRH int
)

// registerLocked: the same registrations, with every side under regMu.
func registerLocked(r *registry) {
	r.SetHandler(func() {
		regMu.Lock()
		lockedReg++
		regMu.Unlock()
	})
	r.RegisterHook(func() {
		regMu.Lock()
		lockedRH++
		regMu.Unlock()
	})
	go func() {
		regMu.Lock()
		_ = lockedReg
		_ = lockedRH
		regMu.Unlock()
	}()
}
