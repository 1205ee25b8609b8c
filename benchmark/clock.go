package main

// Every wall-clock read of the harness lives in this file. The package
// imports internal/exec (it drives activities on real runtimes), which
// puts it in simdeterminism's scope; the harness measures the system
// from outside in real time, so each read is a justified exception.

import (
	"runtime"
	"syscall"
	"time"
)

// now reads the wall clock.
func now() time.Time {
	return time.Now() //lapivet:ignore simdeterminism the harness times real runs from outside; nothing here executes under the simulated clock
}

// since is time.Since through now, so there is a single clock source.
func since(t time.Time) time.Duration { return now().Sub(t) }

// timeout returns a channel that fires after d of real time.
func timeout(d time.Duration) <-chan time.Time {
	return time.After(d) //lapivet:ignore simdeterminism bounds waits on a child process and on real sockets
}

// pacerOvershoot is how much later than asked a precise sleep returns here
// (timer expiry to running again on a virtual CPU): sleeps are shortened by
// it and the remainder is spun.
const pacerOvershoot = 20 * time.Microsecond

// lockPacer pins the calling goroutine to its thread and tightens that
// thread's timer slack to 1 µs, so sleepPrecise wakes within tens of
// microseconds. time.Sleep cannot pace an open loop: below a millisecond
// the runtime rounds a parked thread's wait up to 1 ms (measured here:
// time.Sleep(30 µs) returns after 1.1 ms; nanosleep after 98 µs at the
// default 50 µs slack, 51 µs at 1 µs slack). Spinning instead would cost
// one of this host's two cores — half the server's capacity.
func lockPacer() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort: on failure sleeps are just coarser
}

func unlockPacer() { runtime.UnlockOSThread() }

// sleepPrecise blocks the calling thread (not just the goroutine) for d.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil) // an early return on a signal only makes the caller look again sooner
}
