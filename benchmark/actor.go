package main

import "golapi/internal/exec"

// An actor is a long-lived activity on one rank's real runtime that runs
// the functions the harness hands it. LAPI and GA calls need an
// exec.Context and must run serialized on their rank; the harness itself
// is an ordinary goroutine, so it posts each measured window to the
// rank's actor and waits for it to finish. Between jobs the actor parks on
// its condition, which releases the runtime lock for the dispatcher.
type actor struct {
	rt      *exec.RealRuntime
	stopped chan struct{} // closed when the activity has returned

	// serialized on rt:
	cond exec.Cond
	jobs []actorJob
	quit bool
}

type actorJob struct {
	fn   func(exec.Context)
	done chan struct{}
}

func startActor(rt *exec.RealRuntime, name string) *actor {
	a := &actor{rt: rt, cond: rt.NewCond(), stopped: make(chan struct{})}
	rt.Go(name, a.loop)
	return a
}

func (a *actor) loop(ctx exec.Context) {
	defer close(a.stopped)
	for {
		for len(a.jobs) == 0 && !a.quit {
			ctx.Wait(a.cond)
		}
		if len(a.jobs) == 0 {
			return
		}
		j := a.jobs[0]
		a.jobs = a.jobs[1:]
		j.fn(ctx)
		close(j.done)
	}
}

// do runs fn on the actor's activity and returns when it has finished.
func (a *actor) do(fn func(exec.Context)) {
	j := actorJob{fn: fn, done: make(chan struct{})}
	a.rt.Post(func() {
		a.jobs = append(a.jobs, j)
		a.cond.Broadcast()
	})
	<-j.done
}

// stop lets the activity return once its queue is empty, and waits for it.
func (a *actor) stop() {
	a.rt.Post(func() {
		a.quit = true
		a.cond.Broadcast()
	})
	<-a.stopped
}

// ranked is one rank's result of a collective call.
type ranked[T any] struct {
	rank int
	v    T
}

// doAll runs fn(rank, ctx) on every actor at once and returns the results
// by rank: the shape of a collective call (AddressInit, Gfence, GA
// Create). Results travel over a channel, never through shared variables.
func doAll[T any](actors []*actor, fn func(rank int, ctx exec.Context) T) []T {
	results := make(chan ranked[T], len(actors))
	for i, a := range actors {
		i, a := i, a
		go a.do(func(ctx exec.Context) { results <- ranked[T]{i, fn(i, ctx)} })
	}
	out := make([]T, len(actors))
	for range actors {
		r := <-results
		out[r.rank] = r.v
	}
	return out
}
