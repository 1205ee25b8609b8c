package exec

import (
	"time"

	"golapi/internal/sim"
)

// SimRuntime adapts a sim.Engine to the Runtime interface. One engine backs
// the whole simulated cluster, so every task's activity is serialized by
// construction and timing is fully deterministic.
type SimRuntime struct {
	eng *sim.Engine
}

// NewSimRuntime returns a Runtime driven by eng.
func NewSimRuntime(eng *sim.Engine) *SimRuntime {
	return &SimRuntime{eng: eng}
}

// Engine returns the underlying simulation engine.
func (r *SimRuntime) Engine() *sim.Engine { return r.eng }

// Now implements Runtime.
func (r *SimRuntime) Now() time.Duration { return time.Duration(r.eng.Now()) }

// NewCond implements Runtime.
func (r *SimRuntime) NewCond() Cond { return &simCond{c: sim.NewCond(r.eng)} }

// After implements Runtime.
func (r *SimRuntime) After(d time.Duration, fn func()) { r.eng.Schedule(d, fn) }

// Go implements Runtime. The process is its own Context, so a spawn
// allocates only the closure that carries fn.
func (r *SimRuntime) Go(name string, fn func(Context)) {
	r.eng.Go(name, func(p *sim.Proc) { fn((*simContext)(p)) })
}

// Lend implements Runtime: a simulated activity needs a process of its own,
// so nothing runs and the caller takes its usual path.
func (r *SimRuntime) Lend(fn func(Context)) bool { return false }

type simCond struct {
	c *sim.Cond
}

func (c *simCond) Broadcast() { c.c.Broadcast() }

// simContext is a sim.Proc seen as a Context: the conversion allocates
// nothing.
type simContext sim.Proc

func (c *simContext) Now() time.Duration    { return time.Duration((*sim.Proc)(c).Now()) }
func (c *simContext) Sleep(d time.Duration) { (*sim.Proc)(c).Sleep(d) }
func (c *simContext) Wait(cond Cond)        { (*sim.Proc)(c).WaitCond(cond.(*simCond).c) }

// SimContext exposes a Context for an existing sim.Proc, for code that mixes
// raw engine processes with exec-based components (e.g. test drivers).
func SimContext(p *sim.Proc) Context { return (*simContext)(p) }
