package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// The scheduler's contract, checked from outside: the order in which events
// fire does not depend on who pops the queue (one Run, or RunUntil windows
// driven from changing goroutines), a window's deadline holds on every
// stack, and nothing is left suspended behind a deadlock or a panic.

// script is a seeded random program: processes that sleep (zero and
// positive, on a coarse grid so same-instant ties are the norm), wait on
// and broadcast conditions, push to and pop from queues, join earlier
// processes, and schedule callback events that in turn broadcast, push and
// spawn more processes. Every step is logged with the virtual time it ran
// at; the log is the program's observable behaviour.
type script struct {
	e      *Engine
	log    []string
	conds  []*Cond
	queues []*Queue
	procs  []*Proc // by id, in spawn order
	live   int
	budget int // processes that may still be spawned
}

func (s *script) logf(format string, args ...interface{}) {
	s.log = append(s.log, fmt.Sprintf("%d ", s.e.Now())+fmt.Sprintf(format, args...))
}

// spawn starts process number len(s.procs) running steps random steps, its
// choices drawn from a stream of its own so that they depend on the seed
// and its id alone.
func (s *script) spawn(seed int64, steps int) {
	id := len(s.procs)
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	s.live++
	s.procs = append(s.procs, s.e.Go(fmt.Sprintf("p%d", id), func(p *Proc) {
		defer func() { s.live-- }()
		for i := 0; i < steps; i++ {
			s.step(p, id, seed, rng)
		}
		s.logf("p%d done", id)
	}))
}

func (s *script) step(p *Proc, id int, seed int64, rng *rand.Rand) {
	switch k := rng.Intn(10); k {
	case 0:
		s.logf("p%d sleep 0", id)
		p.Sleep(0)
	case 1, 2:
		d := Duration(1 + rng.Intn(4))
		s.logf("p%d sleep %d", id, d)
		p.Sleep(d)
	case 3:
		c := rng.Intn(len(s.conds))
		s.logf("p%d wait c%d", id, c)
		p.WaitCond(s.conds[c])
	case 4:
		c := rng.Intn(len(s.conds))
		s.logf("p%d broadcast c%d", id, c)
		s.conds[c].Broadcast()
	case 5:
		q := rng.Intn(len(s.queues))
		s.logf("p%d push q%d", id, q)
		s.queues[q].Push(id)
	case 6:
		q := rng.Intn(len(s.queues))
		v, ok := s.queues[q].Pop(p)
		s.logf("p%d pop q%d = %v %v", id, q, v, ok)
	case 7:
		if id > 0 { // only ever an earlier process: no join cycles
			j := rng.Intn(id)
			s.logf("p%d join p%d", id, j)
			p.Join(s.procs[j])
		}
	case 8:
		if s.budget > 0 {
			s.budget--
			s.logf("p%d spawns p%d", id, len(s.procs))
			s.spawn(seed, 1+rng.Intn(6))
		}
	case 9:
		d := Duration(rng.Intn(4)) // zero delay too: the due FIFO
		what, arg := rng.Intn(3), rng.Intn(2)
		s.logf("p%d schedules +%d", id, d)
		s.e.Schedule(d, func() {
			s.logf("callback of p%d kind %d", id, what)
			switch what {
			case 0:
				s.conds[arg].Broadcast()
			case 1:
				s.queues[arg].Push(-id)
			case 2:
				if s.budget > 0 {
					s.budget--
					s.spawn(seed, 1+arg*3)
				}
			}
		})
	}
}

// newScript builds the program for seed on a fresh engine. With rescue, a
// callback chain keeps broadcasting every condition and feeding every
// queue for as long as any process is unfinished, so the program runs to
// completion; without it most seeds end in a deadlock, which is then part
// of what must not differ.
func newScript(seed int64, rescue bool) *script {
	s := &script{e: NewEngine(), budget: 12}
	for i := 0; i < 2; i++ {
		s.conds = append(s.conds, NewCond(s.e))
		s.queues = append(s.queues, NewQueue(s.e))
	}
	for i := 0; i < 5; i++ {
		s.spawn(seed, 20)
	}
	if rescue {
		var tick func()
		tick = func() {
			if s.live == 0 {
				return
			}
			for i := range s.conds {
				s.conds[i].Broadcast()
				s.queues[i].Push("rescue")
			}
			s.e.Schedule(3, tick)
		}
		s.e.Schedule(3, tick)
	}
	return s
}

// verdict renders what Run returned, for comparison.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func TestDispatchOrderIsIndependentOfTheDriver(t *testing.T) {
	deadlocks := 0
	for seed := int64(1); seed <= 60; seed++ {
		rescue := seed%3 != 0
		one := newScript(seed, rescue)
		oneVerdict := verdict(one.e.Run())

		// The sharded executor's access pattern: the engine is advanced in
		// windows, each on a different goroutine from the last (zero-width
		// windows and windows that end between events included).
		win := newScript(seed, rescue)
		widths := rand.New(rand.NewSource(-seed))
		var deadline Time
		for remaining := true; remaining; {
			deadline += Time(widths.Intn(6))
			done := make(chan bool)
			go func() { done <- win.e.RunUntil(deadline) }()
			remaining = <-done
		}
		winVerdict := verdict(win.e.Run())

		if oneVerdict != winVerdict {
			t.Fatalf("seed %d: Run ended %q, windowed run %q", seed, oneVerdict, winVerdict)
		}
		if len(one.log) != len(win.log) {
			t.Fatalf("seed %d: Run logged %d steps, windowed run %d", seed, len(one.log), len(win.log))
		}
		for i := range one.log {
			if one.log[i] != win.log[i] {
				t.Fatalf("seed %d: step %d differs: Run %q, windowed run %q", seed, i, one.log[i], win.log[i])
			}
		}
		if rescue && (oneVerdict != "ok" || len(one.log) < 100) {
			t.Errorf("seed %d: a rescued program ended %q after %d steps; it should run to completion", seed, oneVerdict, len(one.log))
		}
		if oneVerdict != "ok" {
			deadlocks++
		}
	}
	if deadlocks == 0 {
		t.Error("no seed deadlocked: the unrescued programs no longer cover a deadlock's verdict and unwinding")
	}
}

// A process that parks just inside a window runs the event loop itself; it
// must stop at the window's deadline like the hub does, not fire the event
// one tick past it because it happens to be holding the queue.
func TestParkedProcessHonoursDeadline(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Schedule(11, func() { log = append(log, "callback@11") })
	e.Go("p", func(p *Proc) {
		p.Sleep(9)
		log = append(log, fmt.Sprintf("woke@%d", p.Now()))
		p.Sleep(5)
		log = append(log, fmt.Sprintf("woke@%d", p.Now()))
	})
	if !e.RunUntil(10) {
		t.Fatal("RunUntil(10) reported an empty queue")
	}
	if got := strings.Join(log, " "); got != "woke@9" {
		t.Fatalf("after RunUntil(10): %q, want only the wake-up at 9", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d after RunUntil(10)", e.Now())
	}
	e.RunUntil(11)
	if got := strings.Join(log, " "); got != "woke@9 callback@11" {
		t.Fatalf("after RunUntil(11): %q", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); got != "woke@9 callback@11 woke@14" {
		t.Fatalf("after Run: %q", got)
	}
}

func TestDeadlockLeavesNothingSuspended(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	never := NewCond(e)
	var unwound, lateRan bool
	e.Go("stuck-a", func(p *Proc) {
		defer func() {
			unwound = true
			// What a deferred call does while its process is unwound must
			// not bring the simulation back to life.
			e.Go("late", func(*Proc) { lateRan = true })
			p.Sleep(1)
			t.Error("Sleep returned in a process that is being unwound")
		}()
		p.Sleep(5)
		p.WaitCond(never)
		t.Error("stuck-a was resumed")
	})
	e.Go("stuck-b", func(p *Proc) {
		NewQueue(e).Pop(p)
		t.Error("stuck-b was resumed")
	})
	e.Go("fine", func(p *Proc) { p.Sleep(3) })

	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want a DeadlockError", err)
	}
	if got := strings.Join(de.Parked, ","); got != "stuck-a,stuck-b" {
		t.Fatalf("parked = %q", got)
	}
	if !unwound {
		t.Error("the deferred call of a deadlocked process did not run")
	}
	if lateRan {
		t.Error("a process spawned during unwinding ran")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the deadlocked Run, %d after", before, after)
	}
}

func TestProcessPanicSurfacesOnRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.WaitCond(NewCond(e)) })
	e.Go("culprit", func(p *Proc) {
		p.Sleep(2)
		panic("boom")
	})
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, `"culprit"`) || !strings.Contains(msg, "boom") {
				t.Errorf("recovered %q, want the process name and its panic value", msg)
			}
		}()
		e.Run()
		t.Error("Run returned after a process panicked")
	}()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the panicking Run, %d after", before, after)
	}
}

// A callback that panics while a parked process is running the event loop
// is the callback's fault: the value arrives as it was thrown, without the
// name of the process whose stack it crossed.
func TestCallbackPanicIsNotBlamedOnTheParkedProcess(t *testing.T) {
	e := NewEngine()
	e.Go("innocent", func(p *Proc) {
		e.Schedule(1, func() { panic("callback broke") })
		p.Sleep(2)
	})
	defer func() {
		if r := recover(); r != "callback broke" {
			t.Errorf("recovered %v, want the callback's own value", r)
		}
	}()
	e.Run()
	t.Error("Run returned after a callback panicked")
}

// DueBy against a brute-force count, over random queues, deadlines and
// limits: a heap with heavy ties, partly drained so its shape is not the
// insertion shape, with and without same-instant entries in the due FIFO.
func TestDueByMatchesBruteForce(t *testing.T) {
	if got := NewEngine().DueBy(100, 10); got != 0 {
		t.Fatalf("empty engine: DueBy = %d", got)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		e := NewEngine()
		var at []Time // timestamps of the pending events
		for i, n := 0, rng.Intn(200); i < n; i++ {
			d := Time(1 + rng.Intn(40))
			e.ScheduleAt(d, func() {})
			at = append(at, d)
		}
		if rng.Intn(2) == 0 { // drain a prefix
			cut := Time(rng.Intn(30))
			e.RunUntil(cut)
			kept := at[:0]
			for _, a := range at {
				if a > cut {
					kept = append(kept, a)
				}
			}
			at = kept
		}
		dueOnly := round%10 == 0
		if dueOnly {
			e.RunUntil(50)
			at = at[:0]
		}
		for i, n := 0, rng.Intn(4); i < n; i++ { // the due FIFO
			e.ScheduleAt(e.Now(), func() {})
			at = append(at, e.Now())
		}
		for probe := 0; probe < 20; probe++ {
			deadline := e.Now() - 2 + Time(rng.Intn(45))
			limit := rng.Intn(70)
			want := 0
			for _, a := range at {
				if a <= deadline {
					want++
				}
			}
			if want > limit {
				want = limit
			}
			if got := e.DueBy(deadline, limit); got != want {
				t.Fatalf("round %d: %d pending (now %d, due-only %v): DueBy(%d, %d) = %d, want %d",
					round, len(at), e.Now(), dueOnly, deadline, limit, got, want)
			}
		}
		if e.pending() != len(at) {
			t.Fatalf("round %d: DueBy disturbed the queue: %d pending, want %d", round, e.pending(), len(at))
		}
	}
}
