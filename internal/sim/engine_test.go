package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != Time(30*time.Microsecond) {
		t.Fatalf("Now = %v, want 30µs", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Microsecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(time.Microsecond, func() {
		fired = append(fired, e.Now())
		e.Schedule(2*time.Microsecond, func() {
			fired = append(fired, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(time.Microsecond) || fired[1] != Time(3*time.Microsecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5*time.Microsecond, func() {
		e.Schedule(-time.Second, func() { ran = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != Time(5*time.Microsecond) {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * time.Microsecond)
		trace = append(trace, "a1")
		p.Sleep(20 * time.Microsecond)
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * time.Microsecond)
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ready := false
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			for !ready {
				p.WaitCond(c)
			}
			woke = append(woke, name)
		})
	}
	e.Go("signaller", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		ready = true
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke = %v, want 3 waiters", woke)
	}
}

func TestSpuriousWakeupRequiresPredicateLoop(t *testing.T) {
	// A broadcast with a false predicate must leave waiters parked (they
	// re-check and wait again) — this is the sync.Cond contract.
	e := NewEngine()
	c := NewCond(e)
	ready := false
	reached := false
	e.Go("waiter", func(p *Proc) {
		for !ready {
			p.WaitCond(c)
		}
		reached = true
	})
	e.Go("noise", func(p *Proc) {
		p.Sleep(time.Microsecond)
		c.Broadcast() // predicate still false
		p.Sleep(time.Microsecond)
		ready = true
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatal("waiter never released")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("stuck", func(p *Proc) {
		p.WaitCond(c) // nobody will broadcast
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

func TestJoin(t *testing.T) {
	e := NewEngine()
	var got Time
	child := e.Go("child", func(p *Proc) {
		p.Sleep(100 * time.Microsecond)
	})
	e.Go("parent", func(p *Proc) {
		p.Join(child)
		got = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != Time(100*time.Microsecond) {
		t.Fatalf("joined at %v, want 100µs", got)
	}
}

func TestJoinFinishedProc(t *testing.T) {
	e := NewEngine()
	child := e.Go("child", func(p *Proc) {})
	ok := false
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond) // child long gone
		p.Join(child)
		ok = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("join on finished proc blocked")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(10*time.Microsecond, func() { fired = append(fired, 1) })
	e.Schedule(30*time.Microsecond, func() { fired = append(fired, 2) })
	remaining := e.RunUntil(Time(20 * time.Microsecond))
	if !remaining {
		t.Fatal("expected events remaining")
	}
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != Time(20*time.Microsecond) {
		t.Fatalf("Now = %v", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestManyProcsDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for i := 0; i < 20; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(i+1) * time.Microsecond)
					trace = append(trace, string(rune('a'+i)))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.ScheduleAt(Time(30*time.Microsecond), func() { fired = append(fired, 3) })
	e.ScheduleAt(Time(10*time.Microsecond), func() { fired = append(fired, 1) })
	// Same-instant imports fire in schedule order.
	e.ScheduleAt(Time(10*time.Microsecond), func() { fired = append(fired, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestScheduleAtNowRunsThisInstant(t *testing.T) {
	e := NewEngine()
	var fired bool
	e.Schedule(10*time.Microsecond, func() {
		e.ScheduleAt(e.Now(), func() { fired = true })
	})
	e.RunUntil(Time(10 * time.Microsecond))
	if !fired {
		t.Fatal("ScheduleAt(Now) did not fire within the same instant")
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*time.Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(Time(5*time.Microsecond), func() {})
}

func TestNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("empty engine reported a pending event")
	}
	e.Schedule(30*time.Microsecond, func() {})
	e.Schedule(10*time.Microsecond, func() {})
	at, ok := e.NextAt()
	if !ok || at != Time(10*time.Microsecond) {
		t.Fatalf("NextAt = %v, %v", at, ok)
	}
	// A same-instant (due FIFO) event must win over the timer heap.
	e.RunUntil(Time(5 * time.Microsecond))
	e.ScheduleAt(e.Now(), func() {})
	at, ok = e.NextAt()
	if !ok || at != Time(5*time.Microsecond) {
		t.Fatalf("NextAt with due event = %v, %v", at, ok)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("drained engine reported a pending event")
	}
}

// logHandler is a Handler that appends its id to a shared log.
type logHandler struct {
	id  int
	log *[]int
}

func (h *logHandler) Fire() { *h.log = append(*h.log, h.id) }

// TestHandlerEventsInterleaveWithCallbacks: handlers and closures share one
// (at, seq) order, on the timer heap and in the due FIFO alike.
func TestHandlerEventsInterleaveWithCallbacks(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleHandlerAt(10, &logHandler{1, &order})
	e.ScheduleAt(10, func() {
		order = append(order, 2)
		e.ScheduleHandlerAt(10, &logHandler{4, &order})
	})
	e.ScheduleHandlerAt(10, &logHandler{3, &order})
	e.ScheduleHandlerAt(5, &logHandler{0, &order})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleReservedKeepsKey: an event queued late under a reserved seq
// fires exactly where it would have had it been scheduled at reservation
// time — including at the current instant, ahead of due-FIFO events
// scheduled after the reservation.
func TestScheduleReservedKeepsKey(t *testing.T) {
	e := NewEngine()
	var order []int
	var r1, r2 uint64
	e.ScheduleAt(10, func() {
		order = append(order, 1)
		e.Schedule(0, func() { order = append(order, 4) })
		e.ScheduleReserved(10, r1, &logHandler{2, &order})
	})
	r1 = e.ReserveSeq()
	e.ScheduleAt(10, func() { order = append(order, 3) })
	r2 = e.ReserveSeq()
	e.ScheduleAt(20, func() { order = append(order, 6) })
	e.ScheduleAt(15, func() { e.ScheduleReserved(20, r2, &logHandler{5, &order}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
}
