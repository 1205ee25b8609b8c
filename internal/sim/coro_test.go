package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The lifecycle of recycled coroutines: a finished process leaves its
// coroutine idle for the next Go, its handle stays valid, a panic or an
// unwind takes the coroutine with it, and no idle coroutine outlives the
// engine's work.

// settledGoroutines returns runtime.NumGoroutine() once it has stopped
// falling, the baseline of a goroutine-count check: a goroutine an earlier
// test started may still be ending when this one begins, and counting it
// would make the baseline one too high. The count must hold for ten polls
// a millisecond apart; the test fails if it is still falling after a
// second.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	n, held := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m < n {
			held = 0
		} else if held++; held == 10 {
			return m
		}
		n = m
	}
	t.Fatalf("goroutine count still falling after 1s: %d", n)
	return 0
}

// finishOne spawns a process that returns at once and runs the engine to
// now+1, leaving its coroutine idle behind a pending event at now+2.
func finishOne(t *testing.T, e *Engine) *Proc {
	t.Helper()
	p := e.Go("short", func(*Proc) {})
	e.Schedule(2, func() {})
	e.RunUntil(e.Now() + 1)
	if !p.done || len(e.idle) == 0 {
		t.Fatalf("after a process finished: done=%v, %d idle coroutines", p.done, len(e.idle))
	}
	return p
}

func TestJoinFinishedProcWhoseCoroutineRunsAnother(t *testing.T) {
	e := NewEngine()
	first := finishOne(t, e)
	release := NewCond(e)
	held := true
	second := e.Go("second", func(p *Proc) {
		for held {
			p.WaitCond(release)
		}
	})
	if second.co != first.co {
		t.Fatal("the second process did not get the first one's idle coroutine")
	}
	var log []string
	e.Go("joiner", func(p *Proc) {
		p.Join(first) // finished: returns at once
		log = append(log, fmt.Sprintf("joined %s@%d", first.Name(), p.Now()))
		p.Sleep(5)
		held = false
		release.Broadcast()
		p.Join(second)
		log = append(log, fmt.Sprintf("joined %s@%d", second.Name(), p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, " "); got != "joined short@1 joined second@6" {
		t.Fatalf("log %q", got)
	}
}

func TestPanicInRecycledCoroutineNamesTheProcess(t *testing.T) {
	before := settledGoroutines(t)
	e := NewEngine()
	first := finishOne(t, e)
	culprit := e.Go("culprit", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	if culprit.co != first.co {
		t.Fatal("the culprit did not get the finished process's idle coroutine")
	}
	e.Go("bystander", func(p *Proc) { p.WaitCond(NewCond(e)) })
	e.Go("short", func(*Proc) {}) // idle again when the culprit panics
	func() {
		defer func() {
			if got := fmt.Sprint(recover()); got != `sim: process "culprit" panicked: boom` {
				t.Errorf("recovered %q", got)
			}
		}()
		e.Run()
		t.Error("Run returned after a process panicked")
	}()
	if len(e.idle) != 0 {
		t.Errorf("%d idle coroutines left after the panic", len(e.idle))
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the panicking Run, %d after", before, after)
	}
}

func TestDeadlockUnwindsWithIdleCoroutines(t *testing.T) {
	before := settledGoroutines(t)
	e := NewEngine()
	never := NewCond(e)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("stuck-%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(10)
			p.WaitCond(never)
		})
	}
	for i := 0; i < 4; i++ {
		e.Go("short", func(p *Proc) { p.Sleep(Duration(i)) })
	}
	if !e.RunUntil(5) || len(e.idle) == 0 {
		t.Fatalf("after RunUntil(5): %d idle coroutines, want some behind the pending wake-ups", len(e.idle))
	}
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want a DeadlockError", err)
	}
	if got := strings.Join(de.Parked, ","); got != "stuck-0,stuck-1,stuck-2" {
		t.Fatalf("parked = %q", got)
	}
	if unwound != 3 {
		t.Errorf("%d deferred calls ran, want 3", unwound)
	}
	if len(e.idle) != 0 {
		t.Errorf("%d idle coroutines left after the deadlock", len(e.idle))
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the deadlocked Run, %d after", before, after)
	}
}

// A process handed an idle coroutine is stopped before its start event
// fires when a callback at the same instant panics: its function must
// never run, and the coroutine must go with it.
func TestProcessStoppedBeforeStartNeverRuns(t *testing.T) {
	before := settledGoroutines(t)
	e := NewEngine()
	first := finishOne(t, e)
	var never *Proc
	ran := false
	e.Schedule(0, func() {
		never = e.Go("never", func(*Proc) { ran = true })
		panic("callback broke")
	})
	func() {
		defer func() {
			if r := recover(); r != "callback broke" {
				t.Errorf("recovered %v, want the callback's own value", r)
			}
		}()
		e.Run()
		t.Error("Run returned after a callback panicked")
	}()
	if never == nil || never.co != first.co {
		t.Fatal("the late process did not get the finished process's idle coroutine")
	}
	if ran {
		t.Error("a process stopped before its start event ran")
	}
	if !never.done {
		t.Error("the stopped process is not marked done")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the panicking Run, %d after", before, after)
	}
}

// Many short processes over a few coroutines: Run leaves exactly the
// goroutines it found, and so does a RunUntil window that drains the
// queue, while one that leaves events pending may keep its idle ones.
func TestIdleCoroutinesEndWithTheWork(t *testing.T) {
	before := settledGoroutines(t)
	e := NewEngine()
	spawned := 0
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < 50; i++ {
			e.Go("child", func(c *Proc) { c.Sleep(Duration(i % 3)) })
			spawned++
			p.Sleep(1)
		}
	})
	if !e.RunUntil(20) {
		t.Fatal("RunUntil(20) drained the queue")
	}
	if len(e.idle) == 0 {
		t.Error("no idle coroutine kept across a window with events pending")
	}
	if e.RunUntil(1000) {
		t.Fatal("RunUntil(1000) left events pending")
	}
	if after := runtime.NumGoroutine(); after != before || len(e.idle) != 0 {
		t.Errorf("after the draining window: %d goroutines (%d before), %d idle coroutines", after, before, len(e.idle))
	}
	e.Go("again", func(p *Proc) { p.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
	if spawned != 50 {
		t.Fatalf("spawned %d", spawned)
	}
}
