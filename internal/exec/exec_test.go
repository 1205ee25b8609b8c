package exec

import (
	"testing"
	"time"

	"golapi/internal/sim"
)

// runtimeContract exercises behaviour both implementations must share.
func runtimeContract(t *testing.T, rt Runtime, run func()) {
	t.Helper()

	var order []string
	done := rt.NewCond()
	finished := 0

	rt.After(0, func() { order = append(order, "after0") })
	rt.Go("sleeper", func(ctx Context) {
		ctx.Sleep(2 * time.Millisecond)
		order = append(order, "sleeper")
		finished++
		done.Broadcast()
	})
	rt.Go("waiter", func(ctx Context) {
		for finished < 1 {
			ctx.Wait(done)
		}
		order = append(order, "waiter")
		finished++
		done.Broadcast()
	})

	run()

	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 entries", order)
	}
	if order[0] != "after0" || order[1] != "sleeper" || order[2] != "waiter" {
		t.Fatalf("order = %v", order)
	}
}

func TestSimRuntimeContract(t *testing.T) {
	eng := sim.NewEngine()
	rt := NewSimRuntime(eng)
	runtimeContract(t, rt, func() {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRealRuntimeContract(t *testing.T) {
	rt := NewRealRuntime()
	runtimeContract(t, rt, rt.Drain)
}

func TestSimRuntimeVirtualTime(t *testing.T) {
	eng := sim.NewEngine()
	rt := NewSimRuntime(eng)
	var at time.Duration
	rt.Go("p", func(ctx Context) {
		ctx.Sleep(time.Hour) // virtual: must complete instantly in wall time
		at = ctx.Now()
	})
	start := time.Now()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != time.Hour {
		t.Fatalf("virtual now = %v, want 1h", at)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("virtual hour took %v wall time", wall)
	}
}

func TestRealRuntimeSerialization(t *testing.T) {
	// Activities must never run concurrently (Sleep is a legitimate yield
	// point, so we check mutual exclusion between yields, not atomicity
	// across them). Run with -race to also catch unsynchronized access.
	rt := NewRealRuntime()
	const n = 50
	inside := 0
	violations := 0
	for i := 0; i < n; i++ {
		rt.Go("crit", func(ctx Context) {
			inside++
			if inside != 1 {
				violations++
			}
			// Busy section without yields: no other activity may enter.
			for j := 0; j < 100; j++ {
				if inside != 1 {
					violations++
				}
			}
			inside--
			ctx.Sleep(time.Microsecond)
		})
	}
	rt.Drain()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
}

func TestRealRuntimePost(t *testing.T) {
	rt := NewRealRuntime()
	got := 0
	rt.Post(func() { got = 7 })
	if got != 7 {
		t.Fatal("Post did not run synchronously")
	}
}

func TestSimContextFromProc(t *testing.T) {
	eng := sim.NewEngine()
	var now time.Duration
	eng.Go("raw", func(p *sim.Proc) {
		ctx := SimContext(p)
		ctx.Sleep(5 * time.Microsecond)
		now = ctx.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if now != 5*time.Microsecond {
		t.Fatalf("now = %v", now)
	}
}

func TestRealRuntimeDo(t *testing.T) {
	// Do runs on the caller's goroutine and returns when fn does; its
	// Wait releases the lock so an activity spawned from inside can run.
	rt := NewRealRuntime()
	ready := rt.NewCond()
	state := 0
	rt.Do(func(ctx Context) {
		rt.Go("peer", func(Context) {
			state = 1
			ready.Broadcast()
		})
		for state == 0 {
			ctx.Wait(ready)
		}
		state = 2
	})
	if state != 2 {
		t.Fatalf("state = %d after Do, want 2", state)
	}
	rt.Drain()
}
