//go:build !race

// Race-detector builds are excluded: instrumentation changes allocation
// counts.

package sim

import "testing"

// Process switching is the simulator's inner loop — one park per Sleep,
// Wait and Waitcntr of every simulated task — so it is pinned at zero
// allocations: two processes handing off through conditions (park, hub,
// resume, and a Broadcast that reuses its waiter list), a third sleeping
// through callback events (the self-wake path), all advanced by RunUntil.
func TestProcessSwitchingDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	conds := [2]*Cond{NewCond(e), NewCond(e)}
	turn, stop := 0, false
	for id := 0; id < 2; id++ {
		id := id
		e.Go("pingpong", func(p *Proc) {
			for !stop {
				for turn != id && !stop {
					p.WaitCond(conds[id])
				}
				p.Sleep(1)
				turn = 1 - id
				conds[1-id].Broadcast()
			}
		})
	}
	fn := func() {}
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			e.Schedule(1, fn)
			p.Sleep(2)
		}
	})
	var deadline Time
	window := func() {
		deadline += 100
		e.RunUntil(deadline)
	}
	window() // grow the queue, the waiter lists and the stacks once
	if avg := testing.AllocsPerRun(100, window); avg != 0 {
		t.Errorf("%.2f allocs per 100-tick window of process switching, want 0", avg)
	}
	stop = true
	conds[0].Broadcast()
	conds[1].Broadcast()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// spawnAllocBudget bounds one spawn of a process that runs to completion:
// 14 while every process built its own coroutine (goroutine, iter.Pull
// pair, closures, exit condition), 1 — the Proc handle, which is never
// reused — since Go hands it a finished process's idle coroutine.
const spawnAllocBudget = 1.0

func TestSpawnAllocBudget(t *testing.T) {
	e := NewEngine()
	child := func(*Proc) {}
	spawn := func() {
		e.Go("child", child)
		e.Schedule(2, func() {}) // keep an event pending: the idle coroutine stays
		e.RunUntil(e.Now() + 1)
	}
	spawn() // grow the queue and the process list, leave a coroutine idle
	avg := testing.AllocsPerRun(100, spawn)
	if avg > spawnAllocBudget {
		t.Errorf("%.2f allocs per spawn of a short process, budget %.0f", avg, spawnAllocBudget)
	}
	t.Logf("%.2f allocs per spawn of a short process (budget %.0f)", avg, spawnAllocBudget)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
