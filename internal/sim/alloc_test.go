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
