//go:build !race

// Race-detector builds are excluded: instrumentation changes allocation
// counts.

package progress_test

import (
	"testing"
	"time"

	"golapi/internal/progress"
	"golapi/internal/sim"
)

// TestSteadyStateProgressDoesNotAllocate pins the receive path at zero
// allocations once the queue's backing array has grown: a burst of
// arrivals, the dispatcher's wakeup and interrupt, and the drain that
// hands every packet to the library.
func TestSteadyStateProgressDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	tk := newTask(eng, progress.Interrupt)
	pkts := [][]byte{{1}, {2}, {3}}
	stop := false
	eng.Go("feeder", func(p *sim.Proc) {
		for !stop {
			tk.tr.arrive(1, pkts...)
			tk.got = tk.got[:0]
			p.Sleep(sim.Duration(time.Millisecond))
		}
		tk.Close()
	})
	var deadline sim.Time
	window := func() {
		deadline += sim.Time(10 * time.Millisecond)
		eng.RunUntil(deadline)
	}
	window() // grow the queue, the waiter lists and the stacks once
	if avg := testing.AllocsPerRun(100, window); avg != 0 {
		t.Errorf("%.2f allocs per 10-burst window of deliver and drain, want 0", avg)
	}
	if tk.tr.released < 3000 {
		t.Errorf("released %d packets, want every burst drained", tk.tr.released)
	}
	stop = true
	run(t, eng)
}
