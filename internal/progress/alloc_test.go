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
// hands every packet to the library; on a real runtime, the drain each
// arrival runs on the delivering goroutine.
func TestSteadyStateProgressDoesNotAllocate(t *testing.T) {
	t.Run("Sim", steadyStateSim)
	t.Run("RealLent", steadyStateRealLent)
}

func steadyStateRealLent(t *testing.T) {
	tk, rt := newRealTask(progress.Interrupt, 0)
	rt.parked()
	pkts := [][]byte{{1}, {2}, {3}}
	deliver := tk.tr.deliver
	reset := func() { tk.got = tk.got[:0] }
	burst := func() {
		for _, p := range pkts {
			rt.PostPacket(deliver, 1, p)
		}
		rt.Post(reset)
	}
	burst() // grow the queue and the received list once
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("%.2f allocs per burst of three lent drains, want 0", avg)
	}
	// AllocsPerRun adds one warm-up run of its own.
	if wakes, want := rt.parked(), 3*(1+1+100); wakes != 0 || tk.tr.released != want {
		t.Errorf("dispatcher woke %d times, %d packets released; want 0 and %d", wakes, tk.tr.released, want)
	}
	tk.stop(rt)
}

func steadyStateSim(t *testing.T) {
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
