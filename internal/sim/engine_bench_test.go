package sim

import (
	"testing"
	"time"
)

// Engine micro-benchmarks: wall-clock cost of the simulation substrate
// itself. These bound how large a simulated system the harness can drive
// (events/sec and process context switches/sec).

func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkProcessSwitch(b *testing.B) {
	// Two processes ping-ponging through conditions: measures the
	// process handoff (park, hub, resume) that dominates process-heavy
	// simulations.
	e := NewEngine()
	c1, c2 := NewCond(e), NewCond(e)
	turn := 1
	n := b.N
	e.Go("p1", func(p *Proc) {
		for i := 0; i < n; i++ {
			for turn != 1 {
				p.WaitCond(c1)
			}
			turn = 2
			c2.Broadcast()
		}
	})
	e.Go("p2", func(p *Proc) {
		for i := 0; i < n; i++ {
			for turn != 2 {
				p.WaitCond(c2)
			}
			turn = 1
			c1.Broadcast()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "switches/s")
}

func BenchmarkSelfWake(b *testing.B) {
	// One process in a Sleep loop with a callback event falling inside
	// every sleep: the parked process fires the callback and then pops its
	// own wake-up, so no iteration leaves its stack — the zero-switch path.
	e := NewEngine()
	n := b.N
	fn := func() {}
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Schedule(time.Microsecond, fn)
			p.Sleep(2 * time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sleeps/s")
}

func BenchmarkManySleepers(b *testing.B) {
	// A population of processes with staggered timers — the idle-task
	// pattern of a large simulated cluster.
	e := NewEngine()
	const procs = 100
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		e.Go("sleeper", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(Duration(i+1) * time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(procs*per)/b.Elapsed().Seconds(), "sleeps/s")
}
