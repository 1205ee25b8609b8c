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

func BenchmarkSpawn(b *testing.B) {
	// One process spawning a child that does nothing and letting it run
	// to completion: the cost of a short-lived activity such as a LAPI
	// completion handler or an MPL rcvncall hook, which after the first
	// iteration gets the coroutine its predecessor left idle.
	e := NewEngine()
	n := b.N
	child := func(*Proc) {}
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Go("child", child)
			p.Sleep(0) // the child's start event is ahead of this wake-up
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "spawns/s")
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

func BenchmarkLaneBurst(b *testing.B) {
	// One link's burst of packets in flight: 2 000 events whose times never
	// decrease, scheduled through one lane and through the heap. The lane
	// keeps one heap entry where the heap holds all 2 000, so the
	// difference per event is what a switch saves per queued arrival, ack
	// or drain callback.
	const burst = 2000
	h := HandlerFunc(func() {})
	for _, lane := range []bool{true, false} {
		name := "heap"
		if lane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			e := NewEngine()
			l := NewLane(e)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := e.Now()
				for j := 1; j <= burst; j++ {
					if lane {
						l.At(base+Time(j), h)
					} else {
						e.ScheduleHandlerAt(base+Time(j), h)
					}
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/event")
		})
	}
}
