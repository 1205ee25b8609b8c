package progress_test

import (
	"testing"
	"time"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/progress"
	"golapi/internal/sim"
	"golapi/internal/stats"
)

// fakeTransport is the one endpoint the engine talks to: it keeps the
// deliver upcall so a test can inject arrivals, and counts releases.
type fakeTransport struct {
	fabric.Transport // unused methods panic through the nil interface
	deliver          func(src int, pkt []byte)
	released         int
}

func (f *fakeTransport) Self() int                       { return 3 }
func (f *fakeTransport) SetDeliver(fn func(int, []byte)) { f.deliver = fn }
func (f *fakeTransport) Release([]byte)                  { f.released++ }

// arrive delivers pkts from src at the current instant.
func (f *fakeTransport) arrive(src int, pkts ...[]byte) {
	for _, p := range pkts {
		f.deliver(src, p)
	}
}

const (
	interruptCost = 20 * time.Microsecond
	recvCost      = 5 * time.Microsecond
)

// task is the smallest library over an engine: its receive charges a
// fixed cost, records the packet and releases it.
type task struct {
	progress.Engine
	tr       *fakeTransport
	counters stats.Counters
	got      []byte // first byte of every packet received, in order
	onRecv   func(ctx exec.Context)
}

func (t *task) receive(ctx exec.Context, src int, pkt []byte) {
	ctx.Sleep(recvCost)
	t.got = append(t.got, pkt[0])
	if t.onRecv != nil {
		t.onRecv(ctx)
	}
	t.tr.Release(pkt)
}

func newTask(eng *sim.Engine, mode progress.Mode) *task {
	t := &task{tr: &fakeTransport{}}
	t.Init(exec.NewSimRuntime(eng), t.tr, "test", mode, interruptCost, &t.counters, nil, t.receive)
	return t
}

func run(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPollInsideDrainIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	tk := newTask(eng, progress.Polling)
	depth, maxDepth := 0, 0
	tk.onRecv = func(ctx exec.Context) {
		depth++
		maxDepth = max(maxDepth, depth)
		tk.Poll(ctx) // a handler re-entering the library
		depth--
	}
	eng.Go("main", func(p *sim.Proc) {
		tk.tr.arrive(1, []byte{1}, []byte{2})
		tk.Poll(exec.SimContext(p))
		tk.Close()
	})
	run(t, eng)
	if string(tk.got) != "\x01\x02" || maxDepth != 1 {
		t.Errorf("received %v at depth %d, want [1 2] at depth 1", tk.got, maxDepth)
	}
	if n := tk.counters.Get(stats.Polls); n != 1 {
		t.Errorf("polls = %d, want 1: a poll inside a drain counts nothing", n)
	}
}

func TestPollingParksDispatcherUntilSetMode(t *testing.T) {
	eng := sim.NewEngine()
	tk := newTask(eng, progress.Polling)
	eng.Go("main", func(p *sim.Proc) {
		tk.tr.arrive(1, []byte{1}, []byte{2}, []byte{3})
		p.Sleep(sim.Duration(time.Millisecond))
		if len(tk.got) != 0 || tk.tr.released != 0 {
			t.Errorf("polling mode drained %v without a poll", tk.got)
		}
		tk.SetMode(progress.Interrupt)
		if tk.Mode() != progress.Interrupt {
			t.Errorf("Mode() = %v after SetMode(Interrupt)", tk.Mode())
		}
		p.Sleep(sim.Duration(time.Millisecond))
		tk.Close()
	})
	run(t, eng)
	if string(tk.got) != "\x01\x02\x03" || tk.tr.released != 3 {
		t.Errorf("after SetMode(Interrupt): received %v, released %d; want the 3-packet backlog", tk.got, tk.tr.released)
	}
	if n := tk.counters.Get(stats.Interrupts); n != 1 {
		t.Errorf("interrupts = %d, want 1", n)
	}
}

func TestInterruptsCountWakeups(t *testing.T) {
	eng := sim.NewEngine()
	tk := newTask(eng, progress.Interrupt)
	eng.Go("main", func(p *sim.Proc) {
		tk.tr.arrive(1, []byte{1}, []byte{2}, []byte{3}) // one burst
		p.Sleep(sim.Duration(time.Millisecond))
		tk.tr.arrive(2, []byte{4}) // a second wakeup
		p.Sleep(sim.Duration(time.Millisecond))
		tk.Close()
	})
	run(t, eng)
	if len(tk.got) != 4 {
		t.Errorf("received %v, want 4 packets", tk.got)
	}
	if n := tk.counters.Get(stats.Interrupts); n != 2 {
		t.Errorf("interrupts = %d, want 2 (one per wakeup, not per packet)", n)
	}
	if n := tk.counters.Get(stats.Polls); n != 0 {
		t.Errorf("polls = %d, want 0", n)
	}
}

func TestCloseWakesWaitersAndDropsArrivals(t *testing.T) {
	eng := sim.NewEngine()
	tk := newTask(eng, progress.Interrupt)
	var woke sim.Time = -1
	eng.Go("waiter", func(p *sim.Proc) {
		tk.Until(exec.SimContext(p), func() bool { return false })
		woke = p.Now()
	})
	eng.Go("closer", func(p *sim.Proc) {
		p.Sleep(sim.Duration(time.Millisecond))
		if !tk.Close() {
			t.Error("first Close reported false")
		}
		tk.tr.arrive(1, []byte{1})
		tk.Poll(exec.SimContext(p))
		if tk.Close() {
			t.Error("second Close reported true")
		}
	})
	run(t, eng) // the dispatcher has exited too: no deadlock
	if woke != sim.Time(time.Millisecond) {
		t.Errorf("Until returned at %v, want %v (the Close)", woke, time.Millisecond)
	}
	if len(tk.got) != 0 {
		t.Errorf("received %v after Close", tk.got)
	}
}

func TestUntilPollsBeforeChecking(t *testing.T) {
	eng := sim.NewEngine()
	tk := newTask(eng, progress.Polling)
	eng.Go("main", func(p *sim.Proc) {
		tk.Until(exec.SimContext(p), func() bool { return true })
		tk.tr.arrive(1, []byte{1})
		tk.Until(exec.SimContext(p), func() bool { return len(tk.got) == 1 })
		tk.Close()
	})
	run(t, eng)
	if n := tk.counters.Get(stats.Polls); n != 2 {
		t.Errorf("polls = %d, want 2: Until polls once even when already done", n)
	}
}

// probeRuntime is a real runtime that counts the waits of the dispatcher
// (the one activity the engine spawns) and how often it returned from one.
type probeRuntime struct {
	*exec.RealRuntime
	waits, wakes int
}

func (r *probeRuntime) Go(name string, fn func(exec.Context)) {
	r.RealRuntime.Go(name, func(ctx exec.Context) { fn(waitCounter{ctx, r}) })
}

type waitCounter struct {
	exec.Context
	rt *probeRuntime
}

func (c waitCounter) Wait(cond exec.Cond) {
	c.rt.waits++
	c.Context.Wait(cond)
	c.rt.wakes++
}

// parked returns once the dispatcher is waiting, and how often it has been
// woken.
func (r *probeRuntime) parked() int {
	for {
		var waits, wakes int
		r.Post(func() { waits, wakes = r.waits, r.wakes })
		if waits > wakes {
			return wakes
		}
		time.Sleep(time.Millisecond)
	}
}

// newRealTask is newTask on a real runtime, with the given interrupt cost.
func newRealTask(mode progress.Mode, cost time.Duration) (*task, *probeRuntime) {
	rt := &probeRuntime{RealRuntime: exec.NewRealRuntime()}
	t := &task{tr: &fakeTransport{}}
	t.Init(rt, t.tr, "test", mode, cost, &t.counters, nil, t.receive)
	return t, rt
}

// stop closes the engine and waits for its dispatcher to exit.
func (t *task) stop(rt *probeRuntime) {
	rt.Post(func() { t.Close() })
	rt.Drain()
}

// TestLentDrainRunsOnDeliveringGoroutine: on a real runtime, in interrupt
// mode with a free interrupt, each arrival is received before the
// transport's upcall returns, and the dispatcher is never woken.
func TestLentDrainRunsOnDeliveringGoroutine(t *testing.T) {
	tk, rt := newRealTask(progress.Interrupt, 0)
	rt.parked()
	for i := byte(1); i <= 3; i++ {
		rt.PostPacket(tk.tr.deliver, 1, []byte{i})
		var got string
		rt.Post(func() { got = string(tk.got) })
		if want := string([]byte{1, 2, 3}[:i]); got != want {
			t.Fatalf("after delivering packet %d: received %v, want %v", i, []byte(got), []byte(want))
		}
	}
	var released int
	rt.Post(func() { released = tk.tr.released })
	if wakes := rt.parked(); wakes != 0 || released != 3 {
		t.Errorf("dispatcher woke %d times, %d packets released; want 0 and 3", wakes, released)
	}
	if n := tk.counters.Get(stats.Interrupts); n != 0 {
		t.Errorf("interrupts = %d, want 0 at zero cost", n)
	}
	tk.stop(rt)
}

// TestDispatcherKeepsItsArrivals: a priced interrupt, polling mode and an
// arrival inside a drain each leave the packet queued when the upcall
// returns; the dispatcher, a poll or the running drain takes it.
func TestDispatcherKeepsItsArrivals(t *testing.T) {
	t.Run("InterruptCost", func(t *testing.T) {
		tk, rt := newRealTask(progress.Interrupt, time.Microsecond)
		rt.parked()
		recvd := make(chan struct{})
		tk.onRecv = func(exec.Context) { close(recvd) }
		var queued int
		rt.Post(func() { tk.tr.deliver(1, []byte{1}); queued = 1 - len(tk.got) })
		<-recvd
		if wakes := rt.parked(); queued != 1 || wakes == 0 {
			t.Errorf("queued %d at the upcall's return, dispatcher woke %d times; want 1 and at least 1", queued, wakes)
		}
		if n := tk.counters.Get(stats.Interrupts); n != 1 {
			t.Errorf("interrupts = %d, want 1", n)
		}
		tk.stop(rt)
	})
	t.Run("Polling", func(t *testing.T) {
		tk, rt := newRealTask(progress.Polling, 0)
		var queued int
		rt.Post(func() { tk.tr.deliver(1, []byte{1}); queued = 1 - len(tk.got) })
		rt.Do(tk.Poll)
		var got string
		rt.Post(func() { got = string(tk.got) })
		if queued != 1 || got != "\x01" {
			t.Errorf("queued %d at the upcall's return, received %v after a poll; want 1 and [1]", queued, []byte(got))
		}
		tk.stop(rt)
	})
	t.Run("InsideDrain", func(t *testing.T) {
		tk, rt := newRealTask(progress.Interrupt, 0)
		depth, maxDepth := 0, 0
		tk.onRecv = func(exec.Context) {
			depth++
			maxDepth = max(maxDepth, depth)
			if tk.got[len(tk.got)-1] == 1 {
				tk.tr.deliver(1, []byte{2}) // an arrival while this drain runs
			}
			depth--
		}
		rt.PostPacket(tk.tr.deliver, 1, []byte{1})
		var got string
		rt.Post(func() { got = string(tk.got) })
		if got != "\x01\x02" || maxDepth != 1 {
			t.Errorf("received %v at depth %d, want [1 2] at depth 1: the running drain takes the arrival", []byte(got), maxDepth)
		}
		tk.stop(rt)
	})
}
