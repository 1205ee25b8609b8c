package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// laneStats records what a lane program exercised, so the equivalence test
// can tell that it reached the paths it is meant to cover.
type laneStats struct {
	fallbacks int // appends earlier than the lane's tail
	maxDepth  int // most entries one lane held
}

// laneProgram runs a seeded random program and returns its trace: every
// event logs the time it fired, NextAt and a DueBy probe from inside its
// handler, and then schedules up to two more events — on a lane (its own
// lane too), with Schedule or with ScheduleAt. A lane append usually
// follows its lane's clock, which advances by 0–2 ns per append (ties, and
// at == now when the clock lags), and one in eight is drawn at random
// from the next few nanoseconds, before the lane's tail as often as not.
// Three processes sleep and schedule events too. The program runs in
// RunUntil windows of 0–5 ns; each window edge logs NextAt and DueBy
// probes. With lanes false, every lane append is ScheduleHandlerAt
// instead, so the two traces must be identical.
func laneProgram(seed int64, lanes bool) ([]string, laneStats) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var st laneStats
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	const nLanes = 3
	ls := make([]*Lane, nLanes)
	for i := range ls {
		ls[i] = NewLane(e)
	}
	clock := make([]Time, nLanes)
	budget, next := 600, 0
	var spawn func()
	spawn = func() {
		if budget == 0 {
			return
		}
		budget--
		id := next
		next++
		fire := func() {
			at, ok := e.NextAt()
			due := e.DueBy(e.Now()+Time(rng.Intn(8)), 1+rng.Intn(20))
			logf("ev%d next %d %v due %d", id, at, ok, due)
			for n := rng.Intn(3); n > 0; n-- {
				spawn()
			}
		}
		switch k := rng.Intn(8); {
		case k < 5:
			l := rng.Intn(nLanes)
			var at Time
			if rng.Intn(8) == 0 {
				at = e.Now() + Time(rng.Intn(6))
			} else {
				clock[l] = max(clock[l], e.Now()) + Time(rng.Intn(3))
				at = clock[l]
			}
			if !lanes {
				e.ScheduleHandlerAt(at, HandlerFunc(fire))
				return
			}
			q := ls[l]
			tail := q.head.at
			if len(q.q) > q.qHead {
				tail = q.q[len(q.q)-1].at
			}
			if q.head.h != nil && at < tail {
				st.fallbacks++
			}
			q.At(at, HandlerFunc(fire))
			st.maxDepth = max(st.maxDepth, 1+len(q.q)-q.qHead)
		case k < 7:
			e.Schedule(Duration(rng.Intn(5)), fire)
		default:
			e.ScheduleAt(e.Now()+Time(rng.Intn(10)), fire)
		}
	}
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 40; step++ {
				p.Sleep(Duration(rng.Intn(4)))
				logf("p%d step %d", i, step)
				spawn()
			}
		})
	}
	wrng := rand.New(rand.NewSource(seed + 1))
	edge := Time(0)
	for {
		at, ok := e.NextAt()
		logf("edge next %d %v", at, ok)
		for probe := 0; probe < 3; probe++ {
			d, limit := edge+Time(wrng.Intn(12)), 1+wrng.Intn(40)
			logf("edge DueBy(%d, %d) = %d", d, limit, e.DueBy(d, limit))
		}
		edge += Time(wrng.Intn(6))
		if !e.RunUntil(edge) {
			break
		}
	}
	logf("end %v", e.Run())
	return trace, st
}

// TestLaneMatchesHeap: a program whose lane appends go through lanes fires
// every event at the same time, in the same order, and sees the same
// NextAt and DueBy answers, as the same program scheduling each append on
// the heap directly.
func TestLaneMatchesHeap(t *testing.T) {
	var total laneStats
	for seed := int64(1); seed <= 200; seed++ {
		want, _ := laneProgram(seed, false)
		got, st := laneProgram(seed, true)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: traces part at line %d:\nlanes: %s\nheap:  %s", seed, i, line(got, i), line(want, i))
		}
		total.fallbacks += st.fallbacks
		total.maxDepth = max(total.maxDepth, st.maxDepth)
	}
	if total.fallbacks == 0 || total.maxDepth < 4 {
		t.Fatalf("programs too tame: %d fallbacks, lanes at most %d deep", total.fallbacks, total.maxDepth)
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func line(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(end of trace)"
}

// A lane keeps one heap entry however many events it holds, fires them in
// order, and reuses its backing array once it drains.
func TestLaneHoldsOneHeapEntry(t *testing.T) {
	e := NewEngine()
	l := NewLane(e)
	fired, last := 0, Time(0)
	h := HandlerFunc(func() {
		if e.Now() < last {
			t.Fatalf("lane event at %v after one at %v", e.Now(), last)
		}
		fired, last = fired+1, e.Now()
	})
	round := func() {
		base := e.Now()
		for i := 0; i < 100; i++ {
			l.At(base+Time(i/2+1), h)
		}
		if len(e.timers) != 1 {
			t.Fatalf("%d heap entries for a 100-event lane", len(e.timers))
		}
		if got := e.DueBy(base+10, 1000); got != 20 {
			t.Fatalf("DueBy = %d, want 20", got)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if fired != 100 || e.Now() != 50 {
		t.Fatalf("fired %d events, ending at %v", fired, e.Now())
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("%.1f allocs per round of a warm lane", allocs)
	}
}

func TestLanePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Lane.At in the past did not panic")
			}
		}()
		NewLane(e).At(0, HandlerFunc(func() {}))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
