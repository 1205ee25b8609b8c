package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"golapi/internal/sim"
)

// TestMapHammer is the satellite-required stress test: 64 mixed-size sweep
// points across 8 workers, each point running its own private sim.Engine,
// asserting the results come back ordered and complete. Run under -race it
// also proves the executor introduces no data races between points.
func TestMapHammer(t *testing.T) {
	x := New(8)
	const n = 64
	want := make([]string, n)
	for i := 0; i < n; i++ {
		// Mixed sizes: point i drains 100*(i%7+1) simulated events, so
		// points finish at very different times.
		want[i] = fmt.Sprintf("point-%d:events-%d", i, 100*(i%7+1))
	}
	got, err := Map(x, n, func(i int) (string, error) {
		eng := sim.NewEngine()
		events := 100 * (i%7 + 1)
		fired := 0
		for k := 0; k < events; k++ {
			eng.Schedule(time.Duration(k), func() { fired++ })
		}
		if err := eng.Run(); err != nil {
			return "", err
		}
		return fmt.Sprintf("point-%d:events-%d", i, fired), nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("result[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestMapMatchesSerial checks a parallel Map and a nil-executor (serial)
// Map produce identical result slices for the same job function.
func TestMapMatchesSerial(t *testing.T) {
	job := func(i int) (int, error) { return i*i + 7, nil }
	serial, err := Map[int](nil, 40, job)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	par, err := Map(New(8), 40, job)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("result[%d]: serial %d, parallel %d", i, serial[i], par[i])
		}
	}
}

// TestMapLowestErrorWins: when several points fail, Map must report the
// lowest-index error regardless of completion order.
func TestMapLowestErrorWins(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		errLow := errors.New("low")
		_, err := Map(New(workers), 32, func(i int) (int, error) {
			switch i {
			case 5:
				return 0, errLow
			case 6, 17, 31:
				return 0, fmt.Errorf("high %d", i)
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want the index-5 error", workers, err)
		}
	}
}

func TestMapEmptyAndNil(t *testing.T) {
	if r, err := Map(New(4), 0, func(int) (int, error) { return 1, nil }); err != nil || r != nil {
		t.Fatalf("n=0: got %v, %v", r, err)
	}
	var x *Executor
	if x.Workers() != 1 {
		t.Fatalf("nil executor workers = %d, want 1", x.Workers())
	}
	r, err := Map(x, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(r) != 3 {
		t.Fatalf("nil executor Map: %v, %v", r, err)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(New(8), 100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}

// TestMapContention drives Map's shared index cursor with 8 workers
// racing over 37 jobs of uneven cost: every index must run exactly once,
// results must come back in index order, and with failures at 5 and 30
// the index-5 error must win even though its job is the slowest, so
// index 30 fails first.
func TestMapContention(t *testing.T) {
	const n, workers = 37, 8
	cost := func(i int) time.Duration {
		if i == 5 {
			return 2 * time.Millisecond
		}
		return time.Duration(i%4) * 100 * time.Microsecond
	}
	run := func(fail map[int]error) ([]int, []int32, error) {
		runs := make([]int32, n)
		got, err := Map(New(workers), n, func(i int) (int, error) {
			atomic.AddInt32(&runs[i], 1)
			time.Sleep(cost(i))
			if e := fail[i]; e != nil {
				return 0, e
			}
			return 3*i + 1, nil
		})
		return got, runs, err
	}
	checkOnce := func(runs []int32) {
		t.Helper()
		for i, c := range runs {
			if c != 1 {
				t.Errorf("index %d ran %d times, want 1", i, c)
			}
		}
	}

	got, runs, err := run(nil)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	checkOnce(runs)
	for i, r := range got {
		if r != 3*i+1 {
			t.Errorf("result[%d] = %d, want %d", i, r, 3*i+1)
		}
	}

	err5, err30 := errors.New("fail 5"), errors.New("fail 30")
	if _, runs, err = run(map[int]error{5: err5, 30: err30}); !errors.Is(err, err5) {
		t.Errorf("err = %v, want the index-5 error", err)
	}
	checkOnce(runs)
}
