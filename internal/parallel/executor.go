// Package parallel is the multicore execution layer for the simulated
// experiments. It has two tiers:
//
//   - Tier A (executor.go): a work-stealing sweep executor that runs
//     independent sweep points — each owning its private sim.Engine and
//     simulated mesh — across worker goroutines, committing results in
//     input order. Because every point is self-contained and results are
//     ordered by input index, sweep output is byte-identical to a serial
//     run; parallelism only changes wall-clock time.
//
//   - Tier B (epoch.go): a conservative lookahead runner that partitions
//     ONE simulated mesh across several sub-engines and advances them in
//     lockstep epochs bounded by the fabric's minimum cross-shard latency,
//     exchanging cross-shard events at barriers with a deterministic merge
//     order.
//
// The package deliberately has no mutable package-level state: every knob
// lives on an Executor value, so parallel workers can never race on
// configuration (the lapivet shardshare pass enforces the same property
// for the closures handed to Map and ForEach).
package parallel

import (
	"runtime"
	"sync"
)

// Executor runs independent jobs across a fixed pool of workers. The zero
// value and the nil pointer both act as a serial executor (jobs run inline
// on the caller's goroutine), which is the escape hatch the -serial flags
// of the bench commands use.
type Executor struct {
	workers int
}

// New returns an executor with the given worker count. Counts below one
// are treated as one (serial).
func New(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	return &Executor{workers: workers}
}

// Default returns an executor sized to the scheduler's parallelism
// (GOMAXPROCS), the configuration every bench command uses unless -serial
// is given.
func Default() *Executor { return New(runtime.GOMAXPROCS(0)) }

// Workers reports the worker count (one for a nil or zero executor).
func (x *Executor) Workers() int {
	if x == nil || x.workers < 1 {
		return 1
	}
	return x.workers
}

// Map runs fn(i) for every i in [0, n) on the executor's workers and
// returns the results in input order, so output built from them is
// identical to a serial run regardless of scheduling. If any job fails,
// the error of the lowest-index failing job is returned — a deterministic
// choice, which requires running every job even after a failure (sweep
// failures are exceptional, so the wasted work does not matter) — and the
// results must not be used.
//
// The index space is split into contiguous per-worker blocks; each worker
// pops from the front of its own block and, when empty, steals from the
// back of the fullest remaining block. Contiguous ownership keeps
// neighbouring sweep points (which tend to have similar cost) on one
// worker; stealing rebalances mixed-size sweeps.
func Map[T any](x *Executor, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	w := x.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	q := newStealQueues(n, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			for {
				i, ok := q.next(wk)
				if !ok {
					return
				}
				r, err := fn(i)
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = r
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ForEach is Map for jobs with no result value.
func ForEach(x *Executor, n int, fn func(i int) error) error {
	_, err := Map(x, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// stealQueues is the work-stealing index pool: one contiguous [lo, hi)
// block per worker. Owners take from the front (lo), thieves from the back
// (hi), so a stolen run stays contiguous too.
type stealQueues struct {
	mu     sync.Mutex
	lo, hi []int
}

func newStealQueues(n, workers int) *stealQueues {
	q := &stealQueues{lo: make([]int, workers), hi: make([]int, workers)}
	for wk := 0; wk < workers; wk++ {
		q.lo[wk] = wk * n / workers
		q.hi[wk] = (wk + 1) * n / workers
	}
	return q
}

// next returns the next index for worker wk: its own front, or a steal
// from the back of the fullest other queue.
func (q *stealQueues) next(wk int) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lo[wk] < q.hi[wk] {
		i := q.lo[wk]
		q.lo[wk]++
		return i, true
	}
	victim, best := -1, 0
	for v := range q.lo {
		if remain := q.hi[v] - q.lo[v]; remain > best {
			victim, best = v, remain
		}
	}
	if victim < 0 {
		return 0, false
	}
	q.hi[victim]--
	return q.hi[victim], true
}
