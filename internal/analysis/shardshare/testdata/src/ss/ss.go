// Package ss is the shardshare golden test: writes to package-level state
// from inside parallel sweep jobs — direct, through an element or field, or
// via a callee — must be flagged; self-contained jobs and writes outside
// job bodies are clean.
package ss

import (
	"sync"

	"golapi/internal/parallel"
)

var (
	counter int
	table   = make([]float64, 8)
	limits  = struct{ hi int }{hi: 10}
	results map[int]float64

	mu    sync.Mutex
	cache = map[int]float64{}
)

// directWrites shows the three basic write shapes inside a job literal.
func directWrites(px *parallel.Executor) error {
	return parallel.ForEach(px, 8, func(i int) error {
		counter++                   // want `sweep job writes package-level state ss\.counter`
		table[i] = float64(i)       // want `sweep job writes package-level state ss\.table`
		limits.hi = i               // want `sweep job writes package-level state ss\.limits`
		results[i] = float64(i) * 2 // want `sweep job writes package-level state ss\.results`
		return nil
	})
}

// localState is clean: every sweep point owns its state, results are
// committed through Map's ordered return value.
func localState(px *parallel.Executor) ([]float64, error) {
	return parallel.Map(px, 8, func(i int) (float64, error) {
		acc := 0.0
		for k := 0; k < i; k++ {
			acc += float64(k)
		}
		return acc, nil
	})
}

// bumpCounter is the indirect write target.
func bumpCounter() { counter++ }

// viaHelper reaches the shared write through a callee chain.
func viaHelper(px *parallel.Executor) error {
	return parallel.ForEach(px, 4, func(i int) error {
		bumpCounter() // want `sweep job writes package-level state ss\.counter via bumpCounter`
		return nil
	})
}

// namedJob writes shared state and is passed by name rather than as a
// literal; the diagnostic lands on the argument.
func namedJob(i int) error {
	table[i] = 1
	return nil
}

func namedJobUse(px *parallel.Executor) error {
	return parallel.ForEach(px, 4, namedJob) // want `sweep job writes package-level state ss\.table via namedJob`
}

// guardedCache shows the escape hatch for intentionally shared state.
func guardedCache(px *parallel.Executor) error {
	return parallel.ForEach(px, 4, func(i int) error {
		mu.Lock()
		cache[i] = float64(i) //lapivet:ignore shardshare mutex-guarded memo cache, shared on purpose
		mu.Unlock()
		return nil
	})
}

// serialWrite is clean: package-level writes outside a sweep job are the
// caller's business (single-goroutine setup code).
func serialWrite() {
	counter = 0
	results = make(map[int]float64)
}

// spineFree models the switch interior's link-occupancy pools at the
// outbox seam: sharded engines must record would-be spine claims in
// per-shard outboxes and merge them at the epoch barrier, never write
// the shared occupancy state from worker goroutines.
var spineFree [4]int64

// claimSpine is an inline-resolution helper — the shape the barrier
// replaced.
func claimSpine(link int, end int64) {
	if spineFree[link] < end {
		spineFree[link] = end
	}
}

// spineFromJob writes the occupancy pool directly from a sweep job.
func spineFromJob(px *parallel.Executor) error {
	return parallel.ForEach(px, 8, func(i int) error {
		spineFree[i%4] = int64(i) // want `sweep job writes package-level state ss\.spineFree`
		return nil
	})
}

// spineViaResolver reaches the pool through the resolver helper from a
// Map job; the diagnostic names the callee.
func spineViaResolver(px *parallel.Executor) ([]int64, error) {
	return parallel.Map(px, 8, func(i int) (int64, error) {
		claimSpine(i%4, int64(i)) // want `sweep job writes package-level state ss\.spineFree via claimSpine`
		return int64(i), nil
	})
}

// spineAtBarrier is clean: resolving claims outside any sweep job is the
// epoch barrier's prerogative (engines are parked, one goroutine runs).
func spineAtBarrier(claims []int64) {
	for link, end := range claims {
		claimSpine(link%4, end)
	}
}

// ping and pong are a mutually recursive pair with the write behind the
// cycle: the guard cuts the search at ping's second visit, so the chain
// names each once.
func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	ping(n - 1)
	counter = n
}

func viaCycle(px *parallel.Executor) error {
	return parallel.ForEach(px, 4, func(i int) error {
		ping(i) // want `sweep job writes package-level state ss\.counter via ping → pong`
		return nil
	})
}

// nestedSweep runs a sweep inside a sweep job. The inner job's write is
// reported once, at the inner call's own site: the outer job's search does
// not enter the inner literal.
func nestedSweep(px *parallel.Executor) error {
	return parallel.ForEach(px, 2, func(i int) error {
		return parallel.ForEach(px, 2, func(j int) error {
			counter = j // want `sweep job writes package-level state ss\.counter`
			return nil
		})
	})
}
