// epoch.go is Tier B of the multicore layer: conservative lookahead
// execution of ONE simulation partitioned across several sub-engines.
//
// The model is the classic conservative (Chandy-Misra-Bryant style)
// scheme, specialised to this codebase's guarantees:
//
//   - The fabric promises a minimum latency L between the moment a
//     cross-shard event is created and the virtual time at which it takes
//     effect (for switchnet, the wire latency — or, when the wire latency
//     is zero, the minimum adapter service time bounding the micro-epoch
//     window; see switchnet.NewSharded).
//
//   - Each epoch computes m = min over engines of NextAt() and runs every
//     engine independently up to the deadline m+L-1 (times are integer
//     nanoseconds, so the window is inclusive). Any cross-shard event
//     generated during the epoch was created at a local time ≥ m and so
//     takes effect at ≥ m+L > deadline: it is always in every engine's
//     future when imported at the barrier. No shard can ever receive an
//     event in its past, which is exactly the property that makes the
//     parallel run equivalent to the serial one.
//
//   - At the barrier, shared-resource contention is arbitrated first
//     (Hooks.Barrier — e.g. a sharded switch resolving its spine-link
//     occupancies in global timestamp order), then the accumulated
//     exports of all shards are merged in the deterministic order (At,
//     source shard id, per-shard sequence) — collection walks shards in
//     index order and the sort below is stable, so ties keep that order —
//     and imported with Engine.ScheduleAt. The merge order is independent
//     of worker scheduling, so repeated runs are bit-identical.
package parallel

import (
	"errors"
	"fmt"
	"sort"

	"golapi/internal/sim"
	"golapi/internal/stats"
)

// Export is one cross-shard event: a sim.Handler that must fire at
// absolute virtual time At on the engine of shard Shard. Producers (e.g. a
// sharded switchnet fabric) accumulate these in per-shard outboxes while
// their engine runs an epoch; RunEpochs drains and re-schedules them at
// the barrier.
type Export struct {
	At    sim.Time
	Shard int // destination shard index
	H     sim.Handler
}

// Hooks customises RunEpochs' barrier. TakeOutbox is required; the rest
// are optional.
type Hooks struct {
	// TakeOutbox must drain and return shard s's exports accumulated
	// during the last epoch, in creation order.
	TakeOutbox func(shard int) []Export
	// Barrier, if non-nil, runs at every epoch barrier with all engines
	// parked, before outboxes are collected. It is the seam for state
	// shared by all shards: the fabric arbitrates speculative resource
	// claims (spine-link occupancies) here and may schedule events on
	// any engine directly, since nothing else is running.
	Barrier func()
	// OnQuiesce, if non-nil, is called when no engine has pending
	// events; it may schedule new work (e.g. close the job's tasks,
	// which wakes their dispatchers) and return true to keep going, or
	// return false to stop. It runs with every engine parked, so it may
	// touch any shard's state.
	OnQuiesce func() bool
	// Stats, if non-nil, receives per-barrier accounting: epoch counts,
	// per-shard activity, and merge-queue high-water marks
	// (stats.EpochBarriers and friends), so shard imbalance is visible
	// in counter dumps next to the fabric's own packet counters.
	Stats *stats.Counters
}

// fanOutMinEvents is how many events a shard must have due inside an epoch
// window before running it on another worker can pay. Fanning an epoch out
// costs a fixed hand-off — worker goroutines spawned, a WaitGroup, the
// coordinator put to sleep and woken, an idle thread brought back — and
// buys at most the time of the second-busiest shard, the largest piece of
// work that overlaps with anything. The threshold is that hand-off divided
// by the cost of an event, both measured on the 2-vCPU reference host
// (DESIGN.md §9 has the tables): two jobs handed to ForEach break even
// with running them inline at 50–75 µs of work each, and an event of a
// full protocol run costs 1.25 µs (a mesh1k sweep: 590 k events, 733 ms
// inside RunEpochs) — 40 to 60 events, rounded up to a power of two.
const fanOutMinEvents = 64

// worthFanOut reports whether at least two engines each have
// fanOutMinEvents events due by deadline. The count is a lower bound on the
// epoch's work (events fired inside the window schedule more), taken from
// what the engines themselves report and bounded by the threshold, so a
// quiet epoch is sized in a few heap probes.
func worthFanOut(engines []*sim.Engine, deadline sim.Time) bool {
	busy := 0
	for _, e := range engines {
		if e.DueBy(deadline, fanOutMinEvents) == fanOutMinEvents {
			busy++
			if busy == 2 {
				return true
			}
		}
	}
	return false
}

// RunEpochs drives the sub-engines in lockstep lookahead epochs until the
// whole simulation quiesces, then runs each engine's deadlock check and
// returns the joined verdicts (nil when every shard finished cleanly).
//
// lookahead is the fabric's minimum cross-shard delay L (must be
// positive). An epoch in which at least two engines have enough due work
// to repay the hand-off (fanOutMinEvents) runs on x's workers; every other
// epoch runs inline on the caller, as all of them do when x is nil or has
// one worker. The results are the same either way.
func RunEpochs(x *Executor, engines []*sim.Engine, lookahead sim.Time, h Hooks) error {
	if lookahead <= 0 {
		return fmt.Errorf("parallel: epoch lookahead must be positive, got %v", lookahead)
	}
	if h.TakeOutbox == nil {
		return fmt.Errorf("parallel: RunEpochs needs a TakeOutbox hook")
	}
	for {
		var min sim.Time
		any := false
		for i, e := range engines {
			if at, ok := e.NextAt(); ok {
				if !any || at < min {
					min, any = at, true
				}
				if h.Stats != nil {
					h.Stats.Add(stats.ShardEpochs(i), 1)
				}
			}
		}
		if !any {
			if h.OnQuiesce != nil && h.OnQuiesce() {
				continue
			}
			break
		}
		deadline := min + lookahead - 1
		if x.Workers() > 1 && worthFanOut(engines, deadline) {
			ForEach(x, len(engines), func(i int) error {
				engines[i].RunUntil(deadline)
				return nil
			})
		} else {
			for _, e := range engines {
				e.RunUntil(deadline)
			}
		}
		if h.Barrier != nil {
			h.Barrier()
		}
		var imports []Export
		for s := range engines {
			ob := h.TakeOutbox(s)
			if h.Stats != nil {
				h.Stats.Max(stats.ShardOutboxHighWater(s), int64(len(ob)))
			}
			imports = append(imports, ob...)
		}
		sort.SliceStable(imports, func(i, j int) bool { return imports[i].At < imports[j].At })
		for _, ev := range imports {
			engines[ev.Shard].ScheduleHandlerAt(ev.At, ev.H)
		}
		if h.Stats != nil {
			h.Stats.Add(stats.EpochBarriers, 1)
			h.Stats.Add(stats.EpochImports, int64(len(imports)))
			h.Stats.Max(stats.EpochMergeHighWater, int64(len(imports)))
		}
	}
	var errs []error
	for i, e := range engines {
		if err := e.Run(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
