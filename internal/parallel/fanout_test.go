package parallel

import (
	"fmt"
	"sort"
	"testing"

	"golapi/internal/sim"
	"golapi/internal/stats"
)

// burstMesh is a sharded fixture whose epochs differ in the way the fan-out
// rule cares about: some rounds load every shard far past fanOutMinEvents,
// some load a single shard, some put two or three events on each. Every
// event appends to its own shard's trace and may export a follow-up to the
// next shard one lookahead later, so imports arrive in bursts of the same
// shapes.
type burstMesh struct {
	engines []*sim.Engine
	outbox  [][]Export
	trace   [][]fired
}

// fired is one trace entry: which event ran where and when.
type fired struct {
	at    sim.Time
	shard int
	id    string
}

const burstLookahead = sim.Time(100)

func newBurstMesh(shards, rounds int) *burstMesh {
	m := &burstMesh{
		outbox: make([][]Export, shards),
		trace:  make([][]fired, shards),
	}
	for s := 0; s < shards; s++ {
		m.engines = append(m.engines, sim.NewEngine())
	}
	for r := 0; r < rounds; r++ {
		at := sim.Time(r) * 1000
		for s := 0; s < shards; s++ {
			n := 3 // a quiet round
			switch r % 3 {
			case 0: // every shard busy
				n = 2*fanOutMinEvents + 7*s
			case 1: // one busy shard, the others idle
				n = 0
				if s == r%shards {
					n = 3 * fanOutMinEvents
				}
			}
			for i := 0; i < n; i++ {
				s, id := s, fmt.Sprintf("r%d.%d", r, i)
				m.engines[s].ScheduleAt(at+sim.Time(i%5), func() { m.fire(s, id, 2) })
			}
		}
	}
	return m
}

// fire runs on shard s's engine: only s's trace and outbox are touched.
func (m *burstMesh) fire(s int, id string, hops int) {
	now := m.engines[s].Now()
	m.trace[s] = append(m.trace[s], fired{now, s, id})
	if hops == 0 {
		return
	}
	next := (s + 1) % len(m.engines)
	at := now + burstLookahead + sim.Time(len(id)%3)
	m.outbox[s] = append(m.outbox[s], Export{At: at, Shard: next, H: sim.HandlerFunc(func() { m.fire(next, id+">", hops-1) })})
}

func (m *burstMesh) take(s int) []Export {
	out := m.outbox[s]
	m.outbox[s] = nil
	return out
}

// merged is the whole run as one trace, in (time, shard, per-shard order).
func (m *burstMesh) merged() []fired {
	var all []fired
	for _, t := range m.trace {
		all = append(all, t...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].at < all[j].at || (all[i].at == all[j].at && all[i].shard < all[j].shard)
	})
	return all
}

// runEpochsFanningOutEveryEpoch is the epoch loop as it was before the
// fan-out rule — every epoch handed to the executor's workers — kept here
// as the reference RunEpochs is compared against. It also tallies what the
// rule decides for each epoch it sees, so the test can tell that the
// fixture really mixes both kinds.
func runEpochsFanningOutEveryEpoch(x *Executor, engines []*sim.Engine, lookahead sim.Time, h Hooks) (inline, fanned int) {
	for {
		var min sim.Time
		any := false
		for i, e := range engines {
			if at, ok := e.NextAt(); ok {
				if !any || at < min {
					min, any = at, true
				}
				h.Stats.Add(stats.ShardEpochs(i), 1)
			}
		}
		if !any {
			return inline, fanned
		}
		deadline := min + lookahead - 1
		if worthFanOut(engines, deadline) {
			fanned++
		} else {
			inline++
		}
		ForEach(x, len(engines), func(i int) error {
			engines[i].RunUntil(deadline)
			return nil
		})
		var imports []Export
		for s := range engines {
			imports = append(imports, h.TakeOutbox(s)...)
		}
		sort.SliceStable(imports, func(i, j int) bool { return imports[i].At < imports[j].At })
		for _, ev := range imports {
			engines[ev.Shard].ScheduleHandlerAt(ev.At, ev.H)
		}
		h.Stats.Add(stats.EpochBarriers, 1)
		h.Stats.Add(stats.EpochImports, int64(len(imports)))
	}
}

func TestMixedInlineAndFannedEpochsMatchAlwaysFanOut(t *testing.T) {
	const shards, rounds = 4, 12
	x := New(shards)

	ref := newBurstMesh(shards, rounds)
	var refStats stats.Counters
	inline, fanned := runEpochsFanningOutEveryEpoch(x, ref.engines, burstLookahead, Hooks{TakeOutbox: ref.take, Stats: &refStats})
	if inline == 0 || fanned == 0 {
		t.Fatalf("the fixture has %d inline and %d fanned-out epochs; it must mix both", inline, fanned)
	}

	got := newBurstMesh(shards, rounds)
	var gotStats stats.Counters
	if err := RunEpochs(x, got.engines, burstLookahead, Hooks{TakeOutbox: got.take, Stats: &gotStats}); err != nil {
		t.Fatal(err)
	}

	want, have := ref.merged(), got.merged()
	if len(want) != len(have) {
		t.Fatalf("merged trace has %d events, the always-fan-out reference %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("merged trace differs at %d: %v, reference %v", i, have[i], want[i])
		}
	}
	keys := []stats.Name{stats.EpochBarriers, stats.EpochImports}
	for s := 0; s < shards; s++ {
		keys = append(keys, stats.ShardEpochs(s))
	}
	for _, k := range keys {
		if g, w := gotStats.Get(k), refStats.Get(k); g != w || w == 0 {
			t.Errorf("%s = %d, always-fan-out reference %d", k, g, w)
		}
	}
	t.Logf("%d epochs inline, %d fanned out, %d events", inline, fanned, len(want))
}
