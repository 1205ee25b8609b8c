package parallel

import (
	"testing"
	"time"

	"golapi/internal/sim"
	"golapi/internal/stats"
)

// pingPong builds a two-engine fixture where shard 0 and shard 1 bounce
// an event back and forth n times with a fixed cross-shard delay L,
// accumulating exports in per-shard outboxes the way a sharded fabric
// does.
type pingPong struct {
	engines []*sim.Engine
	outbox  [][]Export
	hops    int
}

func newPingPong(n int, L sim.Time) *pingPong {
	p := &pingPong{
		engines: []*sim.Engine{sim.NewEngine(), sim.NewEngine()},
		outbox:  make([][]Export, 2),
	}
	var hop func(shard int)
	hop = func(shard int) {
		p.hops++
		if p.hops >= n {
			return
		}
		next := 1 - shard
		at := p.engines[shard].Now() + L
		p.outbox[shard] = append(p.outbox[shard], Export{At: at, Shard: next, H: sim.HandlerFunc(func() { hop(next) })})
	}
	p.engines[0].Schedule(0, func() { hop(0) })
	return p
}

func (p *pingPong) take(shard int) []Export {
	out := p.outbox[shard]
	p.outbox[shard] = nil
	return out
}

func TestRunEpochsStatsAndBarrier(t *testing.T) {
	const hops = 9
	const L = sim.Time(100)
	p := newPingPong(hops, L)
	var c stats.Counters
	barriers := 0
	err := RunEpochs(nil, p.engines, L, Hooks{
		TakeOutbox: p.take,
		Barrier:    func() { barriers++ },
		Stats:      &c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.hops != hops {
		t.Fatalf("hops = %d, want %d", p.hops, hops)
	}
	if got := c.Get(stats.EpochBarriers); got == 0 {
		t.Error("epoch_barriers not counted")
	}
	if int64(barriers) != c.Get(stats.EpochBarriers) {
		t.Errorf("Barrier hook ran %d times, counter says %d", barriers, c.Get(stats.EpochBarriers))
	}
	// Every hop but the last crosses shards exactly once.
	if got := c.Get(stats.EpochImports); got != hops-1 {
		t.Errorf("epoch_imports = %d, want %d", got, hops-1)
	}
	// One export in flight at a time: the merge queue never exceeds 1.
	if got := c.Get(stats.EpochMergeHighWater); got != 1 {
		t.Errorf("epoch_merge_high_water = %d, want 1", got)
	}
	// Both shards were active in at least one epoch, and the per-shard
	// outbox high-water marks were recorded.
	for s := 0; s < 2; s++ {
		if c.Get(stats.ShardEpochs(s)) == 0 {
			t.Errorf("shard %d never counted active", s)
		}
		if c.Get(stats.ShardOutboxHighWater(s)) != 1 {
			t.Errorf("shard %d outbox high-water = %d, want 1", s, c.Get(stats.ShardOutboxHighWater(s)))
		}
	}
}

func TestRunEpochsNilStats(t *testing.T) {
	p := newPingPong(5, 50)
	if err := RunEpochs(nil, p.engines, 50, Hooks{TakeOutbox: p.take}); err != nil {
		t.Fatal(err)
	}
	if p.hops != 5 {
		t.Fatalf("hops = %d, want 5", p.hops)
	}
}

func TestRunEpochsRejectsBadArgs(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine()}
	if err := RunEpochs(nil, engines, 0, Hooks{TakeOutbox: func(int) []Export { return nil }}); err == nil {
		t.Error("zero lookahead accepted")
	}
	if err := RunEpochs(nil, engines, 1, Hooks{}); err == nil {
		t.Error("nil TakeOutbox accepted")
	}
}

func TestRunEpochsQuiesceHook(t *testing.T) {
	eng := sim.NewEngine()
	ran := false
	wakes := 0
	err := RunEpochs(nil, []*sim.Engine{eng}, sim.Time(time.Microsecond), Hooks{
		TakeOutbox: func(int) []Export { return nil },
		OnQuiesce: func() bool {
			wakes++
			if wakes == 1 {
				eng.Schedule(0, func() { ran = true })
				return true
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran || wakes != 2 {
		t.Fatalf("ran=%v wakes=%d; quiesce hook must be able to schedule new work", ran, wakes)
	}
}
