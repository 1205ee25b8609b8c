package stats

import (
	"sync"
	"testing"
)

func TestAddGet(t *testing.T) {
	var c Counters
	if c.Get(Polls) != 0 {
		t.Error("untouched counter not zero")
	}
	c.Add(PacketsSent, 3)
	c.Add(PacketsSent, 4)
	c.Add(BytesSent, -1)
	if c.Get(PacketsSent) != 7 || c.Get(BytesSent) != -1 {
		t.Errorf("packets=%d bytes=%d", c.Get(PacketsSent), c.Get(BytesSent))
	}
	c.Add(ShardEpochs(5), 2)
	c.Add(ShardEpochs(5), 1)
	if got := c.Get(ShardEpochs(5)); got != 3 {
		t.Errorf("shard 5 epochs = %d, want 3", got)
	}
	if got := c.Get(ShardEpochs(9)); got != 0 {
		t.Errorf("untouched shard counter = %d, want 0", got)
	}
}

func TestMaxHighWater(t *testing.T) {
	for _, hw := range []Name{EpochMergeHighWater, ShardOutboxHighWater(2)} {
		var c Counters
		c.Max(hw, 3)
		c.Max(hw, 7)
		c.Max(hw, 5)
		if c.Get(hw) != 7 {
			t.Errorf("%v = %d, want 7 (high-water, not last)", hw, c.Get(hw))
		}
		c.Max(hw+1, -2) // never below the zero floor of a fresh counter
		if c.Get(hw+1) != 0 {
			t.Errorf("%v = %d, want 0", hw+1, c.Get(hw+1))
		}
	}
}

func TestFixedNames(t *testing.T) {
	for n := Name(0); n < numFixed; n++ {
		if names[n] == "" {
			t.Errorf("fixed name %d has no report name", int(n))
		}
	}
	if PacketsSent.String() != "packets_sent" || Matches.String() != "matches" || CollBarrierSteps.String() != "coll_barrier_steps" {
		t.Errorf("names = %v %v %v", PacketsSent, Matches, CollBarrierSteps)
	}
}

func TestShardNames(t *testing.T) {
	if ShardEpochs(3).String() != "epoch_shard_3_active" {
		t.Errorf("ShardEpochs(3) = %q", ShardEpochs(3))
	}
	if ShardOutboxHighWater(0).String() != "epoch_shard_0_outbox_high_water" {
		t.Errorf("ShardOutboxHighWater(0) = %q", ShardOutboxHighWater(0))
	}
	if ShardEpochs(0) == ShardOutboxHighWater(0) || ShardOutboxHighWater(0) == ShardEpochs(1) {
		t.Error("per-shard names collide")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	var c Counters
	c.Add(Polls, 1)
	c.Add(ShardEpochs(1), 4)
	snap := c.Snapshot()
	c.Add(Polls, 1)
	if len(snap) != 2 || snap["polls"] != 1 || snap["epoch_shard_1_active"] != 4 {
		t.Errorf("snapshot = %v", snap)
	}
	snap["polls"] = 99
	if c.Get(Polls) != 2 {
		t.Error("mutating snapshot affected counters")
	}
}

func TestConcurrentAdds(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(Polls, 1)
				c.Max(EpochMergeHighWater, int64(i*1000+j))
				c.Add(ShardEpochs(i%3), 1)
			}
		}(i)
	}
	wg.Wait()
	if c.Get(Polls) != 8000 {
		t.Fatalf("polls = %d, want 8000", c.Get(Polls))
	}
	if got := c.Get(EpochMergeHighWater); got != 7999 {
		t.Fatalf("high water = %d, want 7999", got)
	}
	if got := c.Get(ShardEpochs(0)) + c.Get(ShardEpochs(1)) + c.Get(ShardEpochs(2)); got != 8000 {
		t.Fatalf("shard epochs sum = %d, want 8000", got)
	}
}
