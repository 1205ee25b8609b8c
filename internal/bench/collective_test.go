package bench

import (
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/collective"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/parallel"
	"golapi/internal/stats"
)

// TestCollectiveSweepShape checks the performance claims the sweep is
// meant to demonstrate: recursive doubling wins the latency-bound regime,
// the ring wins the bandwidth-bound regime and beats the two-sided
// baseline there, and AlgAuto's crossover matches the measurements.
func TestCollectiveSweepShape(t *testing.T) {
	const small, large = 512, 131072
	pts, err := MeasureCollective(parallel.New(2), []int{4, 8}, []int{small, large})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		switch p.Size {
		case small:
			if p.RecDbl >= p.Ring {
				t.Errorf("n=%d %dB: recursive doubling (%v) not faster than ring (%v)", p.Tasks, p.Size, p.RecDbl, p.Ring)
			}
			if p.Auto != "recdbl" {
				t.Errorf("n=%d %dB: auto picked %s, want recdbl", p.Tasks, p.Size, p.Auto)
			}
		case large:
			if p.Ring >= p.RecDbl {
				t.Errorf("n=%d %dB: ring (%v) not faster than recursive doubling (%v)", p.Tasks, p.Size, p.Ring, p.RecDbl)
			}
			if p.Ring >= p.MPI {
				t.Errorf("n=%d %dB: ring (%v) not faster than two-sided MPI (%v)", p.Tasks, p.Size, p.Ring, p.MPI)
			}
			if p.Auto != "ring" {
				t.Errorf("n=%d %dB: auto picked %s, want ring", p.Tasks, p.Size, p.Auto)
			}
		}
	}
}

// TestCollectiveStatsSmoke runs a tiny collective workload and asserts the
// per-algorithm stats counters advance with the expected step counts.
func TestCollectiveStatsSmoke(t *testing.T) {
	const n = 4
	j, err := cluster.NewSimDefault(n)
	if err != nil {
		t.Fatal(err)
	}
	err = cluster.RunWithComm(j, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		buf := make([]byte, 1024)
		if err := c.AllreduceAlg(ctx, buf, collective.OpSumU8, collective.AlgRing); err != nil {
			t.Error(err)
			return
		}
		if err := c.AllreduceAlg(ctx, buf, collective.OpSumU8, collective.AlgRecursiveDoubling); err != nil {
			t.Error(err)
			return
		}
		if err := c.Bcast(ctx, 0, buf); err != nil {
			t.Error(err)
			return
		}
		if err := c.Barrier(ctx); err != nil {
			t.Error(err)
			return
		}
		got := &tk.Counters
		if v := got.Get(stats.CollCalls); v != 4 {
			t.Errorf("rank %d: coll_calls = %d, want 4", c.Rank(), v)
		}
		if v := got.Get(stats.CollRingSteps); v != 2*(n-1) {
			t.Errorf("rank %d: coll_ring_steps = %d, want %d", c.Rank(), v, 2*(n-1))
		}
		// Ring moves 2(N-1)/N of the vector per rank.
		if v := got.Get(stats.CollRingBytes); v != 2*(n-1)*1024/n {
			t.Errorf("rank %d: coll_ring_bytes = %d, want %d", c.Rank(), v, 2*(n-1)*1024/n)
		}
		// Power-of-two job: log2(4) = 2 full-vector exchanges.
		if v := got.Get(stats.CollRDSteps); v != 2 {
			t.Errorf("rank %d: coll_rd_steps = %d, want 2", c.Rank(), v)
		}
		if v := got.Get(stats.CollRDBytes); v != 2*1024 {
			t.Errorf("rank %d: coll_rd_bytes = %d, want %d", c.Rank(), v, 2*1024)
		}
		// log2(4) = 2 dissemination rounds each in Bcast's consumption
		// fence and in the Barrier.
		if v := got.Get(stats.CollBarrierSteps); v != 4 {
			t.Errorf("rank %d: coll_barrier_steps = %d, want 4", c.Rank(), v)
		}
		if v := got.Get(stats.CollTreeSteps); v == 0 {
			t.Errorf("rank %d: coll_tree_steps did not advance", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
