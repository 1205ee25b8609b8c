//go:build !race

// Allocation budget for the simulated-runtime hot path. Race-detector
// builds are excluded: instrumentation changes allocation counts.

package lapi_test

import (
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
)

// simPutAllocBudget bounds steady-state allocations per synchronous
// 4-byte Put on the simulated switch: 48 before the pooling work, 15
// after it, 14 when the standing benchmark first traced it
// (lapi.sim_allocs_per_put), 10 since sim.Cond.Broadcast keeps its waiter
// list — four waits per Put each used to allocate a fresh one, unnoticed
// under a budget of 30 — and 2 since the switch pools its packet buffers
// and schedules its arrival, ack and retransmission events without
// closures: what is left is the switch's one record per packet, for the
// Put's data packet and its completion ack. The simulated runtime is
// single-threaded, so the count is exact and the budget is the measured
// value: a new allocation on this path should be a decision, not drift.
const simPutAllocBudget = 2.0

// simGetStridedAllocBudget bounds a 4-block GetStrided plus its Waitcntr:
// the same 2 as a contiguous Get, now that the target gathers the vector
// straight into its reply packets instead of packing it into a buffer it
// allocated per request (3 before).
const simGetStridedAllocBudget = 2.0

func TestSimPutAllocBudget(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	avg := simAllocsPerOp(t, func(ctx exec.Context, lt *lapi.Task, tgt lapi.Addr) {
		lt.PutSync(ctx, 1, tgt, src, lapi.NoCounter)
	})
	if avg > simPutAllocBudget {
		t.Errorf("sim 4-byte PutSync: %.1f allocs/op, budget %.1f — pooled hot path regressed", avg, simPutAllocBudget)
	}
	t.Logf("sim 4-byte PutSync: %.1f allocs/op (budget %.1f)", avg, simPutAllocBudget)
}

func TestSimGetStridedAllocBudget(t *testing.T) {
	st := lapi.Stride{Blocks: 4, BlockBytes: 4, StrideBytes: 16}
	buf := make([]byte, st.Total())
	var org *lapi.Counter
	avg := simAllocsPerOp(t, func(ctx exec.Context, lt *lapi.Task, tgt lapi.Addr) {
		if org == nil {
			org = lt.NewCounter()
		}
		lt.GetStrided(ctx, 1, tgt, st, buf, lapi.NoCounter, org)
		lt.Waitcntr(ctx, org, 1)
	})
	if avg > simGetStridedAllocBudget {
		t.Errorf("sim 4-block GetStrided: %.1f allocs/op, budget %.1f — strided reply path regressed", avg, simGetStridedAllocBudget)
	}
	t.Logf("sim 4-block GetStrided: %.1f allocs/op (budget %.1f)", avg, simGetStridedAllocBudget)
}

// simAllocsPerOp runs op from task 0 against a 64-byte block of task 1 on
// a two-task simulated switch, warms pools, free lists and message maps
// with 32 calls, and returns the average allocations of 200 more.
func simAllocsPerOp(t *testing.T, op func(ctx exec.Context, lt *lapi.Task, tgt lapi.Addr)) float64 {
	j, err := cluster.NewSimDefault(2)
	if err != nil {
		t.Fatal(err)
	}
	var avg float64
	err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(64)
		addrs, aerr := lt.AddressInit(ctx, buf)
		if aerr != nil {
			t.Error(aerr)
			return
		}
		if lt.Self() == 0 {
			for i := 0; i < 32; i++ {
				op(ctx, lt, addrs[1])
			}
			avg = testing.AllocsPerRun(200, func() { op(ctx, lt, addrs[1]) })
		}
		lt.Gfence(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return avg
}
