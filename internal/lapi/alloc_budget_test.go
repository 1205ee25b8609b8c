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

func TestSimPutAllocBudget(t *testing.T) {
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
			src := []byte{1, 2, 3, 4}
			for i := 0; i < 32; i++ { // warm pools, free lists, message maps
				lt.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			}
			avg = testing.AllocsPerRun(200, func() {
				lt.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			})
		}
		lt.Gfence(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg > simPutAllocBudget {
		t.Errorf("sim 4-byte PutSync: %.1f allocs/op, budget %.1f — pooled hot path regressed", avg, simPutAllocBudget)
	}
	t.Logf("sim 4-byte PutSync: %.1f allocs/op (budget %.1f)", avg, simPutAllocBudget)
}
