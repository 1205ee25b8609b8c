//go:build !race

// Allocation budget for the real-TCP hot path. Race-detector builds are
// excluded: instrumentation changes allocation counts.

package tcpnet_test

import (
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
)

// tcpPutAllocBudgets bounds steady-state allocations per synchronous Put
// over loopback TCP, counted across all goroutines (origin dispatcher,
// write loop, reader, target).
//
// 4 B, the eager path: measured 3.0 when the buffer pool landed (down from
// 10 before it); ~2x headroom so scheduler-dependent variance doesn't
// flake, while a return to per-packet make([]byte) (several allocs per
// message each way) still trips it.
//
// 1 MiB, the rendezvous path (eight times the 128 KB TCP crossover): RTS,
// CTS, then one writev from the caller's slice landed straight in the
// target region — no pool buffer on either side. Measured 0.0, and
// AllocsPerRun reports whole allocations per run, so the 2x rule has
// nothing to double: the budget is the smallest count above the
// measurement. One stray allocation per message trips it; chunking 1 MiB
// through fresh buffers (16 packets each way) would many times over.
var tcpPutAllocBudgets = []struct {
	name   string
	size   int
	rndv   bool // the size must sit on this side of the task's crossover
	budget float64
}{
	{"4B", 4, false, 6.0},
	{"1MiB", 1 << 20, true, 1.0},
}

func TestTCPPutAllocBudget(t *testing.T) {
	for _, tc := range tcpPutAllocBudgets {
		t.Run(tc.name, func(t *testing.T) {
			j, err := cluster.NewTCPLAPI(2, lapi.ZeroCost())
			if err != nil {
				t.Fatal(err)
			}
			var avg float64
			err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
				buf := lt.Alloc(max(tc.size, 64))
				addrs, aerr := lt.AddressInit(ctx, buf)
				if aerr != nil {
					t.Error(aerr)
					return
				}
				if lt.Self() == 0 {
					if x := lt.RndvCrossover(); (tc.size >= x) != tc.rndv {
						t.Errorf("%d-byte Put: crossover %d puts it on the wrong path (want rendezvous = %v)", tc.size, x, tc.rndv)
					}
					src := make([]byte, tc.size)
					for i := 0; i < 32; i++ { // warm pools, connections, message maps, registration cache
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
			if avg > tc.budget {
				t.Errorf("tcp %s PutSync: %.1f allocs/op, budget %.1f — pooled hot path regressed", tc.name, avg, tc.budget)
			}
			t.Logf("tcp %s PutSync: %.1f allocs/op (budget %.1f)", tc.name, avg, tc.budget)
		})
	}
}
