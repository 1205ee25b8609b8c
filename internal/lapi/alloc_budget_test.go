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

// simRmwAllocBudget bounds a FetchAndAdd RmwSync: the same 2 as PutSync
// (the request packet's record and the reply's), now that the previous
// value lands in the pooled slot the call borrows with its counter (3
// while it was a local moved to the heap on every call).
const simRmwAllocBudget = 2.0

// simGetStridedAllocBudget bounds a 4-block GetStrided plus its Waitcntr:
// the same 2 as a contiguous Get, now that the target gathers the vector
// straight into its reply packets instead of packing it into a buffer it
// allocated per request (3 before).
const simGetStridedAllocBudget = 2.0

// simAmsendAllocBudget bounds a one-packet AmsendSync whose header handler
// names a completion handler: 25 while every completion handler got a new
// coroutine, a formatted name, a closure and a Context of its own and the
// trace calls boxed message IDs with tracing off (22 while the IDs stay
// below 256), 6 since the engine runs it on a finished process's coroutine,
// the name is built once per task, the activity is bound once per recycled
// message record, the process is its own Context and the trace calls are
// guarded. Left are the switch's record per packet (the data packet, its
// ack and the completion ack), the AmInfo the header handler may keep, and
// the process handle plus the closure the runtime wraps the activity in.
const simAmsendAllocBudget = 6.0

func TestSimPutAllocBudget(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	avg := simAllocsPerOp(t, nil, func(ctx exec.Context, lt *lapi.Task, tgt lapi.Addr) {
		lt.PutSync(ctx, 1, tgt, src, lapi.NoCounter)
	})
	if avg > simPutAllocBudget {
		t.Errorf("sim 4-byte PutSync: %.1f allocs/op, budget %.1f — pooled hot path regressed", avg, simPutAllocBudget)
	}
	t.Logf("sim 4-byte PutSync: %.1f allocs/op (budget %.1f)", avg, simPutAllocBudget)
}

func TestSimRmwAllocBudget(t *testing.T) {
	avg := simAllocsPerOp(t, nil, func(ctx exec.Context, lt *lapi.Task, tgt lapi.Addr) {
		if _, err := lt.RmwSync(ctx, lapi.RmwFetchAndAdd, 1, tgt, 1, 0); err != nil {
			t.Error(err)
		}
	})
	if avg > simRmwAllocBudget {
		t.Errorf("sim FetchAndAdd RmwSync: %.1f allocs/op, budget %.1f — blocking-call slot regressed", avg, simRmwAllocBudget)
	}
	t.Logf("sim FetchAndAdd RmwSync: %.1f allocs/op (budget %.1f)", avg, simRmwAllocBudget)
}

func TestSimGetStridedAllocBudget(t *testing.T) {
	st := lapi.Stride{Blocks: 4, BlockBytes: 4, StrideBytes: 16}
	buf := make([]byte, st.Total())
	var org *lapi.Counter
	avg := simAllocsPerOp(t, nil, func(ctx exec.Context, lt *lapi.Task, tgt lapi.Addr) {
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

// nopCompletion is a completion handler that does nothing, so the budget
// counts only what LAPI spends on running one.
func nopCompletion(exec.Context, *lapi.Task) {}

func TestSimAmsendAllocBudget(t *testing.T) {
	uhdr, udata := []byte{1, 2, 3, 4}, []byte{5, 6, 7, 8, 9, 10, 11, 12}
	var hdl lapi.HandlerID
	setup := func(lt *lapi.Task) {
		land := lt.Alloc(len(udata))
		hdl = lt.RegisterHandler(func(*lapi.Task, *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			return land, nopCompletion
		})
	}
	avg := simAllocsPerOp(t, setup, func(ctx exec.Context, lt *lapi.Task, _ lapi.Addr) {
		if err := lt.AmsendSync(ctx, 1, hdl, uhdr, udata, lapi.NoCounter); err != nil {
			t.Error(err)
		}
	})
	if avg > simAmsendAllocBudget {
		t.Errorf("sim one-packet AmsendSync with a completion handler: %.1f allocs/op, budget %.1f — active-message path regressed", avg, simAmsendAllocBudget)
	}
	t.Logf("sim one-packet AmsendSync with a completion handler: %.1f allocs/op (budget %.1f)", avg, simAmsendAllocBudget)
}

// simAllocsPerOp runs op from task 0 against a 64-byte block of task 1 on
// a two-task simulated switch, warms pools, free lists and message maps
// with 300 calls — enough to carry message IDs past 255, the largest
// integer an interface conversion boxes without allocating, so a trace
// argument boxed with tracing off would show — and returns the average
// allocations of 200 more. setup, when not nil, runs first on every task
// (to register handlers).
func simAllocsPerOp(t *testing.T, setup func(lt *lapi.Task), op func(ctx exec.Context, lt *lapi.Task, tgt lapi.Addr)) float64 {
	j, err := cluster.NewSimDefault(2)
	if err != nil {
		t.Fatal(err)
	}
	var avg float64
	err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
		if setup != nil {
			setup(lt)
		}
		buf := lt.Alloc(64)
		addrs, aerr := lt.AddressInit(ctx, buf)
		if aerr != nil {
			t.Error(aerr)
			return
		}
		if lt.Self() == 0 {
			for i := 0; i < 300; i++ {
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
