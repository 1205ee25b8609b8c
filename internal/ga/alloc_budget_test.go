//go:build !race

// Allocation budgets for the simulated GA hot path. Race-detector builds
// are excluded: instrumentation changes allocation counts.

package ga_test

import (
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/mpl"
	"golapi/internal/switchnet"
)

// lapiOpAllocBudget bounds steady-state allocations per 1-element GA
// operation over the LAPI backend on the simulated switch. It is lapi's
// own floor (lapi.TestSimPutAllocBudget): the switch's one record per
// packet, for a Put's data packet and its ack or a Get's request and
// reply. The GA layer adds nothing since its pack, landing and reply
// buffers come from the backend's scratch pool and its request
// decomposition stays on the stack; before that a Put+Fence took 4.
const lapiOpAllocBudget = 2.0

// lapiAMPutAllocBudget bounds a 2-D Put+Fence whose 4x4 patch travels as
// one active message (below DirectSwitchBytes, within AMChunkBytes) — the
// path of the 2-D sweep points below the direct switch: 23 while every
// completion handler got a coroutine, name and Context of its own, 7
// since. That is lapi's 6 for a one-packet AmsendSync with a completion
// handler (lapi.TestSimAmsendAllocBudget) plus the closure GA's header
// handler returns; the pack buffer, landing block and request header come
// from pools.
const lapiAMPutAllocBudget = 7.0

// mplPutAllocBudget and mplGetAllocBudget bound the same operations over
// the MPL backend: 69 and 39 before its request messages and reply buffers
// came from the scratch pool, 61 and 34 since, and 29 and 18 since an
// rcvncall hook runs on a finished process's coroutine under a name built
// once per task, and Rcvncall passes the handler on without wrapping it.
// Every allocation left is below the GA layer, in mpi and the switch.
const (
	mplPutAllocBudget = 29.0
	mplGetAllocBudget = 18.0
)

// elemPatch is a 1-element patch owned by rank 1.
func elemPatch(a *ga.Array) ga.Patch {
	d := a.Distribution(1)
	return ga.Patch{RLo: d.RLo, RHi: d.RLo, CLo: d.CLo, CHi: d.CLo}
}

// measureGA times a 1-element Put+Fence and a 1-element Get from rank 0 of
// a two-rank world and returns their allocations per call (zero on rank 1).
func measureGA(t *testing.T, w *ga.World, ctx exec.Context) (put, get float64) {
	a, err := w.Create(ctx, 64, 64)
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	if w.Self() == 0 {
		p := elemPatch(a)
		val, out := []float64{42.5}, make([]float64, 1)
		doPut := func() {
			if err := a.Put(ctx, p, val, 1); err != nil {
				t.Error(err)
			}
			if err := w.Fence(ctx); err != nil {
				t.Error(err)
			}
		}
		doGet := func() {
			if err := a.Get(ctx, p, out, 1); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 32; i++ { // warm pools, free lists, message maps
			doPut()
			doGet()
		}
		put = testing.AllocsPerRun(200, doPut)
		get = testing.AllocsPerRun(200, doGet)
	}
	if err := w.Sync(ctx); err != nil {
		t.Error(err)
	}
	return put, get
}

func TestLAPIOpAllocBudget(t *testing.T) {
	j, err := cluster.NewSimDefault(2)
	if err != nil {
		t.Fatal(err)
	}
	var put, get float64
	err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, lt, ga.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		if p, g := measureGA(t, w, ctx); lt.Self() == 0 {
			put, get = p, g
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBudget(t, "LAPI", put, get, lapiOpAllocBudget, lapiOpAllocBudget)
}

func TestLAPIAMPutAllocBudget(t *testing.T) {
	j, err := cluster.NewSimDefault(2)
	if err != nil {
		t.Fatal(err)
	}
	var put float64
	err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, lt, ga.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		a, err := w.Create(ctx, 64, 64)
		if err != nil {
			t.Error(err)
			return
		}
		if lt.Self() == 0 {
			d := a.Distribution(1)
			p := ga.Patch{RLo: d.RLo, RHi: d.RLo + 3, CLo: d.CLo, CHi: d.CLo + 3}
			val := make([]float64, p.Elems())
			doPut := func() {
				if err := a.Put(ctx, p, val, p.Cols()); err != nil {
					t.Error(err)
				}
				if err := w.Fence(ctx); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 32; i++ { // warm pools, free lists, message maps
				doPut()
			}
			put = testing.AllocsPerRun(200, doPut)
		}
		if err := w.Sync(ctx); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if put > lapiAMPutAllocBudget {
		t.Errorf("LAPI 4x4 AM Put+Fence: %.2f allocs/op, budget %.1f", put, lapiAMPutAllocBudget)
	}
	t.Logf("LAPI 4x4 AM Put+Fence %.2f allocs/op (budget %.1f)", put, lapiAMPutAllocBudget)
}

func TestMPLOpAllocBudget(t *testing.T) {
	mcfg := mpi.DefaultConfig()
	mcfg.EagerLimit = mcfg.MaxEagerLimit
	j, err := cluster.NewSimMPL(2, switchnet.DefaultConfig(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	var put, get float64
	err = j.Run(func(ctx exec.Context, mt *mpl.Task) {
		w, err := ga.NewMPLWorld(ctx, mt, ga.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		if p, g := measureGA(t, w, ctx); mt.Self() == 0 {
			put, get = p, g
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBudget(t, "MPL", put, get, mplPutAllocBudget, mplGetAllocBudget)
}

func checkBudget(t *testing.T, backend string, put, get, putBudget, getBudget float64) {
	t.Helper()
	if put > putBudget {
		t.Errorf("%s 1-element Put+Fence: %.2f allocs/op, budget %.1f", backend, put, putBudget)
	}
	if get > getBudget {
		t.Errorf("%s 1-element Get: %.2f allocs/op, budget %.1f", backend, get, getBudget)
	}
	t.Logf("%s 1-element Put+Fence %.2f allocs/op (budget %.1f), Get %.2f (budget %.1f)", backend, put, putBudget, get, getBudget)
}
