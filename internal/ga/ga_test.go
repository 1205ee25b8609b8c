package ga_test

import (
	"math"
	"testing"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/mpl"
	"golapi/internal/switchnet"
)

// backends enumerates the two GA implementations; every test runs on both.
var backends = []struct {
	name string
	run  func(t *testing.T, n int, main func(ctx exec.Context, w *ga.World))
}{
	{"LAPI", runLAPIWorld},
	{"MPL", runMPLWorld},
}

func runLAPIWorld(t *testing.T, n int, main func(ctx exec.Context, w *ga.World)) {
	t.Helper()
	c, err := cluster.NewSimDefault(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(func(ctx exec.Context, lt *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, lt, ga.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		main(ctx, w)
	}); err != nil {
		t.Fatal(err)
	}
}

func runMPLWorld(t *testing.T, n int, main func(ctx exec.Context, w *ga.World)) {
	t.Helper()
	mcfg := mpi.DefaultConfig()
	mcfg.EagerLimit = mcfg.MaxEagerLimit // MPL's large buffer pool (§5.4)
	c, err := cluster.NewSimMPL(n, switchnet.DefaultConfig(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(func(ctx exec.Context, mt *mpl.Task) {
		w, err := ga.NewMPLWorld(ctx, mt, ga.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		main(ctx, w)
	}); err != nil {
		t.Fatal(err)
	}
}

func forBothBackends(t *testing.T, n int, main func(ctx exec.Context, w *ga.World)) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) { be.run(t, n, main) })
	}
}

func TestDistributionPartitionsArray(t *testing.T) {
	// Every element must be owned by exactly one rank, and Distribution
	// must agree with Owner — including ragged edges.
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, err := w.Create(ctx, 37, 53) // deliberately indivisible
		if err != nil {
			t.Error(err)
			return
		}
		if w.Self() != 0 {
			w.Sync(ctx)
			return
		}
		count := make(map[int]int)
		for i := 0; i < 37; i++ {
			for j := 0; j < 53; j++ {
				count[a.Owner(i, j)]++
			}
		}
		total := 0
		for r := 0; r < w.N(); r++ {
			p := a.Distribution(r)
			if !p.Empty() {
				if count[r] != p.Elems() {
					t.Errorf("rank %d: Owner count %d vs Distribution %v (%d)", r, count[r], p, p.Elems())
				}
				total += p.Elems()
			} else if count[r] != 0 {
				t.Errorf("rank %d: empty distribution but owns %d elements", r, count[r])
			}
		}
		if total != 37*53 {
			t.Errorf("distributions cover %d elements, want %d", total, 37*53)
		}
		w.Sync(ctx)
	})
}

func TestPutGetRoundTrip2D(t *testing.T) {
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 64, 64)
		p := ga.Patch{RLo: 10, RHi: 40, CLo: 5, CHi: 50} // spans all 4 owners
		if w.Self() == 0 {
			buf := make([]float64, p.Elems())
			for k := range buf {
				buf[k] = float64(k) * 1.5
			}
			if err := a.Put(ctx, p, buf, p.Cols()); err != nil {
				t.Error(err)
			}
		}
		w.Sync(ctx)
		if w.Self() == 3 {
			got := make([]float64, p.Elems())
			if err := a.Get(ctx, p, got, p.Cols()); err != nil {
				t.Error(err)
			}
			for k := range got {
				if got[k] != float64(k)*1.5 {
					t.Errorf("element %d = %g, want %g", k, got[k], float64(k)*1.5)
					return
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestPutGet1D(t *testing.T) {
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 64, 4096)
		p := ga.Patch{RLo: 7, RHi: 7, CLo: 0, CHi: 4095} // one long row
		if w.Self() == 1 {
			buf := make([]float64, p.Elems())
			for k := range buf {
				buf[k] = math.Sqrt(float64(k))
			}
			a.Put(ctx, p, buf, p.Cols())
		}
		w.Sync(ctx)
		if w.Self() == 2 {
			got := make([]float64, p.Elems())
			a.Get(ctx, p, got, p.Cols())
			for k := range got {
				if got[k] != math.Sqrt(float64(k)) {
					t.Errorf("element %d wrong", k)
					return
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestPutWithLeadingDimension(t *testing.T) {
	// Strided user buffers: ld larger than the patch width.
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 32, 32)
		p := ga.Patch{RLo: 4, RHi: 11, CLo: 8, CHi: 15}
		const ld = 20
		if w.Self() == 0 {
			buf := make([]float64, p.Rows()*ld)
			for r := 0; r < p.Rows(); r++ {
				for c := 0; c < p.Cols(); c++ {
					buf[r*ld+c] = float64(100*r + c)
				}
			}
			a.Put(ctx, p, buf, ld)
		}
		w.Sync(ctx)
		if w.Self() == 1 {
			got := make([]float64, p.Rows()*ld)
			a.Get(ctx, p, got, ld)
			for r := 0; r < p.Rows(); r++ {
				for c := 0; c < p.Cols(); c++ {
					if got[r*ld+c] != float64(100*r+c) {
						t.Errorf("(%d,%d) = %g", r, c, got[r*ld+c])
						return
					}
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestLargePutSwitchesToDirectProtocol(t *testing.T) {
	// A 2-D patch above DirectSwitchBytes (0.5 MB = 256x256 doubles) must
	// still be correct through the per-row direct path.
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 600, 600)
		p := ga.Patch{RLo: 0, RHi: 299, CLo: 0, CHi: 299} // 300x300 = 720 KB
		if w.Self() == 0 {
			buf := make([]float64, p.Elems())
			for k := range buf {
				buf[k] = float64(k%977) + 0.25
			}
			a.Put(ctx, p, buf, p.Cols())
		}
		w.Sync(ctx)
		if w.Self() == 2 {
			got := make([]float64, p.Elems())
			a.Get(ctx, p, got, p.Cols())
			for k := range got {
				if got[k] != float64(k%977)+0.25 {
					t.Errorf("element %d = %g", k, got[k])
					return
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestAccumulateSumsExactly(t *testing.T) {
	// Every rank accumulates ones into the same patch concurrently; the
	// result must be exactly alpha*N everywhere (§5.1's atomic,
	// commutative accumulate).
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 48, 48)
		p := ga.Patch{RLo: 0, RHi: 47, CLo: 0, CHi: 47}
		ones := make([]float64, p.Elems())
		for k := range ones {
			ones[k] = 1
		}
		if err := a.Acc(ctx, p, ones, p.Cols(), 2.5); err != nil {
			t.Error(err)
		}
		w.Sync(ctx)
		if w.Self() == 0 {
			got := make([]float64, p.Elems())
			a.Get(ctx, p, got, p.Cols())
			want := 2.5 * float64(w.N())
			for k := range got {
				if got[k] != want {
					t.Errorf("element %d = %g, want %g (lost update?)", k, got[k], want)
					return
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestScatterGather(t *testing.T) {
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 40, 40)
		rows := []int{0, 5, 39, 20, 7, 33}
		cols := []int{0, 35, 39, 20, 31, 2}
		if w.Self() == 0 {
			vals := []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5}
			if err := a.Scatter(ctx, rows, cols, vals); err != nil {
				t.Error(err)
			}
		}
		w.Sync(ctx)
		if w.Self() == 3 {
			out := make([]float64, len(rows))
			if err := a.Gather(ctx, rows, cols, out); err != nil {
				t.Error(err)
			}
			for k, want := range []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5} {
				if out[k] != want {
					t.Errorf("gather[%d] = %g, want %g", k, out[k], want)
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestReadIncUniqueTickets(t *testing.T) {
	// The dynamic load-balancing pattern (§5.1): every ReadInc must
	// return a distinct ticket and the final count must be exact.
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		c, err := w.CreateCounter(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		const perRank = 10
		var got []int64
		for i := 0; i < perRank; i++ {
			v, err := c.ReadInc(ctx, 1)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, v)
		}
		w.Sync(ctx)
		final, _ := c.ReadInc(ctx, 0)
		if final != int64(4*perRank) {
			t.Errorf("rank %d sees final count %d, want %d", w.Self(), final, 4*perRank)
		}
		seen := map[int64]bool{}
		for _, v := range got {
			if seen[v] {
				t.Errorf("duplicate ticket %d on rank %d", v, w.Self())
			}
			seen[v] = true
		}
		w.Sync(ctx)
	})
}

func TestMutexMutualExclusion(t *testing.T) {
	// Classic critical-section check through a global array cell: read,
	// "compute", write back under the lock. Without mutual exclusion the
	// final value would be short.
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 1, 1)
		m, err := w.CreateMutexes(ctx, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if w.Self() == 0 {
			a.Put(ctx, ga.Patch{}, []float64{0}, 1)
		}
		w.Sync(ctx)
		const perRank = 5
		for i := 0; i < perRank; i++ {
			if err := m.Lock(ctx, 1); err != nil {
				t.Error(err)
				return
			}
			v := make([]float64, 1)
			a.Get(ctx, ga.Patch{}, v, 1)
			v[0]++
			a.Put(ctx, ga.Patch{}, v, 1)
			// GA put is non-blocking: fence before releasing the
			// lock so the store is visible to the next holder.
			w.Fence(ctx)
			if err := m.Unlock(ctx, 1); err != nil {
				t.Error(err)
				return
			}
		}
		w.Sync(ctx)
		if w.Self() == 0 {
			v := make([]float64, 1)
			a.Get(ctx, ga.Patch{}, v, 1)
			if v[0] != float64(4*perRank) {
				t.Errorf("counter = %g, want %d (lost updates => broken mutex)", v[0], 4*perRank)
			}
		}
		w.Sync(ctx)
	})
}

func TestFenceMakesPutsVisible(t *testing.T) {
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 16, 16)
		me := float64(w.Self() + 1)
		row := ga.Patch{RLo: w.Self() * 4, RHi: w.Self() * 4, CLo: 0, CHi: 15}
		buf := make([]float64, 16)
		for k := range buf {
			buf[k] = me
		}
		a.Put(ctx, row, buf, 16)
		w.Sync(ctx) // fence + barrier
		// Every rank now reads every row and must see the final values.
		for r := 0; r < w.N(); r++ {
			p := ga.Patch{RLo: r * 4, RHi: r * 4, CLo: 0, CHi: 15}
			got := make([]float64, 16)
			a.Get(ctx, p, got, 16)
			for k := range got {
				if got[k] != float64(r+1) {
					t.Errorf("rank %d: row %d elem %d = %g, want %d", w.Self(), r, k, got[k], r+1)
					return
				}
			}
		}
		w.Sync(ctx)
	})
}

// TestFenceWaitsForOwnOpsNotReplies: a Fence covers this task's own
// operations even while it also serves a peer. Rank 0 accumulates into
// rank 1's block and fences; copies are slow (1 ms per element), so rank 1
// applies the accumulate long after rank 0's fence has started. Meanwhile
// rank 1 gathers an element of rank 0's, and rank 0's reply completes
// first. That reply must not release the fence, or the Get right after it
// reads the element before the accumulate lands.
func TestFenceWaitsForOwnOpsNotReplies(t *testing.T) {
	cfg := ga.DefaultConfig()
	cfg.MemcpyBandwidth = 8e3 // one element per millisecond
	c, err := cluster.NewSimDefault(2)
	if err != nil {
		t.Fatal(err)
	}
	const cols = 100
	err = c.Run(func(ctx exec.Context, lt *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, lt, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		a, err := w.Create(ctx, 2, 2*cols)
		if err != nil {
			t.Error(err)
			return
		}
		theirs := a.Distribution(1 - w.Self())
		if theirs.Cols() < cols {
			t.Errorf("rank %d: peer block %+v, want rows of %d elements", w.Self(), theirs, cols)
			return
		}
		row := ga.Patch{RLo: theirs.RLo, RHi: theirs.RLo, CLo: theirs.CLo, CHi: theirs.CLo + cols - 1}
		if w.Self() == 0 {
			// 100 ms to pack, then 100 ms at rank 1 to apply.
			ones := make([]float64, cols)
			for k := range ones {
				ones[k] = 1
			}
			if err := a.Acc(ctx, row, ones, cols, 1); err != nil {
				t.Error(err)
			}
			if err := w.Fence(ctx); err != nil {
				t.Error(err)
			}
			got := make([]float64, 1)
			if err := a.Get(ctx, ga.Patch{RLo: row.RLo, RHi: row.RLo, CLo: row.CLo, CHi: row.CLo}, got, 1); err != nil {
				t.Error(err)
			}
			if got[0] != 1 {
				t.Errorf("element (%d,%d) = %g right after the fence, want 1: the fence returned before its accumulate completed",
					row.RLo, row.CLo, got[0])
			}
		} else {
			// Gather from rank 0 once its fence has started, with the
			// accumulate still being applied here.
			ctx.Sleep(150 * time.Millisecond)
			out := make([]float64, 1)
			if err := a.Gather(ctx, []int{theirs.RLo}, []int{theirs.CLo}, out); err != nil {
				t.Error(err)
			}
		}
		w.Sync(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalAccess(t *testing.T) {
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 20, 20)
		local := a.Distribution(w.Self())
		// Fill our block locally, then read it remotely.
		for i := local.RLo; i <= local.RHi; i++ {
			for j := local.CLo; j <= local.CHi; j++ {
				a.SetLocal(i, j, float64(i*100+j))
			}
		}
		w.Sync(ctx)
		p := ga.Patch{RLo: 0, RHi: 19, CLo: 0, CHi: 19}
		got := make([]float64, p.Elems())
		a.Get(ctx, p, got, p.Cols())
		for i := 0; i < 20; i++ {
			for j := 0; j < 20; j++ {
				if got[i*20+j] != float64(i*100+j) {
					t.Errorf("(%d,%d) = %g", i, j, got[i*20+j])
					return
				}
			}
		}
		// At must agree with what we stored.
		if a.At(local.RLo, local.CLo) != float64(local.RLo*100+local.CLo) {
			t.Error("At mismatch")
		}
		w.Sync(ctx)
	})
}

func TestRequestValidation(t *testing.T) {
	forBothBackends(t, 2, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 8, 8)
		defer w.Sync(ctx)
		if w.Self() != 0 {
			return
		}
		buf := make([]float64, 64)
		if err := a.Put(ctx, ga.Patch{RLo: 0, RHi: 8, CLo: 0, CHi: 0}, buf, 1); err == nil {
			t.Error("out-of-bounds patch accepted")
		}
		if err := a.Put(ctx, ga.Patch{RLo: 2, RHi: 1, CLo: 0, CHi: 0}, buf, 1); err == nil {
			t.Error("empty patch accepted")
		}
		if err := a.Put(ctx, ga.Patch{RLo: 0, RHi: 3, CLo: 0, CHi: 3}, buf, 2); err == nil {
			t.Error("ld < patch width accepted")
		}
		if err := a.Get(ctx, ga.Patch{RLo: 0, RHi: 7, CLo: 0, CHi: 7}, buf[:10], 8); err == nil {
			t.Error("short buffer accepted")
		}
		if _, err := w.Create(ctx, 0, 5); err == nil {
			t.Error("zero-dim array accepted")
		}
		if err := a.Scatter(ctx, []int{99}, []int{0}, []float64{1}); err == nil {
			t.Error("out-of-range subscript accepted")
		}
	})
}

func TestGridFactorization(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {1, 2},
		4:  {2, 2},
		6:  {2, 3},
		9:  {3, 3},
		12: {3, 4},
	}
	for n, want := range cases {
		// processGrid is internal; exercise it through Distribution on
		// a world of that size (LAPI only; grid logic is shared).
		n, want := n, want
		runLAPIWorld(t, n, func(ctx exec.Context, w *ga.World) {
			a, _ := w.Create(ctx, 100, 100)
			if w.Self() != 0 {
				w.Sync(ctx)
				return
			}
			// Infer grid shape from block sizes.
			p0 := a.Distribution(0)
			gr := (100 + p0.Rows() - 1) / p0.Rows()
			gc := (100 + p0.Cols() - 1) / p0.Cols()
			if gr != want[0] || gc != want[1] {
				t.Errorf("n=%d: grid %dx%d, want %dx%d", n, gr, gc, want[0], want[1])
			}
			w.Sync(ctx)
		})
	}
}
