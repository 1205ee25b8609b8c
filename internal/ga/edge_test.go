package ga_test

import (
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/mpi"
	"golapi/internal/mpl"
	"golapi/internal/switchnet"
)

func TestTinyArrayEmptyBlocks(t *testing.T) {
	// A 1x1 array on 4 tasks: three ranks own nothing. Everything must
	// still work (the paper's GA handled arbitrary shapes).
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, err := w.Create(ctx, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		empty := 0
		for r := 0; r < 4; r++ {
			if a.Distribution(r).Empty() {
				empty++
			}
		}
		if empty != 3 {
			t.Errorf("empty blocks = %d, want 3", empty)
		}
		if w.Self() == 3 {
			if err := a.Put(ctx, ga.Patch{}, []float64{13.5}, 1); err != nil {
				t.Error(err)
			}
		}
		w.Sync(ctx)
		got := make([]float64, 1)
		a.Get(ctx, ga.Patch{}, got, 1)
		if got[0] != 13.5 {
			t.Errorf("rank %d reads %g", w.Self(), got[0])
		}
		w.Sync(ctx)
		// The whole-array collectives run on every block, empty ones too.
		if err := a.Fill(ctx, 2); err != nil {
			t.Error(err)
		}
		if err := a.Scale(ctx, 3); err != nil {
			t.Error(err)
		}
		dup, err := a.Duplicate(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if d, err := a.Dot(ctx, dup); err != nil || d != 36 {
			t.Errorf("rank %d: Dot = %g, %v; want 36", w.Self(), d, err)
		}
	})
}

func TestRowAndColumnVectors(t *testing.T) {
	// 1xN and Nx1 arrays stress the grid edge cases.
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		row, _ := w.Create(ctx, 1, 100)
		col, _ := w.Create(ctx, 100, 1)
		if w.Self() == 0 {
			v := make([]float64, 100)
			for k := range v {
				v[k] = float64(k) + 0.5
			}
			if err := row.Put(ctx, ga.Patch{RLo: 0, RHi: 0, CLo: 0, CHi: 99}, v, 100); err != nil {
				t.Error(err)
			}
			if err := col.Put(ctx, ga.Patch{RLo: 0, RHi: 99, CLo: 0, CHi: 0}, v, 1); err != nil {
				t.Error(err)
			}
		}
		w.Sync(ctx)
		if w.Self() == 1 {
			got := make([]float64, 100)
			row.Get(ctx, ga.Patch{RLo: 0, RHi: 0, CLo: 0, CHi: 99}, got, 100)
			for k, v := range got {
				if v != float64(k)+0.5 {
					t.Errorf("row[%d] = %g", k, v)
					return
				}
			}
			col.Get(ctx, ga.Patch{RLo: 0, RHi: 99, CLo: 0, CHi: 0}, got, 1)
			for k, v := range got {
				if v != float64(k)+0.5 {
					t.Errorf("col[%d] = %g", k, v)
					return
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestNonSquareGrid6Tasks(t *testing.T) {
	// 6 tasks -> 2x3 grid: owner arithmetic differs between rows and
	// columns; a patch spanning everything must still round-trip.
	forBothBackends(t, 6, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 30, 30)
		p := ga.Patch{RLo: 0, RHi: 29, CLo: 0, CHi: 29}
		if w.Self() == 5 {
			buf := make([]float64, p.Elems())
			for k := range buf {
				buf[k] = float64(k % 101)
			}
			a.Put(ctx, p, buf, 30)
		}
		w.Sync(ctx)
		if w.Self() == 2 {
			got := make([]float64, p.Elems())
			a.Get(ctx, p, got, 30)
			for k := range got {
				if got[k] != float64(k%101) {
					t.Errorf("element %d = %g", k, got[k])
					return
				}
			}
		}
		w.Sync(ctx)
	})
}

func TestSingleTaskWorld(t *testing.T) {
	// Degenerate 1-task world: everything is loopback.
	forBothBackends(t, 1, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 10, 10)
		p := ga.Patch{RLo: 2, RHi: 7, CLo: 3, CHi: 8}
		buf := make([]float64, p.Elems())
		for k := range buf {
			buf[k] = float64(k)
		}
		if err := a.Put(ctx, p, buf, p.Cols()); err != nil {
			t.Error(err)
		}
		w.Sync(ctx)
		got := make([]float64, p.Elems())
		a.Get(ctx, p, got, p.Cols())
		for k := range got {
			if got[k] != float64(k) {
				t.Errorf("element %d = %g", k, got[k])
				return
			}
		}
		c, _ := w.CreateCounter(ctx)
		if v, _ := c.ReadInc(ctx, 5); v != 0 {
			t.Errorf("first readinc = %d", v)
		}
		if v, _ := c.ReadInc(ctx, 0); v != 5 {
			t.Errorf("second readinc = %d", v)
		}
		sum, _ := w.ReduceSum(ctx, 3.25)
		if sum != 3.25 {
			t.Errorf("1-task reduce = %g", sum)
		}
		w.Sync(ctx)
	})
}

func TestSingleRowPatchAcrossColumnOwners(t *testing.T) {
	// A 1-row patch spanning two column owners: two contiguous (1-D)
	// subrequests with different owners.
	forBothBackends(t, 4, func(ctx exec.Context, w *ga.World) {
		a, _ := w.Create(ctx, 16, 16) // 2x2 grid: column split at 8
		p := ga.Patch{RLo: 5, RHi: 5, CLo: 4, CHi: 11}
		if w.Self() == 0 {
			a.Put(ctx, p, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 8)
		}
		w.Sync(ctx)
		if w.Self() == 3 {
			got := make([]float64, 8)
			a.Get(ctx, p, got, 8)
			for k, v := range got {
				if v != float64(k+1) {
					t.Errorf("element %d = %g", k, v)
				}
			}
		}
		w.Sync(ctx)
	})
}

// TestMPLSmallRequestBuffer scatters and gathers more subscripts to one
// owner than one MPL request holds: the backend must split them into
// requests that fit the server's buffer and give the LAPI backend's
// results.
func TestMPLSmallRequestBuffer(t *testing.T) {
	const dim, n = 16, 40 // 2x2 grid: rank 3 owns rows and columns 8..15
	rows, cols, vals := make([]int, n), make([]int, n), make([]float64, n)
	for k := range vals {
		rows[k], cols[k], vals[k] = 8+k/8, 8+k%8, float64(k)+0.25
	}
	results := map[string][]float64{}
	for _, be := range []struct {
		name     string
		maxBytes int
	}{{"LAPI", 0}, {"MPL", 104}} {
		results[be.name] = make([]float64, n)
		main := func(ctx exec.Context, w *ga.World) {
			a, err := w.Create(ctx, dim, dim)
			if err != nil {
				t.Error(err)
				return
			}
			if w.Self() == 0 {
				if err := a.Scatter(ctx, rows, cols, vals); err != nil {
					t.Error(err)
				}
			}
			w.Sync(ctx)
			if w.Self() == 1 {
				if err := a.Gather(ctx, rows, cols, results[be.name]); err != nil {
					t.Error(err)
				}
			}
			w.Sync(ctx)
		}
		if be.maxBytes == 0 {
			runLAPIWorld(t, 4, main)
			continue
		}
		runMPLWorldConfig(t, 4, be.maxBytes, func(ctx exec.Context, w *ga.World, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			main(ctx, w)
		})
	}
	for k, want := range vals {
		if got := results["MPL"][k]; got != want || results["LAPI"][k] != want {
			t.Errorf("gather[%d]: MPL %g, LAPI %g, want %g", k, got, results["LAPI"][k], want)
		}
	}
}

// TestMPLRequestBufferTooSmall: a request buffer that holds no scatter
// record is refused at creation (a put would otherwise split into empty
// chunks forever).
func TestMPLRequestBufferTooSmall(t *testing.T) {
	runMPLWorldConfig(t, 2, 44, func(ctx exec.Context, w *ga.World, err error) {
		if err == nil {
			t.Error("NewMPLWorld accepted MaxRequestBytes=44, which holds no scatter record")
		}
	})
}

// runMPLWorldConfig runs main on an n-task MPL world whose request buffer
// is maxBytes, handing it NewMPLWorld's result.
func runMPLWorldConfig(t *testing.T, n, maxBytes int, main func(ctx exec.Context, w *ga.World, err error)) {
	t.Helper()
	mcfg := mpi.DefaultConfig()
	mcfg.EagerLimit = mcfg.MaxEagerLimit
	c, err := cluster.NewSimMPL(n, switchnet.DefaultConfig(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ga.DefaultConfig()
	cfg.MaxRequestBytes = maxBytes
	if err := c.Run(func(ctx exec.Context, mt *mpl.Task) {
		w, err := ga.NewMPLWorld(ctx, mt, cfg)
		main(ctx, w, err)
	}); err != nil {
		t.Fatal(err)
	}
}
