package ga_test

// Tests for the row operations and the counter location (direct.go): data
// moved by PutRow, GetRow and AccRow must agree with the portable GA
// operations, whose storage format the rows carry, and the counter word
// must interoperate with raw LAPI Rmw, as the gateway uses them.

import (
	"encoding/binary"
	"math"
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/stats"
)

// runLAPIDirect runs main on a simulated LAPI cluster, handing each rank
// its GA world, the underlying LAPI task, and a reading of the number of
// packets the switch has sent so far.
func runLAPIDirect(t *testing.T, n int, main func(ctx exec.Context, w *ga.World, lt *lapi.Task, sent func() int64)) {
	t.Helper()
	c, err := cluster.NewSimDefault(n)
	if err != nil {
		t.Fatal(err)
	}
	sent := func() int64 { return c.Switch.Counters.Get(stats.PacketsSent) }
	if err := c.Run(func(ctx exec.Context, lt *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, lt, ga.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		main(ctx, w, lt, sent)
	}); err != nil {
		t.Fatal(err)
	}
}

func rowBytes(vals []float64) []byte {
	b := make([]byte, len(vals)*8)
	for k, v := range vals {
		binary.BigEndian.PutUint64(b[k*8:], math.Float64bits(v))
	}
	return b
}

func rowVals(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for k := range vals {
		vals[k] = math.Float64frombits(binary.BigEndian.Uint64(b[k*8:]))
	}
	return vals
}

// getRow reads a row segment with the portable Get.
func getRow(t *testing.T, ctx exec.Context, a *ga.Array, row, col, count int) []float64 {
	t.Helper()
	out := make([]float64, count)
	if err := a.Get(ctx, ga.Patch{RLo: row, RHi: row, CLo: col, CHi: col + count - 1}, out, count); err != nil {
		t.Error(err)
	}
	return out
}

func sameVals(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: element %d = %v, want %v", what, k, got[k], want[k])
			return
		}
	}
}

// TestLocalBlockMatchesDistribution runs the row operations on the rows of
// each rank's own block, as Distribution reports it, where every piece is
// applied in place: the block they read and write is the one the portable
// operations see.
func TestLocalBlockMatchesDistribution(t *testing.T) {
	runLAPIDirect(t, 4, func(ctx exec.Context, w *ga.World, _ *lapi.Task, _ func() int64) {
		a, err := w.Create(ctx, 37, 53) // ragged on a 2x2 grid
		if err != nil {
			t.Error(err)
			return
		}
		f := func(i, j int) float64 { return float64(1000*i + j) }
		// Rank 0 fills the whole array with f.
		if w.Self() == 0 {
			rows, cols := a.Dims()
			buf := make([]float64, rows*cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					buf[i*cols+j] = f(i, j)
				}
			}
			if err := a.Put(ctx, ga.Patch{RLo: 0, RHi: rows - 1, CLo: 0, CHi: cols - 1}, buf, cols); err != nil {
				t.Error(err)
				return
			}
		}
		w.Sync(ctx)

		local := a.Distribution(w.Self())
		for i := local.RLo; i <= local.RHi; i++ {
			out := make([]byte, local.Cols()*8)
			if err := a.GetRow(ctx, i, local.CLo, out); err != nil {
				t.Error(err)
				return
			}
			vals := rowVals(out)
			for k := range vals {
				if want := f(i, local.CLo+k); vals[k] != want {
					t.Errorf("rank %d: GetRow element (%d,%d) = %v, want %v", w.Self(), i, local.CLo+k, vals[k], want)
					return
				}
				vals[k] = -vals[k]
			}
			// Put -f, then add 3f: the block ends at 2f.
			if err := a.PutRow(ctx, i, local.CLo, rowBytes(vals)); err != nil {
				t.Error(err)
			}
			for k := range vals {
				vals[k] = -vals[k]
			}
			if err := a.AccRow(ctx, i, local.CLo, 3, rowBytes(vals)); err != nil {
				t.Error(err)
			}
		}
		w.Sync(ctx)
		if w.Self() == 0 {
			rows, cols := a.Dims()
			for i := 0; i < rows; i++ {
				got := getRow(t, ctx, a, i, 0, cols)
				for j := range got {
					if want := 2 * f(i, j); got[j] != want {
						t.Errorf("element (%d,%d) = %v after local row ops, want %v", i, j, got[j], want)
						return
					}
				}
			}
		}
		w.Sync(ctx)
	})
}

// rowWorkout runs, from rank 0 of a four-rank world, the row operations on
// segments that straddle owners of a 19x41 array and checks each against
// the portable Get; then checks that malformed segments are rejected.
// sent, when not nil, reads the packets sent so far: a rejected segment
// must send none.
func rowWorkout(t *testing.T, ctx exec.Context, w *ga.World, sent func() int64) {
	a, err := w.Create(ctx, 19, 41)
	if err != nil {
		t.Error(err)
		return
	}
	rows, cols := a.Dims()
	if w.Self() == 0 {
		buf := make([]float64, rows*cols)
		for i := range buf {
			buf[i] = float64(i) * 0.5
		}
		if err := a.Put(ctx, ga.Patch{RLo: 0, RHi: rows - 1, CLo: 0, CHi: cols - 1}, buf, cols); err != nil {
			t.Error(err)
		}
	}
	w.Sync(ctx)
	if w.Self() == 0 {
		// Segments chosen to cross the column-block boundary of a 2x2
		// grid on 41 columns (blockC=21), plus edge cases.
		cases := []struct{ row, col, count int }{
			{0, 0, cols}, // full row, both owners
			{18, 20, 2},  // straddles the block boundary
			{7, 21, 1},   // single element, right block
			{12, 0, 21},  // exactly the left block
			{3, 40, 1},   // last column
			{5, 19, 22},  // boundary to end of row
		}
		for _, tc := range cases {
			out := make([]byte, tc.count*8)
			if err := a.GetRow(ctx, tc.row, tc.col, out); err != nil {
				t.Errorf("GetRow(%d,%d,%d): %v", tc.row, tc.col, tc.count, err)
				continue
			}
			sameVals(t, "GetRow", rowVals(out), getRow(t, ctx, a, tc.row, tc.col, tc.count))

			vals := make([]float64, tc.count)
			for k := range vals {
				vals[k] = float64(100*tc.row + k)
			}
			if err := a.PutRow(ctx, tc.row, tc.col, rowBytes(vals)); err != nil {
				t.Errorf("PutRow(%d,%d,%d): %v", tc.row, tc.col, tc.count, err)
				continue
			}
			sameVals(t, "PutRow", getRow(t, ctx, a, tc.row, tc.col, tc.count), vals)

			add := make([]float64, tc.count)
			for k := range add {
				add[k] = float64(k + 1)
				vals[k] += 2 * add[k]
			}
			if err := a.AccRow(ctx, tc.row, tc.col, 2, rowBytes(add)); err != nil {
				t.Errorf("AccRow(%d,%d,%d): %v", tc.row, tc.col, tc.count, err)
				continue
			}
			sameVals(t, "AccRow", getRow(t, ctx, a, tc.row, tc.col, tc.count), vals)
		}
		// Out-of-range segments, and one that is not whole elements, are
		// rejected before anything is sent.
		var before int64
		if sent != nil {
			before = sent()
		}
		for _, bad := range []struct{ row, col, bytes int }{
			{-1, 0, 8}, {19, 0, 8}, {0, -1, 16}, {0, 40, 16}, {0, 0, 0}, {0, 0, 12},
		} {
			data := make([]byte, bad.bytes)
			if a.PutRow(ctx, bad.row, bad.col, data) == nil {
				t.Errorf("PutRow(%d,%d) of %d bytes accepted", bad.row, bad.col, bad.bytes)
			}
			if a.GetRow(ctx, bad.row, bad.col, data) == nil {
				t.Errorf("GetRow(%d,%d) of %d bytes accepted", bad.row, bad.col, bad.bytes)
			}
			if a.AccRow(ctx, bad.row, bad.col, 1, data) == nil {
				t.Errorf("AccRow(%d,%d) of %d bytes accepted", bad.row, bad.col, bad.bytes)
			}
		}
		if sent != nil {
			if n := sent() - before; n != 0 {
				t.Errorf("rejected row segments sent %d packets", n)
			}
		}
	}
	w.Sync(ctx)
}

// rowAccMix has ranks 1 and 3 accumulate with AccRow, and rank 2 with
// the portable Acc, into one row segment that straddles ranks 2 and 3 of a
// four-rank world: rank 2's Acc and rank 3's AccRow each fold a piece
// into their own block. Every sum is an integer, so the result is exact
// in any order.
func rowAccMix(t *testing.T, ctx exec.Context, w *ga.World) {
	a, err := w.Create(ctx, 8, 32) // 2x2 grid of 4x16 blocks
	if err != nil {
		t.Error(err)
		return
	}
	const row, col, count, rounds = 5, 10, 12, 10
	data := make([]float64, count)
	for k := range data {
		data[k] = float64(w.Self()) // rank r adds r per round
	}
	for r := 0; r < rounds && w.Self() > 0; r++ {
		if w.Self() == 2 {
			err = a.Acc(ctx, ga.Patch{RLo: row, RHi: row, CLo: col, CHi: col + count - 1}, data, count, 1)
		} else {
			err = a.AccRow(ctx, row, col, 1, rowBytes(data))
		}
		if err != nil {
			t.Error(err)
			return
		}
	}
	w.Sync(ctx)
	if w.Self() == 0 {
		want := make([]float64, count)
		for k := range want {
			want[k] = rounds * (1 + 2 + 3)
		}
		sameVals(t, "AccRow and Acc", getRow(t, ctx, a, row, col, count), want)
	}
	w.Sync(ctx)
}

func TestRowSpanAddressesAgreeWithGet(t *testing.T) {
	runLAPIDirect(t, 4, func(ctx exec.Context, w *ga.World, _ *lapi.Task, sent func() int64) {
		rowWorkout(t, ctx, w, sent)
	})
}

func TestAccRowMixesWithAcc(t *testing.T) {
	runLAPIDirect(t, 4, func(ctx exec.Context, w *ga.World, _ *lapi.Task, _ func() int64) {
		rowAccMix(t, ctx, w)
	})
}

// TestTCPRowOps runs the same row operations over real sockets, where the
// owners' completion handlers run concurrently with the origin.
func TestTCPRowOps(t *testing.T) {
	j, err := cluster.NewTCPLAPI(4, lapi.ZeroCost())
	if err != nil {
		t.Fatal(err)
	}
	err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, lt, ga.Config{AMChunkBytes: 900, DirectSwitchBytes: 512 * 1024})
		if err != nil {
			t.Error(err)
			return
		}
		rowWorkout(t, ctx, w, nil)
		rowAccMix(t, ctx, w)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounterLocationInteroperatesWithRmw(t *testing.T) {
	runLAPIDirect(t, 3, func(ctx exec.Context, w *ga.World, lt *lapi.Task, _ func() int64) {
		c, err := w.CreateCounter(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		owner, addr, ok := c.Location()
		if !ok {
			t.Errorf("rank %d: Location not available on LAPI backend", w.Self())
			return
		}
		// Rank 0 bumps the counter by 100 with a raw FetchAndAdd against the
		// reported address; everyone else waits, then a portable ReadInc must
		// observe the raw increment.
		if w.Self() == 0 {
			prev, err := lt.RmwSync(ctx, lapi.RmwFetchAndAdd, owner, addr, 100, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if prev != 0 {
				t.Errorf("raw FetchAndAdd saw initial value %d, want 0", prev)
			}
		}
		w.Sync(ctx)
		got, err := c.ReadInc(ctx, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if got < 100 || got > 100+int64(w.N())-1 {
			t.Errorf("rank %d: ReadInc after raw add returned %d, want in [100,%d]",
				w.Self(), got, 100+w.N()-1)
		}
		w.Sync(ctx)
	})
}

func TestDirectExportsUnavailableOnMPL(t *testing.T) {
	runMPLWorld(t, 2, func(ctx exec.Context, w *ga.World) {
		a, err := w.Create(ctx, 8, 8)
		if err != nil {
			t.Error(err)
			return
		}
		row := make([]byte, 8*8)
		if a.PutRow(ctx, 0, 0, row) == nil {
			t.Error("PutRow succeeded on MPL backend")
		}
		if a.GetRow(ctx, 0, 0, row) == nil {
			t.Error("GetRow succeeded on MPL backend")
		}
		if a.AccRow(ctx, 0, 0, 1, row) == nil {
			t.Error("AccRow succeeded on MPL backend")
		}
		c, err := w.CreateCounter(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if _, _, ok := c.Location(); ok {
			t.Error("Location reported ok on MPL backend")
		}
		w.Sync(ctx)
	})
}
