package ga_test

import (
	"fmt"
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/mpl"
	"golapi/internal/switchnet"
)

// Geometry of the scratch-reuse workout. Two ranks split the array by
// columns, so each owns a reuseRows x reuseCols/2 block, and every region
// below lies in the peer's block:
//   - rows 0-1, full block width: 1-D rows of 32 KB, above the 16 KB
//     rendezvous crossover, so a Put reads its scratch until the CTS
//     comes back and the direct send drains;
//   - rows 2-5, 2560 columns: an 80 KB 2-D patch, above DirectSwitchBytes,
//     sent as one rendezvous Put per 20 KB row;
//   - rows 6-9, 300 columns: a 9.6 KB 2-D patch on the AM path, packed
//     into one Amsend per row.
const (
	reuseRows     = 16
	reuseCols     = 8192
	reuseRndv     = 16 << 10
	reuseRounds   = 6
	reuseGetStorm = 24
)

func reuseConfig(cfg ga.Config) ga.Config {
	cfg.AMChunkBytes = 900
	cfg.DirectSwitchBytes = 64 << 10
	cfg.MaxRequestBytes = 1 << 20
	return cfg
}

// TestTCPGAScratchReuse drives back-to-back Put, Get and Acc with distinct
// data through every GA path that borrows a scratch buffer, on both
// transports, and checks the peer's block against a shadow after every
// round. Rounds alternate an active rank, whose Puts and Accs hold
// rendezvous scratch across a Waitcntr, with a passive rank that meanwhile
// fires AM Gets at it: each Get's reply borrows scratch on the active rank
// from inside a completion handler, so a buffer given back before its
// Put's origin counter fired would be overwritten in flight.
func TestTCPGAScratchReuse(t *testing.T) {
	t.Run("tcpnet", func(t *testing.T) {
		lcfg := lapi.ZeroCost()
		lcfg.RndvLimit = reuseRndv
		j, err := cluster.NewTCPLAPI(2, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
			w, err := ga.NewLAPIWorld(ctx, lt, reuseConfig(ga.Config{}))
			if err != nil {
				t.Error(err)
				return
			}
			scratchWorkout(t, ctx, w)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("switch", func(t *testing.T) {
		lcfg := lapi.DefaultConfig()
		lcfg.RndvLimit = reuseRndv
		j, err := cluster.NewSim(2, switchnet.DefaultConfig(), lcfg)
		if err != nil {
			t.Fatal(err)
		}
		err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
			w, err := ga.NewLAPIWorld(ctx, lt, reuseConfig(ga.DefaultConfig()))
			if err != nil {
				t.Error(err)
				return
			}
			scratchWorkout(t, ctx, w)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("switch-MPL", func(t *testing.T) {
		mcfg := mpi.DefaultConfig()
		mcfg.EagerLimit = mcfg.MaxEagerLimit
		j, err := cluster.NewSimMPL(2, switchnet.DefaultConfig(), mcfg)
		if err != nil {
			t.Fatal(err)
		}
		err = j.Run(func(ctx exec.Context, mt *mpl.Task) {
			w, err := ga.NewMPLWorld(ctx, mt, reuseConfig(ga.DefaultConfig()))
			if err != nil {
				t.Error(err)
				return
			}
			scratchWorkout(t, ctx, w)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// reuseRegion is one target region and the value stream that fills it.
type reuseRegion struct {
	name string
	p    ga.Patch
}

func scratchWorkout(t *testing.T, ctx exec.Context, w *ga.World) {
	a, err := w.Create(ctx, reuseRows, reuseCols)
	if err != nil {
		t.Error(err)
		return
	}
	self, peer := w.Self(), 1-w.Self()
	d := a.Distribution(peer)
	at := func(r0, r1, cols int) ga.Patch {
		return ga.Patch{RLo: d.RLo + r0, RHi: d.RLo + r1, CLo: d.CLo, CHi: d.CLo + cols - 1}
	}
	row := func(k int) reuseRegion { return reuseRegion{"1-D row", at(k%2, k%2, d.Cols())} }
	direct := reuseRegion{"2-D direct", at(2, 5, 2560)}
	am := reuseRegion{"2-D AM", at(6, 9, 300)}

	// shadow mirrors the peer's block; only this rank writes into it.
	shadow := make([]float64, d.Elems())
	idx := func(i, j int) int { return (i-d.RLo)*d.Cols() + (j - d.CLo) }
	// values returns distinct nonzero data for (rank, round, op): no two
	// elements sent anywhere in the run carry the same value (a region
	// has at most 10240 elements, so e/4 stays below the op stride).
	values := func(p ga.Patch, k, op int) []float64 {
		v := make([]float64, p.Elems())
		for e := range v {
			v[e] = float64((self+1)*10_000_000+k*100_000+op*10_000) + float64(e)/4
		}
		return v
	}
	put := func(r reuseRegion, k, op int) bool {
		v := values(r.p, k, op)
		if err := a.Put(ctx, r.p, v, r.p.Cols()); err != nil {
			t.Errorf("rank %d round %d: Put %s: %v", self, k, r.name, err)
			return false
		}
		for e, x := range v {
			shadow[idx(r.p.RLo+e/r.p.Cols(), r.p.CLo+e%r.p.Cols())] = x
		}
		return true
	}
	acc := func(r reuseRegion, k, op int, alpha float64) bool {
		v := values(r.p, k, op)
		if err := a.Acc(ctx, r.p, v, r.p.Cols(), alpha); err != nil {
			t.Errorf("rank %d round %d: Acc %s: %v", self, k, r.name, err)
			return false
		}
		for e, x := range v {
			shadow[idx(r.p.RLo+e/r.p.Cols(), r.p.CLo+e%r.p.Cols())] += alpha * x
		}
		return true
	}
	check := func(r reuseRegion, k int) bool {
		got := make([]float64, r.p.Elems())
		if err := a.Get(ctx, r.p, got, r.p.Cols()); err != nil {
			t.Errorf("rank %d round %d: Get %s: %v", self, k, r.name, err)
			return false
		}
		for e, x := range got {
			i, j := r.p.RLo+e/r.p.Cols(), r.p.CLo+e%r.p.Cols()
			if want := shadow[idx(i, j)]; x != want {
				t.Errorf("rank %d round %d: %s (%d,%d) = %g, want %g", self, k, r.name, i, j, x, want)
				return false
			}
		}
		return true
	}

	// After a failure the rank stops checking but keeps its Syncs, so
	// the peer is not left waiting.
	ok := true
	for k := 0; k < reuseRounds; k++ {
		if ok && k%2 == self {
			ok = put(row(k), k, 0) && put(direct, k, 1) && put(am, k, 2) &&
				w.Fence(ctx) == nil &&
				acc(am, k, 3, 0.5) && acc(direct, k, 4, 2) && put(row(k+1), k, 5) &&
				w.Fence(ctx) == nil
		}
		for g := 0; ok && k%2 != self && g < reuseGetStorm; g++ {
			ok = check(am, k)
		}
		if err := w.Sync(ctx); err != nil {
			t.Error(err)
			return
		}
		for _, r := range []reuseRegion{row(k), row(k + 1), direct, am} {
			ok = ok && check(r, k)
		}
	}
	if ok {
		check(reuseRegion{fmt.Sprintf("block of rank %d", peer), d}, reuseRounds)
	}
	w.Sync(ctx)
}
