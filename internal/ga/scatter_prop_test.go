package ga_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"golapi/internal/exec"
	"golapi/internal/ga"
)

// TestPropScatterGatherMatchesReference: random subscript sets (with
// duplicates across ranks' disjoint value spaces avoided by a per-rank
// region) scatter and gather back exactly, on both backends.
func TestPropScatterGatherMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		ok := true
		for _, be := range backends {
			be.run(t, 4, func(ctx exec.Context, w *ga.World) {
				const dim = 32
				a, _ := w.Create(ctx, dim, dim)
				a.Zero(ctx)

				// Rank 0 scatters to unique random cells.
				rng := rand.New(rand.NewSource(seed))
				n := rng.Intn(30) + 1
				used := map[[2]int]bool{}
				var rows, cols []int
				var vals []float64
				for len(rows) < n {
					i, j := rng.Intn(dim), rng.Intn(dim)
					if used[[2]int{i, j}] {
						continue
					}
					used[[2]int{i, j}] = true
					rows = append(rows, i)
					cols = append(cols, j)
					vals = append(vals, float64(rng.Intn(1_000_000)))
				}
				if w.Self() == 0 {
					if err := a.Scatter(ctx, rows, cols, vals); err != nil {
						t.Error(err)
						ok = false
					}
				}
				w.Sync(ctx)
				if w.Self() == 2 {
					out := make([]float64, n)
					if err := a.Gather(ctx, rows, cols, out); err != nil {
						t.Error(err)
						ok = false
					}
					for k := range out {
						if out[k] != vals[k] {
							t.Errorf("gather[%d] = %g, want %g", k, out[k], vals[k])
							ok = false
							break
						}
					}
					// Untouched cells must still be zero.
					full := make([]float64, dim*dim)
					a.Get(ctx, ga.Patch{RLo: 0, RHi: dim - 1, CLo: 0, CHi: dim - 1}, full, dim)
					sum := 0.0
					for _, v := range full {
						sum += v
					}
					want := 0.0
					for _, v := range vals {
						want += v
					}
					if sum != want {
						t.Errorf("array sum %g, want %g (scatter touched extra cells)", sum, want)
						ok = false
					}
				}
				w.Sync(ctx)
			})
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestScatterGatherTimingDeterministic repeats one Scatter+Fence and one
// Gather that touch four owners unevenly (1, 5, 20 and 60 subscripts) on
// fresh clusters and requires a single virtual completion time for each:
// the per-owner requests must leave in a fixed order, not in map-iteration
// order.
func TestScatterGatherTimingDeterministic(t *testing.T) {
	const dim = 16 // 2x2 grid of 8x8 blocks
	var rows, cols []int
	for owner, n := range []int{1, 5, 20, 60} {
		r0, c0 := owner/2*dim/2, owner%2*dim/2
		for k := 0; k < n; k++ {
			rows, cols = append(rows, r0+k/8), append(cols, c0+k%8)
		}
	}
	vals := make([]float64, len(rows))
	for k := range vals {
		vals[k] = float64(k) + 0.5
	}
	for _, be := range backends {
		times := map[string]bool{}
		for run := 0; run < 40; run++ {
			var scatter, gather time.Duration
			be.run(t, 4, func(ctx exec.Context, w *ga.World) {
				a, err := w.Create(ctx, dim, dim)
				if err != nil {
					t.Error(err)
					return
				}
				w.Sync(ctx)
				if w.Self() == 0 {
					start := ctx.Now()
					if err := a.Scatter(ctx, rows, cols, vals); err != nil {
						t.Error(err)
					}
					if err := w.Fence(ctx); err != nil {
						t.Error(err)
					}
					scatter, start = ctx.Now()-start, ctx.Now()
					out := make([]float64, len(rows))
					if err := a.Gather(ctx, rows, cols, out); err != nil {
						t.Error(err)
					}
					gather = ctx.Now() - start
				}
				w.Sync(ctx)
			})
			times[fmt.Sprintf("scatter+fence %v, gather %v", scatter, gather)] = true
		}
		if len(times) != 1 {
			t.Errorf("%s: %d different virtual times over 40 runs: %v", be.name, len(times), times)
		}
	}
}
