package ga

import (
	"fmt"
	"math"

	"golapi/internal/exec"
)

// Whole-array and collective operations. The GA applications the paper
// cites (§5.1, §5.4: SCF, DFT, MP-2) use these alongside put/get/acc:
// zeroing and duplicating work arrays, elementwise fills and copies, dot
// products and global reductions. They are built entirely on the one-sided
// primitives plus Sync, so they work identically on both backends.

// Zero sets every element of the array to zero. Collective.
func (a *Array) Zero(ctx exec.Context) error {
	return a.Fill(ctx, 0)
}

// Fill sets every element to v. Collective: each task fills its own block
// (owner-computes), then all synchronize.
func (a *Array) Fill(ctx exec.Context, v float64) error {
	_, blk := a.w.b.block(a)
	for k := 0; k < len(blk); k += 8 {
		putF64(blk[k:], v)
	}
	// Owner-computes cost: one store sweep over the block.
	a.w.cfg.charge(ctx, len(blk))
	return a.w.Sync(ctx)
}

// CopyFrom copies src into a (same dimensions required). Collective:
// owner-computes when distributions align, which they do for arrays
// created with identical shapes on the same world.
func (a *Array) CopyFrom(ctx exec.Context, src *Array) error {
	if src.w != a.w {
		return fmt.Errorf("ga: CopyFrom across worlds")
	}
	if src.rows != a.rows || src.cols != a.cols {
		return fmt.Errorf("ga: CopyFrom %dx%d from %dx%d", a.rows, a.cols, src.rows, src.cols)
	}
	_, blk := a.w.b.block(a)
	_, from := a.w.b.block(src)
	copy(blk, from)
	a.w.cfg.charge(ctx, 2*len(blk))
	return a.w.Sync(ctx)
}

// Scale multiplies every element by alpha. Collective.
func (a *Array) Scale(ctx exec.Context, alpha float64) error {
	_, blk := a.w.b.block(a)
	for k := 0; k < len(blk); k += 8 {
		putF64(blk[k:], alpha*getF64(blk[k:]))
	}
	a.w.cfg.charge(ctx, 2*len(blk))
	return a.w.Sync(ctx)
}

// Duplicate collectively creates a new array with the same shape and
// contents as a (GA_Duplicate + copy).
func (a *Array) Duplicate(ctx exec.Context) (*Array, error) {
	dup, err := a.w.Create(ctx, a.rows, a.cols)
	if err != nil {
		return nil, err
	}
	if err := dup.CopyFrom(ctx, a); err != nil {
		return nil, err
	}
	return dup, nil
}

// Dot returns the global dot product <a, b>. Collective: each task reduces
// its own block, then the partials are summed with ReduceSum. Both arrays
// must have the same shape.
func (a *Array) Dot(ctx exec.Context, b *Array) (float64, error) {
	if b.w != a.w {
		return 0, fmt.Errorf("ga: Dot across worlds")
	}
	if a.rows != b.rows || a.cols != b.cols {
		return 0, fmt.Errorf("ga: Dot %dx%d with %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	_, x := a.w.b.block(a)
	_, y := a.w.b.block(b)
	partial := 0.0
	for k := 0; k < len(x); k += 8 {
		partial += getF64(x[k:]) * getF64(y[k:])
	}
	a.w.cfg.charge(ctx, 2*len(x))
	return a.w.ReduceSum(ctx, partial)
}

// ReduceSum is GA's global floating-point sum (the GOP/dgop of the
// original toolkit): every task contributes x and receives the total.
// Collective.
func (w *World) ReduceSum(ctx exec.Context, x float64) (float64, error) {
	return w.reduce(ctx, x, 0, func(acc, v float64) float64 { return acc + v })
}

// ReduceMax is the max-reduction sibling of ReduceSum.
func (w *World) ReduceMax(ctx exec.Context, x float64) (float64, error) {
	return w.reduce(ctx, x, math.Inf(-1), math.Max)
}

// reduce folds every task's x into init with fold, in rank order.
// Implemented entirely on the public one-sided operations — a shared
// 1 x N staging array — so it needs nothing from the backends.
func (w *World) reduce(ctx exec.Context, x, init float64, fold func(acc, v float64) float64) (float64, error) {
	stage, err := w.stagingArray(ctx)
	if err != nil {
		return 0, err
	}
	p := ga1x1(w.Self())
	if err := stage.Put(ctx, p, []float64{x}, 1); err != nil {
		return 0, err
	}
	if err := w.Sync(ctx); err != nil {
		return 0, err
	}
	all := make([]float64, w.N())
	if err := stage.Get(ctx, Patch{RLo: 0, RHi: 0, CLo: 0, CHi: w.N() - 1}, all, w.N()); err != nil {
		return 0, err
	}
	acc := init
	for _, v := range all {
		acc = fold(acc, v)
	}
	// A second sync so the staging row can be reused by the next
	// collective without racing stragglers' gets.
	if err := w.Sync(ctx); err != nil {
		return 0, err
	}
	return acc, nil
}

func ga1x1(col int) Patch { return Patch{RLo: 0, RHi: 0, CLo: col, CHi: col} }

// stagingArray lazily creates the world's 1 x N reduction row (collective
// on first use; every task must reach its first reduction together, which
// collectives guarantee by definition).
func (w *World) stagingArray(ctx exec.Context) (*Array, error) {
	if w.stage == nil {
		a, err := w.Create(ctx, 1, w.N())
		if err != nil {
			return nil, err
		}
		w.stage = a
	}
	return w.stage, nil
}
