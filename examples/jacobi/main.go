// Jacobi: a 2-D five-point stencil solver on a Global Array with
// ghost-cell (halo) exchange — the adaptive-grid/PDE side of the paper's
// motivation (§1). Each task owns a block of the grid; every iteration it
// GETs the one-element halo around its block from the neighbouring owners
// (strided 1-D and 2-D sections), relaxes its interior, PUTs the result
// into the next-generation array, and the whole job converges when the
// global residual (a ReduceMax collective) drops below tolerance.
//
// Boundary conditions: the left edge is held at 100, everything else at 0
// — heat spreading across a distributed plate.
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"
	"math"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
)

const (
	tasks = 4
	n     = 64 // grid dimension
	tol   = 1e-3
)

func main() {
	c, err := cluster.NewSimDefault(tasks)
	if err != nil {
		log.Fatal(err)
	}
	err = c.Run(func(ctx exec.Context, t *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, t, ga.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		cur, _ := w.Create(ctx, n, n)
		next, _ := w.Create(ctx, n, n)

		// Initial and boundary conditions, owner-computes.
		setBoundary := func(a *ga.Array) {
			d := a.Distribution(w.Self())
			for i := d.RLo; i <= d.RHi; i++ {
				for j := d.CLo; j <= d.CHi; j++ {
					if j == 0 {
						a.SetLocal(i, j, 100)
					} else {
						a.SetLocal(i, j, 0)
					}
				}
			}
		}
		setBoundary(cur)
		setBoundary(next)
		w.Sync(ctx)

		mine := cur.Distribution(w.Self())
		// Extended patch: block plus one halo cell on each side,
		// clipped to the grid. One GA get fetches block+halo together
		// (a strided 2-D section that may span up to four owners).
		ext := ga.Patch{
			RLo: max(0, mine.RLo-1), RHi: min(n-1, mine.RHi+1),
			CLo: max(0, mine.CLo-1), CHi: min(n-1, mine.CHi+1),
		}
		buf := make([]float64, ext.Elems())
		out := make([]float64, mine.Elems())

		iters := 0
		for {
			iters++
			if err := cur.Get(ctx, ext, buf, ext.Cols()); err != nil {
				log.Fatal(err)
			}
			at := func(i, j int) float64 { // global coords into ext buffer
				return buf[(i-ext.RLo)*ext.Cols()+(j-ext.CLo)]
			}
			residual := 0.0
			for i := mine.RLo; i <= mine.RHi; i++ {
				for j := mine.CLo; j <= mine.CHi; j++ {
					var v float64
					if i == 0 || i == n-1 || j == 0 || j == n-1 {
						v = at(i, j) // boundary held fixed
					} else {
						v = 0.25 * (at(i-1, j) + at(i+1, j) + at(i, j-1) + at(i, j+1))
					}
					out[(i-mine.RLo)*mine.Cols()+(j-mine.CLo)] = v
					residual = math.Max(residual, math.Abs(v-at(i, j)))
				}
			}
			if err := next.Put(ctx, mine, out, mine.Cols()); err != nil {
				log.Fatal(err)
			}
			worst, err := w.ReduceMax(ctx, residual) // includes a Sync
			if err != nil {
				log.Fatal(err)
			}
			cur, next = next, cur
			if worst < tol {
				break
			}
			if iters > 20000 {
				log.Fatal("did not converge")
			}
		}

		if w.Self() == 0 {
			// Sample the center column temperature profile.
			col := make([]float64, 8)
			cur.Get(ctx, ga.Patch{RLo: n / 2, RHi: n / 2, CLo: 0, CHi: 7}, col, 8)
			fmt.Printf("converged in %d iterations at virtual %v\n", iters, ctx.Now())
			fmt.Printf("temperature profile (row %d, cols 0..7):", n/2)
			for _, v := range col {
				fmt.Printf(" %6.2f", v)
			}
			fmt.Println()
			if col[0] != 100 {
				log.Fatal("boundary condition lost")
			}
			for k := 1; k < 8; k++ {
				if col[k] >= col[k-1] || col[k] < 0 {
					log.Fatalf("profile not monotonically decaying: %v", col)
				}
			}
		}
		w.Sync(ctx)
	})
	if err != nil {
		log.Fatal(err)
	}
}
