package mpi_test

import (
	"fmt"
	"testing"

	"golapi/internal/exec"
	"golapi/internal/mpi"
)

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runMPIDefault(t, n, func(ctx exec.Context, mt *mpi.Task) {
				for root := 0; root < n; root++ {
					buf := make([]byte, 16)
					if mt.Self() == root {
						for i := range buf {
							buf[i] = byte(root*10 + i)
						}
					}
					if err := mt.Bcast(ctx, root, buf); err != nil {
						t.Error(err)
						return
					}
					for i := range buf {
						if buf[i] != byte(root*10+i) {
							t.Errorf("rank %d root %d: byte %d = %d", mt.Self(), root, i, buf[i])
							return
						}
					}
					mt.Barrier(ctx)
				}
			})
		})
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	runMPIDefault(t, 6, func(ctx exec.Context, mt *mpi.Task) {
		x := float64(mt.Self() + 1)
		sum, err := mt.ReduceSum(ctx, 2, x)
		if err != nil {
			t.Error(err)
			return
		}
		if mt.Self() == 2 && sum != 21 {
			t.Errorf("root sum = %g, want 21", sum)
		}
		mt.Barrier(ctx)
		all, err := mt.AllreduceSum(ctx, x)
		if err != nil {
			t.Error(err)
			return
		}
		if all != 21 {
			t.Errorf("rank %d allreduce = %g, want 21", mt.Self(), all)
		}
	})
}

func TestGatherCollective(t *testing.T) {
	runMPIDefault(t, 5, func(ctx exec.Context, mt *mpi.Task) {
		contrib := []byte{byte(mt.Self()), byte(mt.Self() * 2)}
		var out []byte
		if mt.Self() == 1 {
			out = make([]byte, 10)
		}
		if err := mt.Gather(ctx, 1, contrib, out); err != nil {
			t.Error(err)
			return
		}
		if mt.Self() == 1 {
			for r := 0; r < 5; r++ {
				if out[2*r] != byte(r) || out[2*r+1] != byte(2*r) {
					t.Errorf("gather slot %d = %v", r, out[2*r:2*r+2])
				}
			}
		}
		mt.Barrier(ctx)
	})
}

func TestCollectiveValidation(t *testing.T) {
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		defer mt.Barrier(ctx)
		if mt.Self() != 0 {
			return
		}
		if err := mt.Bcast(ctx, 5, nil); err == nil {
			t.Error("Bcast with bad root accepted")
		}
		if _, err := mt.ReduceSum(ctx, -1, 0); err == nil {
			t.Error("ReduceSum with bad root accepted")
		}
		if err := mt.Gather(ctx, 0, []byte{1, 2}, make([]byte, 1)); err == nil {
			t.Error("Gather with short out buffer accepted")
		}
	})
}

func TestAllreduceVectorRecursiveDoubling(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 8, 13} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runMPIDefault(t, n, func(ctx exec.Context, mt *mpi.Task) {
				buf := make([]byte, 37) // non-power-of-two length too
				for i := range buf {
					buf[i] = byte(mt.Self() + i)
				}
				err := mt.Allreduce(ctx, buf, func(dst, src []byte) {
					for i := range dst {
						dst[i] += src[i]
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i := range buf {
					want := byte(n*i + n*(n-1)/2) // sum over ranks of r+i
					if buf[i] != want {
						t.Errorf("n=%d rank %d byte %d = %d, want %d", n, mt.Self(), i, buf[i], want)
						return
					}
				}
				// The scalar wrapper rides the same schedule: 28 on 7 ranks.
				sum, err := mt.AllreduceSum(ctx, float64(mt.Self()+1))
				if err != nil {
					t.Error(err)
					return
				}
				if want := float64(n * (n + 1) / 2); sum != want {
					t.Errorf("n=%d rank %d: AllreduceSum = %g, want %g", n, mt.Self(), sum, want)
				}
			})
		})
	}
}
