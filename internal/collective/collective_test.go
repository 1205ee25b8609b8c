package collective_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/collective"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/stats"
	"golapi/internal/switchnet"
	"golapi/internal/trace"
)

// runColl runs main on an n-task simulated cluster with a Comm constructed
// on every rank.
func runColl(t *testing.T, n int, ccfg collective.Config, main func(ctx exec.Context, tk *lapi.Task, c *collective.Comm)) {
	t.Helper()
	runCollCfg(t, n, switchnet.DefaultConfig(), lapi.DefaultConfig(), ccfg, main)
}

func runCollCfg(t *testing.T, n int, scfg switchnet.Config, lcfg lapi.Config, ccfg collective.Config, main func(ctx exec.Context, tk *lapi.Task, c *collective.Comm)) {
	t.Helper()
	j, err := cluster.NewSim(n, scfg, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Run(func(ctx exec.Context, tk *lapi.Task) {
		c, err := collective.New(ctx, tk, ccfg)
		if err != nil {
			t.Error(err)
			return
		}
		main(ctx, tk, c)
	}); err != nil {
		t.Fatal(err)
	}
}

func i64buf(vals ...int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func TestAllreduceSumI64AllAlgs(t *testing.T) {
	const n = 4
	for _, alg := range []collective.Alg{collective.AlgAuto, collective.AlgRing, collective.AlgRecursiveDoubling} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			runColl(t, n, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
				buf := i64buf(int64(c.Rank()+1), int64(10*(c.Rank()+1)))
				if err := c.AllreduceAlg(ctx, buf, collective.OpSumI64, alg); err != nil {
					t.Error(err)
					return
				}
				want := i64buf(10, 100) // 1+2+3+4, 10+20+30+40
				if !bytes.Equal(buf, want) {
					t.Errorf("rank %d: got %x want %x", c.Rank(), buf, want)
				}
			})
		})
	}
}

func TestAlgSelectionBySize(t *testing.T) {
	runColl(t, 2, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		if got := c.AlgFor(collective.DefaultConfig().RingThreshold - 1); got != collective.AlgRecursiveDoubling {
			t.Errorf("below threshold: %v", got)
		}
		if got := c.AlgFor(collective.DefaultConfig().RingThreshold); got != collective.AlgRing {
			t.Errorf("at threshold: %v", got)
		}
	})
}

func TestBcastAllRoots(t *testing.T) {
	const n = 5
	runColl(t, n, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		for root := 0; root < n; root++ {
			buf := make([]byte, 24)
			if c.Rank() == root {
				for i := range buf {
					buf[i] = byte(root*31 + i)
				}
			}
			if err := c.Bcast(ctx, root, buf); err != nil {
				t.Error(err)
				return
			}
			for i := range buf {
				if buf[i] != byte(root*31+i) {
					t.Errorf("rank %d root %d byte %d = %d", c.Rank(), root, i, buf[i])
					return
				}
			}
		}
	})
}

func TestReduceAllRoots(t *testing.T) {
	const n = 6
	runColl(t, n, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		for root := 0; root < n; root++ {
			buf := i64buf(int64(c.Rank() + 1))
			if err := c.Reduce(ctx, root, buf, collective.OpSumI64); err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == root {
				if got := int64(binary.BigEndian.Uint64(buf)); got != 21 {
					t.Errorf("root %d sum = %d, want 21", root, got)
				}
			} else if got := int64(binary.BigEndian.Uint64(buf)); got != int64(c.Rank()+1) {
				// Non-root buffers must be left untouched.
				t.Errorf("rank %d buffer clobbered: %d", c.Rank(), got)
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	const n = 4
	runColl(t, n, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		contrib := []byte{byte(c.Rank()), byte(c.Rank() * 3), byte(c.Rank() * 7)}
		out := make([]byte, n*len(contrib))
		if err := c.Allgather(ctx, contrib, out); err != nil {
			t.Error(err)
			return
		}
		for r := 0; r < n; r++ {
			want := []byte{byte(r), byte(r * 3), byte(r * 7)}
			if !bytes.Equal(out[r*3:r*3+3], want) {
				t.Errorf("rank %d: slot %d = %v, want %v", c.Rank(), r, out[r*3:r*3+3], want)
			}
		}
	})
}

func TestReduceScatter(t *testing.T) {
	const n, elems = 3, 7 // non-power-of-two both ways
	runColl(t, n, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		vals := make([]int64, elems)
		for i := range vals {
			vals[i] = int64((c.Rank() + 1) * (i + 1))
		}
		buf := i64buf(vals...)
		lo, hi, err := c.ReduceScatter(ctx, buf, collective.OpSumI64)
		if err != nil {
			t.Error(err)
			return
		}
		if (hi-lo)%8 != 0 {
			t.Errorf("segment [%d,%d) not element aligned", lo, hi)
		}
		for off := lo; off < hi; off += 8 {
			i := off / 8
			want := int64(6 * (i + 1)) // (1+2+3)*(i+1)
			if got := int64(binary.BigEndian.Uint64(buf[off:])); got != want {
				t.Errorf("rank %d elem %d = %d, want %d", c.Rank(), i, got, want)
			}
		}
	})
}

func TestBarrierBothSchedules(t *testing.T) {
	for _, central := range []bool{false, true} {
		central := central
		t.Run(fmt.Sprintf("central=%v", central), func(t *testing.T) {
			const n = 5
			cfg := collective.DefaultConfig()
			cfg.CentralBarrier = central
			var arrived int32
			runColl(t, n, cfg, func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
				for round := 0; round < 3; round++ {
					atomic.AddInt32(&arrived, 1)
					if err := c.Barrier(ctx); err != nil {
						t.Error(err)
						return
					}
					// No rank leaves a barrier before every rank entered it.
					if got := atomic.LoadInt32(&arrived); got < int32(n*(round+1)) {
						t.Errorf("rank %d left barrier %d with %d arrivals", c.Rank(), round, got)
					}
				}
			})
		})
	}
}

func TestSingleRank(t *testing.T) {
	runColl(t, 1, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		buf := i64buf(42)
		if err := c.Allreduce(ctx, buf, collective.OpSumI64); err != nil {
			t.Error(err)
		}
		if err := c.Bcast(ctx, 0, buf); err != nil {
			t.Error(err)
		}
		if err := c.Reduce(ctx, 0, buf, collective.OpSumI64); err != nil {
			t.Error(err)
		}
		if err := c.Barrier(ctx); err != nil {
			t.Error(err)
		}
		out := make([]byte, 8)
		if err := c.Allgather(ctx, buf, out); err != nil {
			t.Error(err)
		}
		if got := int64(binary.BigEndian.Uint64(buf)); got != 42 {
			t.Errorf("n=1 value changed: %d", got)
		}
	})
}

func TestArgumentErrors(t *testing.T) {
	cfg := collective.Config{MaxBytes: 64, RingThreshold: 16}
	runColl(t, 2, cfg, func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		if c.Rank() != 0 {
			return // error paths are local; no communication happens
		}
		if err := c.Allreduce(ctx, make([]byte, 128), collective.OpSumU8); err == nil {
			t.Error("oversized payload accepted")
		}
		if err := c.Allreduce(ctx, make([]byte, 12), collective.OpSumI64); err == nil {
			t.Error("misaligned payload accepted")
		}
		if err := c.AllreduceAlg(ctx, make([]byte, 8), collective.OpSumI64, collective.Alg(99)); err == nil {
			t.Error("bogus algorithm accepted")
		}
		if err := c.Bcast(ctx, 7, make([]byte, 8)); err == nil {
			t.Error("out-of-range root accepted")
		}
		if err := c.Allgather(ctx, make([]byte, 8), make([]byte, 8)); err == nil {
			t.Error("short allgather output accepted")
		}
	})
}

// TestMixedSequenceUnderReordering interleaves every collective type, with
// packet reordering enabled, to exercise the per-step counters and parity
// double-buffering that make back-to-back one-sided collectives safe.
func TestMixedSequenceUnderReordering(t *testing.T) {
	const n = 4
	scfg := switchnet.DefaultConfig()
	scfg.ReorderEvery = 3
	scfg.ReorderDelayPackets = 5
	runCollCfg(t, n, scfg, lapi.DefaultConfig(), collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		for iter := 0; iter < 4; iter++ {
			root := iter % n
			b := make([]byte, 16)
			if c.Rank() == root {
				for i := range b {
					b[i] = byte(iter*41 + i)
				}
			}
			if err := c.Bcast(ctx, root, b); err != nil {
				t.Error(err)
				return
			}
			for i := range b {
				if b[i] != byte(iter*41+i) {
					t.Errorf("iter %d rank %d bcast corrupt", iter, c.Rank())
					return
				}
			}
			// Back-to-back bcast with a different root: the case that
			// requires the trailing sync in tree collectives.
			b2 := make([]byte, 16)
			root2 := (iter + 1) % n
			if c.Rank() == root2 {
				for i := range b2 {
					b2[i] = byte(iter*43 + i)
				}
			}
			if err := c.Bcast(ctx, root2, b2); err != nil {
				t.Error(err)
				return
			}
			for i := range b2 {
				if b2[i] != byte(iter*43+i) {
					t.Errorf("iter %d rank %d second bcast corrupt", iter, c.Rank())
					return
				}
			}
			sum := i64buf(int64(c.Rank() + iter))
			if err := c.AllreduceAlg(ctx, sum, collective.OpSumI64, collective.Alg(1+iter%2)); err != nil {
				t.Error(err)
				return
			}
			want := int64(n*iter + n*(n-1)/2)
			if got := int64(binary.BigEndian.Uint64(sum)); got != want {
				t.Errorf("iter %d rank %d sum = %d, want %d", iter, c.Rank(), got, want)
			}
			if err := c.Reduce(ctx, root, sum, collective.OpSumI64); err != nil {
				t.Error(err)
				return
			}
			if err := c.Barrier(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// TestDeterministicReplay runs the identical collective program twice on
// fresh simulated clusters and requires bit-identical results and virtual
// end times.
func TestDeterministicReplay(t *testing.T) {
	run := func() (string, []byte) {
		j, err := cluster.NewSimDefault(3)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		if err := j.Run(func(ctx exec.Context, tk *lapi.Task) {
			c, err := collective.New(ctx, tk, collective.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			buf := i64buf(int64(c.Rank()+1), int64(c.Rank()*c.Rank()))
			if err := c.Allreduce(ctx, buf, collective.OpSumI64); err != nil {
				t.Error(err)
				return
			}
			if err := c.Bcast(ctx, 1, buf); err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 0 {
				out = buf
			}
		}); err != nil {
			t.Fatal(err)
		}
		return j.Now().String(), out
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 {
		t.Errorf("virtual end times differ: %s vs %s", t1, t2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("results differ: %x vs %x", b1, b2)
	}
}

// TestCollectiveTraceAndStats checks satellite instrumentation: the
// KindCollective trace events carry algorithm names and step transitions,
// and the per-algorithm stats counters advance.
func TestCollectiveTraceAndStats(t *testing.T) {
	const n = 4
	tr := trace.New(4096)
	lcfg := lapi.DefaultConfig()
	lcfg.Tracer = tr
	runCollCfg(t, n, switchnet.DefaultConfig(), lcfg, collective.DefaultConfig(), func(ctx exec.Context, tk *lapi.Task, c *collective.Comm) {
		big := make([]byte, 65536) // at threshold: ring
		small := i64buf(int64(c.Rank()))
		if err := c.Allreduce(ctx, big, collective.OpSumU8); err != nil {
			t.Error(err)
			return
		}
		if err := c.Allreduce(ctx, small, collective.OpSumI64); err != nil {
			t.Error(err)
			return
		}
		if err := c.Barrier(ctx); err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			for _, name := range []stats.Name{stats.CollCalls, stats.CollRingSteps, stats.CollRingBytes, stats.CollRDSteps, stats.CollRDBytes, stats.CollBarrierSteps} {
				if tk.Counters.Get(name) == 0 {
					t.Errorf("stat %s did not advance", name)
				}
			}
			if got := tk.Counters.Get(stats.CollCalls); got != 3 {
				t.Errorf("coll_calls = %d, want 3", got)
			}
			if got := tk.Counters.Get(stats.CollRingSteps); got != 2*(n-1) {
				t.Errorf("coll_ring_steps = %d, want %d", got, 2*(n-1))
			}
		}
	})
	evs := tr.Filter(trace.KindCollective)
	if len(evs) == 0 {
		t.Fatal("no collective trace events")
	}
	var sawRing, sawRD, sawBarrier bool
	for _, e := range evs {
		switch e.Detail {
		case "allreduce alg=ring bytes=65536 seq=1":
			sawRing = true
		case "allreduce alg=recdbl bytes=8 seq=2":
			sawRD = true
		case "barrier alg=dissemination bytes=0 seq=3":
			sawBarrier = true
		}
	}
	if !sawRing || !sawRD || !sawBarrier {
		t.Errorf("missing algorithm-choice events: ring=%v recdbl=%v barrier=%v", sawRing, sawRD, sawBarrier)
	}
}
