package lapi_test

import (
	"bytes"
	"testing"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/sim"
	"golapi/internal/switchnet"
)

// run executes main SPMD on an n-task default cluster and fails the test on
// any simulation error.
func run(t *testing.T, n int, main func(ctx exec.Context, lt *lapi.Task)) *cluster.Sim {
	t.Helper()
	c, err := cluster.NewSimDefault(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(main); err != nil {
		t.Fatal(err)
	}
	return c
}

func runCfg(t *testing.T, n int, scfg switchnet.Config, lcfg lapi.Config, main func(ctx exec.Context, lt *lapi.Task)) *cluster.Sim {
	t.Helper()
	c, err := cluster.NewSim(n, scfg, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(main); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutBasic(t *testing.T) {
	var got []byte
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(16)
		addrs, err := lt.AddressInit(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		if lt.Self() == 0 {
			org, cmpl := lt.NewCounter(), lt.NewCounter()
			if err := lt.Put(ctx, 1, addrs[1], []byte("hello, target!"), lapi.NoCounter, org, cmpl); err != nil {
				t.Error(err)
				return
			}
			lt.Waitcntr(ctx, org, 1)
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
		if lt.Self() == 1 {
			got = append([]byte(nil), lt.MustBytes(buf, 14)...)
		}
	})
	if string(got) != "hello, target!" {
		t.Fatalf("target memory = %q", got)
	}
}

func TestPutTargetCounter(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(8)
		// SPMD counter creation: same ID on both tasks.
		c := lt.NewCounter()
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			if err := lt.Put(ctx, 1, addrs[1], []byte("12345678"), c.ID(), nil, nil); err != nil {
				t.Error(err)
			}
			lt.Barrier(ctx)
		} else {
			// The target waits on its own counter: pure one-sided
			// notification, no explicit receive.
			lt.Waitcntr(ctx, c, 1)
			if string(lt.MustBytes(buf, 8)) != "12345678" {
				t.Error("data not present when target counter fired")
			}
			lt.Barrier(ctx)
		}
	})
}

func TestPutLargeMultiPacket(t *testing.T) {
	const size = 100_000 // ~103 packets
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(size)
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 7)
			}
			cmpl := lt.NewCounter()
			if err := lt.Put(ctx, 1, addrs[1], data, lapi.NoCounter, nil, cmpl); err != nil {
				t.Error(err)
			}
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
		if lt.Self() == 1 {
			got := lt.MustBytes(buf, size)
			for i := range got {
				if got[i] != byte(i*7) {
					t.Errorf("byte %d = %d, want %d", i, got[i], byte(i*7))
					return
				}
			}
		}
	})
}

func TestPutZeroLength(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(8)
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			cmpl := lt.NewCounter()
			if err := lt.Put(ctx, 1, addrs[1], nil, lapi.NoCounter, nil, cmpl); err != nil {
				t.Error(err)
			}
			lt.Waitcntr(ctx, cmpl, 1) // must still complete
		}
		lt.Gfence(ctx)
	})
}

func TestGetBasic(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(32)
		if lt.Self() == 1 {
			copy(lt.MustBytes(buf, 32), "remote data here")
		}
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			dst := make([]byte, 16)
			org := lt.NewCounter()
			if err := lt.Get(ctx, 1, addrs[1], dst, lapi.NoCounter, org); err != nil {
				t.Error(err)
			}
			lt.Waitcntr(ctx, org, 1)
			if string(dst) != "remote data here" {
				t.Errorf("got %q", dst)
			}
		}
		lt.Gfence(ctx)
	})
}

func TestGetLarge(t *testing.T) {
	const size = 50_000
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(size)
		if lt.Self() == 1 {
			b := lt.MustBytes(buf, size)
			for i := range b {
				b[i] = byte(i % 251)
			}
		}
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			dst := make([]byte, size)
			org := lt.NewCounter()
			if err := lt.Get(ctx, 1, addrs[1], dst, lapi.NoCounter, org); err != nil {
				t.Error(err)
			}
			lt.Waitcntr(ctx, org, 1)
			for i := range dst {
				if dst[i] != byte(i%251) {
					t.Errorf("byte %d = %d", i, dst[i])
					return
				}
			}
		}
		lt.Gfence(ctx)
	})
}

func TestGetTargetCounterFires(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(8)
		tc := lt.NewCounter()
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			dst := make([]byte, 8)
			org := lt.NewCounter()
			lt.Get(ctx, 1, addrs[1], dst, tc.ID(), org)
			lt.Waitcntr(ctx, org, 1)
			lt.Barrier(ctx)
		} else {
			// Data copied out of target memory fires tgt counter.
			lt.Waitcntr(ctx, tc, 1)
			lt.Barrier(ctx)
		}
	})
}

func TestAmsendBasic(t *testing.T) {
	var handled struct {
		uhdr    string
		dataLen int
		data    string
		src     int
	}
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		var rcvBuf lapi.Addr
		h := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			handled.uhdr = string(info.UHdr)
			handled.dataLen = info.DataLen
			handled.src = info.Src
			rcvBuf = tk.Alloc(info.DataLen)
			return rcvBuf, func(cctx exec.Context, tk2 *lapi.Task) {
				handled.data = string(tk2.MustBytes(rcvBuf, info.DataLen))
			}
		})
		if lt.Self() == 0 {
			cmpl := lt.NewCounter()
			err := lt.Amsend(ctx, 1, h, []byte("hdr-params"), []byte("payload bytes"), lapi.NoCounter, nil, cmpl)
			if err != nil {
				t.Error(err)
			}
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
	})
	if handled.uhdr != "hdr-params" || handled.data != "payload bytes" || handled.dataLen != 13 || handled.src != 0 {
		t.Fatalf("handler saw %+v", handled)
	}
}

func TestAmsendHeaderOnly(t *testing.T) {
	fired := 0
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		h := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			if info.DataLen != 0 {
				t.Errorf("DataLen = %d", info.DataLen)
			}
			return lapi.AddrNil, func(cctx exec.Context, tk2 *lapi.Task) { fired++ }
		})
		if lt.Self() == 0 {
			cmpl := lt.NewCounter()
			lt.Amsend(ctx, 1, h, []byte("x"), nil, lapi.NoCounter, nil, cmpl)
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
	})
	if fired != 1 {
		t.Fatalf("completion handler fired %d times", fired)
	}
}

func TestAmsendLargeOutOfOrder(t *testing.T) {
	// Aggressive reordering: AM data packets overtaking the header packet
	// must be stashed and drained correctly (§2.1).
	scfg := switchnet.DefaultConfig()
	scfg.ReorderEvery = 2
	scfg.ReorderDelayPackets = 5
	const size = 20_000
	var got []byte
	runCfg(t, 2, scfg, lapi.DefaultConfig(), func(ctx exec.Context, lt *lapi.Task) {
		h := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			buf := tk.Alloc(info.DataLen)
			return buf, func(cctx exec.Context, tk2 *lapi.Task) {
				got = append([]byte(nil), tk2.MustBytes(buf, info.DataLen)...)
			}
		})
		if lt.Self() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 13)
			}
			cmpl := lt.NewCounter()
			lt.Amsend(ctx, 1, h, []byte("u"), data, lapi.NoCounter, nil, cmpl)
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
	})
	if len(got) != size {
		t.Fatalf("received %d bytes", len(got))
	}
	for i := range got {
		if got[i] != byte(i*13) {
			t.Fatalf("byte %d corrupted under reordering", i)
		}
	}
}

func TestAmsendTargetCounterAfterCompletion(t *testing.T) {
	// tgt counter fires only after the completion handler finishes (§2.1
	// step 4): the handler writes a flag the waiter must observe.
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		flag := lt.Alloc(8)
		tc := lt.NewCounter()
		h := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			buf := tk.Alloc(info.DataLen)
			return buf, func(cctx exec.Context, tk2 *lapi.Task) {
				cctx.Sleep(50 * time.Microsecond) // make the race window real
				tk2.WriteInt64(flag, 42)
			}
		})
		if lt.Self() == 0 {
			lt.Amsend(ctx, 1, h, nil, []byte("data"), tc.ID(), nil, nil)
			lt.Barrier(ctx)
		} else {
			lt.Waitcntr(ctx, tc, 1)
			v, _ := lt.ReadInt64(flag)
			if v != 42 {
				t.Errorf("tgt counter fired before completion handler (flag=%d)", v)
			}
			lt.Barrier(ctx)
		}
	})
}

// TestTCPAmsendCopiesBeforeReturn pins Amsend's contract that udata is
// copied out before the call returns, so a caller without an origin
// counter may overwrite it at once — as GA's completion handlers do when
// they give their reply buffer back right after the reply's Amsend. It
// sends one-packet messages and multi-packet ones above the 1 024-byte
// internal-buffer limit (on tcpnet, whose limit is zero here, above the
// 64 KB frame) on the switch and on tcpnet, scribbles over udata as soon
// as each Amsend returns, and checks that the target saw the original
// bytes.
func TestTCPAmsendCopiesBeforeReturn(t *testing.T) {
	sizes := []int{100, 5000, 200_000}
	pattern := func(n, k int) byte { return byte(n*7 + k*13 + 1) }
	workout := func(t *testing.T, ctx exec.Context, lt *lapi.Task) {
		tc := lt.NewCounter()
		h := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			buf := tk.Alloc(info.DataLen)
			return buf, func(cctx exec.Context, tk2 *lapi.Task) {
				got := tk2.MustBytes(buf, info.DataLen)
				for k := range got {
					if got[k] != pattern(len(got), k) {
						t.Errorf("%d-byte Amsend: byte %d = %#x, want %#x", len(got), k, got[k], pattern(len(got), k))
						break
					}
				}
				tk2.Free(buf)
			}
		})
		lt.Barrier(ctx)
		if lt.Self() == 0 {
			for _, n := range sizes {
				data := make([]byte, n)
				for k := range data {
					data[k] = pattern(n, k)
				}
				if err := lt.Amsend(ctx, 1, h, []byte("u"), data, tc.ID(), nil, nil); err != nil {
					t.Error(err)
				}
				for k := range data {
					data[k] = 0xFF
				}
			}
		} else {
			lt.Waitcntr(ctx, tc, len(sizes))
		}
		lt.Barrier(ctx)
	}
	t.Run("switch", func(t *testing.T) {
		run(t, 2, func(ctx exec.Context, lt *lapi.Task) { workout(t, ctx, lt) })
	})
	t.Run("tcpnet", func(t *testing.T) {
		j, err := cluster.NewTCPLAPI(2, lapi.ZeroCost())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Run(func(ctx exec.Context, lt *lapi.Task) { workout(t, ctx, lt) }); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRmwOps(t *testing.T) {
	type tc struct {
		op         lapi.RmwOp
		initial    int64
		in, cmp    int64
		wantOld    int64
		wantStored int64
	}
	cases := []tc{
		{lapi.RmwSwap, 10, 99, 0, 10, 99},
		{lapi.RmwCompareAndSwap, 10, 99, 10, 10, 99},
		{lapi.RmwCompareAndSwap, 10, 99, 11, 10, 10},
		{lapi.RmwFetchAndAdd, 10, 5, 0, 10, 15},
		{lapi.RmwFetchAndOr, 0b1010, 0b0101, 0, 0b1010, 0b1111},
	}
	for _, c := range cases {
		c := c
		t.Run(c.op.String(), func(t *testing.T) {
			run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
				v := lt.Alloc(8)
				lt.WriteInt64(v, c.initial)
				addrs, _ := lt.AddressInit(ctx, v)
				if lt.Self() == 0 {
					var prev int64
					org := lt.NewCounter()
					if err := lt.Rmw(ctx, c.op, 1, addrs[1], c.in, c.cmp, &prev, org); err != nil {
						t.Error(err)
					}
					lt.Waitcntr(ctx, org, 1)
					if prev != c.wantOld {
						t.Errorf("prev = %d, want %d", prev, c.wantOld)
					}
				}
				lt.Gfence(ctx)
				if lt.Self() == 1 {
					got, _ := lt.ReadInt64(v)
					if got != c.wantStored {
						t.Errorf("stored = %d, want %d", got, c.wantStored)
					}
				}
			})
		})
	}
}

func TestRmwFetchAndAddAtomicUnderContention(t *testing.T) {
	// Every task hammers a counter at rank 0; the total must be exact —
	// the paper's synchronization building block (§2.4, §3).
	const perTask = 25
	var final int64
	run(t, 4, func(ctx exec.Context, lt *lapi.Task) {
		v := lt.Alloc(8)
		addrs, _ := lt.AddressInit(ctx, v)
		org := lt.NewCounter()
		for i := 0; i < perTask; i++ {
			var prev int64
			lt.Rmw(ctx, lapi.RmwFetchAndAdd, 0, addrs[0], 1, 0, &prev, org)
			lt.Waitcntr(ctx, org, 1)
		}
		lt.Gfence(ctx)
		if lt.Self() == 0 {
			final, _ = lt.ReadInt64(v)
		}
	})
	if final != 4*perTask {
		t.Fatalf("counter = %d, want %d", final, 4*perTask)
	}
}

func TestWaitcntrDecrements(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		if lt.Self() != 0 {
			lt.Barrier(ctx)
			return
		}
		c := lt.NewCounter()
		lt.Setcntr(ctx, c, 5)
		lt.Waitcntr(ctx, c, 3)
		if got := lt.Getcntr(ctx, c); got != 2 {
			t.Errorf("after Waitcntr(3): counter = %d, want 2", got)
		}
		lt.Waitcntr(ctx, c, 2)
		if got := lt.Getcntr(ctx, c); got != 0 {
			t.Errorf("counter = %d, want 0", got)
		}
		lt.Barrier(ctx)
	})
}

func TestCounterGroupsMultipleMessages(t *testing.T) {
	// One counter across many operations: wait for the group (§2.3).
	run(t, 3, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(64)
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			cmpl := lt.NewCounter()
			for i := 0; i < 8; i++ {
				tgt := 1 + i%2
				lt.Put(ctx, tgt, addrs[tgt]+lapi.Addr(8*(i/2)), []byte("aaaabbbb"), lapi.NoCounter, nil, cmpl)
			}
			lt.Waitcntr(ctx, cmpl, 8)
		}
		lt.Gfence(ctx)
	})
}

func TestFenceCompletesPuts(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(4096)
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			for i := 0; i < 10; i++ {
				lt.Put(ctx, 1, addrs[1], make([]byte, 4096), lapi.NoCounter, nil, nil)
			}
			if lt.Outstanding() == 0 {
				t.Error("puts completed synchronously; fence test is vacuous")
			}
			lt.Fence(ctx)
			if lt.Outstanding() != 0 {
				t.Errorf("outstanding = %d after fence", lt.Outstanding())
			}
		}
		lt.Gfence(ctx)
	})
}

func TestGfenceMakesAllStoresVisible(t *testing.T) {
	// Classic producer/consumer without per-op counters: put, Gfence, read.
	run(t, 4, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(8 * 4)
		addrs, _ := lt.AddressInit(ctx, buf)
		// Everyone writes its rank into slot self of every task.
		me := []byte{0, 0, 0, 0, 0, 0, 0, byte(lt.Self() + 1)}
		for r := 0; r < lt.N(); r++ {
			lt.Put(ctx, r, addrs[r]+lapi.Addr(8*lt.Self()), me, lapi.NoCounter, nil, nil)
		}
		lt.Gfence(ctx)
		for r := 0; r < lt.N(); r++ {
			v, _ := lt.ReadInt64(buf + lapi.Addr(8*r))
			if v != int64(r+1) {
				t.Errorf("task %d: slot %d = %d, want %d", lt.Self(), r, v, r+1)
			}
		}
	})
}

func TestAddressInitTable(t *testing.T) {
	run(t, 5, func(ctx exec.Context, lt *lapi.Task) {
		local := lt.Alloc(8 * (lt.Self() + 1)) // distinct shapes per rank
		addrs, err := lt.AddressInit(ctx, local)
		if err != nil {
			t.Error(err)
			return
		}
		if len(addrs) != 5 {
			t.Errorf("table size %d", len(addrs))
		}
		if addrs[lt.Self()] != local {
			t.Errorf("own entry mismatch: %v vs %v", addrs[lt.Self()], local)
		}
		// Second collective must not interfere with the first.
		words, err := lt.ExchangeWord(ctx, uint64(100+lt.Self()))
		if err != nil {
			t.Error(err)
			return
		}
		for r, w := range words {
			if w != uint64(100+r) {
				t.Errorf("word[%d] = %d", r, w)
			}
		}
	})
}

func TestErrors(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		defer lt.Barrier(ctx)
		if lt.Self() != 0 {
			return
		}
		buf := lt.Alloc(8)
		if err := lt.Put(ctx, 5, buf, []byte("x"), lapi.NoCounter, nil, nil); err == nil {
			t.Error("Put to bad rank succeeded")
		}
		if err := lt.Put(ctx, 1, lapi.AddrNil, []byte("x"), lapi.NoCounter, nil, nil); err == nil {
			t.Error("Put to nil address succeeded")
		}
		if err := lt.Get(ctx, -1, buf, make([]byte, 8), lapi.NoCounter, nil); err == nil {
			t.Error("Get from bad rank succeeded")
		}
		if err := lt.Rmw(ctx, lapi.RmwOp(99), 1, buf, 0, 0, nil, nil); err == nil {
			t.Error("Rmw with bad op succeeded")
		}
		if err := lt.Rmw(ctx, lapi.RmwSwap, 1, lapi.AddrNil, 0, 0, nil, nil); err == nil {
			t.Error("Rmw on nil var succeeded")
		}
		h := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			return lapi.AddrNil, nil
		})
		big := make([]byte, lt.Qenv(lapi.QueryMaxUhdr)+1)
		if err := lt.Amsend(ctx, 1, h, big, nil, lapi.NoCounter, nil, nil); err == nil {
			t.Error("oversized uhdr accepted")
		}
		if err := lt.Amsend(ctx, 1, 0, nil, nil, lapi.NoCounter, nil, nil); err == nil {
			t.Error("zero handler id accepted")
		}
	})
}

func TestQenv(t *testing.T) {
	run(t, 3, func(ctx exec.Context, lt *lapi.Task) {
		if got := lt.Qenv(lapi.QueryNumTasks); got != 3 {
			t.Errorf("NumTasks = %d", got)
		}
		if got := lt.Qenv(lapi.QueryMaxPayload); got != 1024-48 {
			t.Errorf("MaxPayload = %d, want 976", got)
		}
		if got := lt.Qenv(lapi.QueryMode); got != int(lapi.Interrupt) {
			t.Errorf("Mode = %d", got)
		}
	})
}

func TestArenaBounds(t *testing.T) {
	run(t, 1, func(ctx exec.Context, lt *lapi.Task) {
		a := lt.Alloc(16)
		if _, err := lt.Bytes(a, 17); err == nil {
			t.Error("out-of-bounds read allowed")
		}
		if _, err := lt.Bytes(lapi.AddrNil, 1); err == nil {
			t.Error("nil deref allowed")
		}
		if _, err := lt.Bytes(a+16, 1); err == nil {
			t.Error("past-end deref allowed")
		}
		b, err := lt.Bytes(a+8, 8)
		if err != nil || len(b) != 8 {
			t.Errorf("interior slice: %v", err)
		}
	})
}

func TestPutDataIntegrityUnderReorderAndLoss(t *testing.T) {
	scfg := switchnet.DefaultConfig()
	scfg.ReorderEvery = 3
	scfg.DropEvery = 7
	const size = 30_000
	runCfg(t, 2, scfg, lapi.DefaultConfig(), func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(size)
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i*31 + 7)
			}
			cmpl := lt.NewCounter()
			lt.Put(ctx, 1, addrs[1], data, lapi.NoCounter, nil, cmpl)
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
		if lt.Self() == 1 {
			got := lt.MustBytes(buf, size)
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(i*31 + 7)
			}
			if !bytes.Equal(got, want) {
				t.Error("data corrupted under reorder+loss")
			}
		}
	})
}

func TestPollingModeWorksWithPolls(t *testing.T) {
	lcfg := lapi.DefaultConfig()
	lcfg.Mode = lapi.Polling
	runCfg(t, 2, switchnet.DefaultConfig(), lcfg, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(8)
		c := lt.NewCounter()
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			lt.Put(ctx, 1, addrs[1], []byte("poll ok!"), c.ID(), nil, nil)
			lt.Barrier(ctx)
		} else {
			lt.Waitcntr(ctx, c, 1) // Waitcntr polls
			if string(lt.MustBytes(buf, 8)) != "poll ok!" {
				t.Error("data missing")
			}
			lt.Barrier(ctx)
		}
	})
}

func TestPollingModeWithoutPollsDeadlocks(t *testing.T) {
	// The paper's warning (§2.1): "in the absence of appropriate polling
	// ... may even result in deadlock". The target never makes a LAPI
	// call, so the origin's completion counter never fires.
	lcfg := lapi.DefaultConfig()
	lcfg.Mode = lapi.Polling
	c, err := cluster.NewSim(2, switchnet.DefaultConfig(), lcfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := c.Tasks[1].Alloc(8)
	err = c.Run(func(ctx exec.Context, lt *lapi.Task) {
		if lt.Self() == 0 {
			cmpl := lt.NewCounter()
			lt.Put(ctx, 1, tgt, []byte("stuck..."), lapi.NoCounter, nil, cmpl)
			lt.Waitcntr(ctx, cmpl, 1)
		}
		// Task 1 exits immediately without polling.
	})
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestSenvSwitchToInterruptDrainsBacklog(t *testing.T) {
	lcfg := lapi.DefaultConfig()
	lcfg.Mode = lapi.Polling
	runCfg(t, 2, switchnet.DefaultConfig(), lcfg, func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(8)
		c := lt.NewCounter()
		addrs, _ := lt.AddressInit(ctx, buf)
		if lt.Self() == 0 {
			lt.Put(ctx, 1, addrs[1], []byte("switched"), c.ID(), nil, nil)
			lt.Barrier(ctx)
		} else {
			// Let the packet arrive while we're in polling mode but
			// not polling, then flip to interrupt mode: the
			// dispatcher must pick up the backlog.
			ctx.Sleep(5 * time.Millisecond)
			lt.Senv(lapi.Interrupt)
			lt.Waitcntr(ctx, c, 1)
			lt.Barrier(ctx)
		}
	})
}

func TestHeaderHandlerMayNotBlock(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		h := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			defer func() {
				if recover() == nil {
					t.Error("Waitcntr inside header handler did not panic")
				}
			}()
			c := tk.NewCounter()
			tk.Waitcntr(nil, c, 1) // must panic before using ctx
			return lapi.AddrNil, nil
		})
		if lt.Self() == 0 {
			cmpl := lt.NewCounter()
			lt.Amsend(ctx, 1, h, []byte("u"), nil, lapi.NoCounter, nil, cmpl)
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
	})
}

func TestCompletionHandlersRunConcurrently(t *testing.T) {
	// §2.1: "multiple completion handlers are allowed to execute
	// concurrently per LAPI context". Two long-running completion
	// handlers triggered back to back must overlap in virtual time
	// rather than serialize.
	var start1, end1, start2, end2 time.Duration
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		mk := func(start, end *time.Duration) lapi.HandlerID {
			return lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
				buf := tk.Alloc(info.DataLen)
				return buf, func(cctx exec.Context, tk2 *lapi.Task) {
					*start = cctx.Now()
					cctx.Sleep(200 * time.Microsecond)
					*end = cctx.Now()
				}
			})
		}
		h1 := mk(&start1, &end1)
		h2 := mk(&start2, &end2)
		if lt.Self() == 0 {
			cmpl := lt.NewCounter()
			lt.Amsend(ctx, 1, h1, nil, []byte("a"), lapi.NoCounter, nil, cmpl)
			lt.Amsend(ctx, 1, h2, nil, []byte("b"), lapi.NoCounter, nil, cmpl)
			lt.Waitcntr(ctx, cmpl, 2)
		}
		lt.Gfence(ctx)
	})
	if start2 >= end1 {
		t.Fatalf("completion handlers serialized: h1 [%v,%v], h2 [%v,%v]", start1, end1, start2, end2)
	}
}
