package lapi_test

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/switchnet"
)

func TestPutStridedBasic(t *testing.T) {
	// Write 4 blocks of 8 bytes at stride 16 and check the holes are
	// untouched.
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		region := lt.Alloc(64)
		if lt.Self() == 1 {
			b := lt.MustBytes(region, 64)
			for i := range b {
				b[i] = 0xEE
			}
		}
		addrs, _ := lt.AddressInit(ctx, region)
		st := lapi.Stride{Blocks: 4, BlockBytes: 8, StrideBytes: 16}
		if lt.Self() == 0 {
			data := make([]byte, st.Total())
			for i := range data {
				data[i] = byte(i + 1)
			}
			cmpl := lt.NewCounter()
			if err := lt.PutStrided(ctx, 1, addrs[1], st, data, lapi.NoCounter, nil, cmpl); err != nil {
				t.Error(err)
			}
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
		if lt.Self() == 1 {
			b := lt.MustBytes(region, 64)
			for blk := 0; blk < 4; blk++ {
				for i := 0; i < 8; i++ {
					want := byte(blk*8 + i + 1)
					if b[blk*16+i] != want {
						t.Errorf("block %d byte %d = %d, want %d", blk, i, b[blk*16+i], want)
					}
				}
				for i := 8; i < 16 && blk*16+i < 64; i++ {
					if b[blk*16+i] != 0xEE {
						t.Errorf("hole byte %d overwritten", blk*16+i)
					}
				}
			}
		}
	})
}

func TestGetStridedBasic(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		region := lt.Alloc(100)
		if lt.Self() == 1 {
			b := lt.MustBytes(region, 100)
			for i := range b {
				b[i] = byte(i)
			}
		}
		addrs, _ := lt.AddressInit(ctx, region)
		st := lapi.Stride{Blocks: 5, BlockBytes: 4, StrideBytes: 20}
		if lt.Self() == 0 {
			buf := make([]byte, st.Total())
			org := lt.NewCounter()
			if err := lt.GetStrided(ctx, 1, addrs[1], st, buf, lapi.NoCounter, org); err != nil {
				t.Error(err)
			}
			lt.Waitcntr(ctx, org, 1)
			for blk := 0; blk < 5; blk++ {
				for i := 0; i < 4; i++ {
					if buf[blk*4+i] != byte(blk*20+i) {
						t.Errorf("block %d byte %d = %d", blk, i, buf[blk*4+i])
					}
				}
			}
		}
		lt.Gfence(ctx)
	})
}

func TestStridedLargeOutOfOrder(t *testing.T) {
	// A multi-packet strided put under aggressive reordering: packets
	// scatter directly by linear offset, so OOO must be harmless.
	scfg := switchnet.DefaultConfig()
	scfg.ReorderEvery = 2
	scfg.ReorderDelayPackets = 5
	st := lapi.Stride{Blocks: 64, BlockBytes: 512, StrideBytes: 1024} // 32 KB data in a 64 KB span
	runCfg(t, 2, scfg, lapi.DefaultConfig(), func(ctx exec.Context, lt *lapi.Task) {
		region := lt.Alloc(st.Span())
		addrs, _ := lt.AddressInit(ctx, region)
		if lt.Self() == 0 {
			data := make([]byte, st.Total())
			for i := range data {
				data[i] = byte(i * 7)
			}
			cmpl := lt.NewCounter()
			lt.PutStrided(ctx, 1, addrs[1], st, data, lapi.NoCounter, nil, cmpl)
			lt.Waitcntr(ctx, cmpl, 1)
		}
		lt.Gfence(ctx)
		if lt.Self() == 1 {
			b := lt.MustBytes(region, st.Span())
			for blk := 0; blk < st.Blocks; blk++ {
				for i := 0; i < st.BlockBytes; i++ {
					want := byte((blk*st.BlockBytes + i) * 7)
					if b[blk*st.StrideBytes+i] != want {
						t.Fatalf("block %d byte %d corrupted under reordering", blk, i)
					}
				}
			}
		}
	})
}

func TestStridedCountersAndFence(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		region := lt.Alloc(4096)
		tc := lt.NewCounter()
		addrs, _ := lt.AddressInit(ctx, region)
		st := lapi.Stride{Blocks: 8, BlockBytes: 256, StrideBytes: 512}
		if lt.Self() == 0 {
			data := make([]byte, st.Total())
			org := lt.NewCounter()
			lt.PutStrided(ctx, 1, addrs[1], st, data, tc.ID(), org, nil)
			lt.Waitcntr(ctx, org, 1) // origin buffer reusable
			lt.Fence(ctx)            // data transfer complete
			if lt.Outstanding() != 0 {
				t.Error("outstanding after fence")
			}
			lt.Barrier(ctx)
		} else {
			lt.Waitcntr(ctx, tc, 1) // target counter fires on arrival
			lt.Barrier(ctx)
		}
	})
}

func TestStridedValidation(t *testing.T) {
	run(t, 2, func(ctx exec.Context, lt *lapi.Task) {
		defer lt.Barrier(ctx)
		if lt.Self() != 0 {
			return
		}
		region := lt.Alloc(64)
		good := lapi.Stride{Blocks: 2, BlockBytes: 8, StrideBytes: 16}
		if err := lt.PutStrided(ctx, 1, region, good, make([]byte, 99), lapi.NoCounter, nil, nil); err == nil {
			t.Error("length mismatch accepted")
		}
		overlap := lapi.Stride{Blocks: 2, BlockBytes: 16, StrideBytes: 8}
		if err := lt.PutStrided(ctx, 1, region, overlap, make([]byte, 32), lapi.NoCounter, nil, nil); err == nil {
			t.Error("overlapping stride accepted")
		}
		// Fields the header carries in 32 bits, and extents past a memory
		// block, are refused before a packet leaves: truncated, the first
		// would land as a contiguous 16 bytes.
		for _, st := range []lapi.Stride{
			{Blocks: 2, BlockBytes: 8, StrideBytes: 1<<32 + 8},
			{Blocks: 2, BlockBytes: 8, StrideBytes: 1<<32 - 4},
			{Blocks: 1 << 32, BlockBytes: 0, StrideBytes: 8},
		} {
			if err := lt.PutStrided(ctx, 1, region, st, make([]byte, st.Total()), lapi.NoCounter, nil, nil); err == nil {
				t.Errorf("PutStrided accepted %+v", st)
			}
			if err := lt.GetStrided(ctx, 1, region, st, make([]byte, st.Total()), lapi.NoCounter, nil); err == nil {
				t.Errorf("GetStrided accepted %+v", st)
			}
		}
		if err := lt.GetStrided(ctx, 9, region, good, make([]byte, 16), lapi.NoCounter, nil); err == nil {
			t.Error("bad rank accepted")
		}
		if err := lt.GetStrided(ctx, 1, lapi.AddrNil, good, make([]byte, 16), lapi.NoCounter, nil); err == nil {
			t.Error("nil address accepted")
		}
	})
}

// TestPropStridedRoundTrip: putting any strided vector and getting it back
// (with independent geometry checks) preserves the bytes.
func TestPropStridedRoundTrip(t *testing.T) {
	prop := func(blocks, blockB, extra uint8, seed byte) bool {
		st := lapi.Stride{
			Blocks:      int(blocks%16) + 1,
			BlockBytes:  int(blockB%64) + 1,
			StrideBytes: int(blockB%64) + 1 + int(extra%32),
		}
		c, err := cluster.NewSimDefault(2)
		if err != nil {
			return false
		}
		ok := true
		err = c.Run(func(ctx exec.Context, lt *lapi.Task) {
			region := lt.Alloc(st.Span())
			addrs, _ := lt.AddressInit(ctx, region)
			if lt.Self() == 0 {
				data := make([]byte, st.Total())
				for i := range data {
					data[i] = byte(i) ^ seed
				}
				cmpl := lt.NewCounter()
				if err := lt.PutStrided(ctx, 1, addrs[1], st, data, lapi.NoCounter, nil, cmpl); err != nil {
					ok = false
					return
				}
				lt.Waitcntr(ctx, cmpl, 1)
				back := make([]byte, st.Total())
				org := lt.NewCounter()
				if err := lt.GetStrided(ctx, 1, addrs[1], st, back, lapi.NoCounter, org); err != nil {
					ok = false
					return
				}
				lt.Waitcntr(ctx, org, 1)
				if !bytes.Equal(back, data) {
					ok = false
				}
			}
			lt.Gfence(ctx)
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStridedSingleMessageCost(t *testing.T) {
	// The point of the extension: one strided put of R rows costs ONE
	// operation overhead, not R. Compare initiation times.
	lcfg := lapi.DefaultConfig()
	const rows, rowBytes = 32, 256
	var vectorTook, loopTook time.Duration
	runCfg(t, 2, switchnet.DefaultConfig(), lcfg, func(ctx exec.Context, lt *lapi.Task) {
		region := lt.Alloc(rows * rowBytes * 2)
		addrs, _ := lt.AddressInit(ctx, region)
		if lt.Self() == 0 {
			data := make([]byte, rows*rowBytes)
			st := lapi.Stride{Blocks: rows, BlockBytes: rowBytes, StrideBytes: rowBytes * 2}
			start := ctx.Now()
			lt.PutStrided(ctx, 1, addrs[1], st, data, lapi.NoCounter, nil, nil)
			vectorTook = ctx.Now() - start

			start = ctx.Now()
			for r := 0; r < rows; r++ {
				lt.Put(ctx, 1, addrs[1]+lapi.Addr(r*rowBytes*2), data[r*rowBytes:(r+1)*rowBytes], lapi.NoCounter, nil, nil)
			}
			loopTook = ctx.Now() - start
		}
		lt.Gfence(ctx)
	})
	if vectorTook >= loopTook/2 {
		t.Fatalf("strided put (%v) should be far cheaper to issue than %d individual puts (%v)",
			vectorTook, rows, loopTook)
	}
}
