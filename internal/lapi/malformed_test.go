package lapi

import (
	"strings"
	"testing"

	"golapi/internal/exec"
	"golapi/internal/sim"
	"golapi/internal/switchnet"
)

// TestMalformedRegionPanics hands task 1 a Put or Get packet whose header
// names a bad target region. Each must be rejected before any memory is
// touched, with the panic message every other malformed packet gets; a
// stride with zero-byte blocks used to die on an integer division by zero.
func TestMalformedRegionPanics(t *testing.T) {
	strided := func(typ byte, s Stride, totalLen uint32) header {
		a2, aux := packStride(s)
		return header{typ: typ, msgID: 1, totalLen: totalLen, addr2: a2, aux: aux}
	}
	contiguous := header{typ: ptPutData, msgID: 1, offset: 4, totalLen: 8}
	cases := []struct {
		name    string
		h       header
		payload int
		want    string
	}{
		{"put zero-byte blocks", strided(ptPutData, Stride{Blocks: 4, StrideBytes: 16}, 8), 8, "Put from 0: lapi: stride"},
		{"get zero-byte blocks", strided(ptGetReq, Stride{Blocks: 4, StrideBytes: 16}, 8), 0, "Get from 0: lapi: stride"},
		{"overlapping blocks", strided(ptPutData, Stride{Blocks: 2, BlockBytes: 16, StrideBytes: 8}, 32), 32, "Put from 0: lapi: stride 8 overlaps"},
		{"length mismatch", strided(ptGetReq, Stride{Blocks: 2, BlockBytes: 8, StrideBytes: 8}, 24), 0, "Get from 0: lapi: stride"},
		{"extent past block", strided(ptPutData, Stride{Blocks: 4, BlockBytes: 8, StrideBytes: 32}, 32), 8, "Put from 0: lapi: address"},
		{"extent past 4 GiB", strided(ptGetReq, Stride{Blocks: 1 << 20, BlockBytes: 1, StrideBytes: 1 << 20}, 1<<20), 0, "Get from 0: lapi: stride"},
		{"payload overruns message", contiguous, 8, "Put from 0: 8 bytes at offset 4 overrun"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := handleOnTask1(t, c.h, c.payload)
			if !strings.HasPrefix(got, "lapi: task 1: "+c.want) {
				t.Errorf("panic %q, want prefix %q", got, "lapi: task 1: "+c.want)
			}
		})
	}
}

// handleOnTask1 dispatches one packet with h (its addr set to a fresh
// 64-byte block) and an n-byte payload on task 1 of a two-task simulated
// switch, and returns what the dispatch panicked with.
func handleOnTask1(t *testing.T, h header, n int) string {
	eng := sim.NewEngine()
	sw, err := switchnet.New(eng, 2, switchnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.NewSimRuntime(eng)
	var tasks [2]*Task
	for i := range tasks {
		if tasks[i], err = NewTask(rt, sw.Endpoint(i), DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	var got any
	rt.Go("inject", func(ctx exec.Context) {
		defer func() {
			got = recover()
			tasks[0].Close()
			tasks[1].Close()
		}()
		tk := tasks[1]
		h.addr = uint64(tk.Alloc(64))
		tk.handle(ctx, 0, tk.buildPacket(&h, make([]byte, n)))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("dispatch ended with %v (%T), want a lapi panic message", got, got)
	}
	return msg
}
