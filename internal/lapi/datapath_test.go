package lapi_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/stats"
	"golapi/internal/switchnet"
)

// The data-path golden pins, for every origin operation that moves user
// bytes, the exact virtual time to origin completion and to the target
// counter, the switch packets the operation sent, the bytes charged as
// internal copies, and a checksum of the memory it wrote. Sizes straddle
// each protocol edge (empty, one byte past a full packet, the internal
// buffer limit, the rendezvous crossover) and the strided geometries cover
// one block, a few blocks cut by packet ends, many small blocks, and a
// stride equal to the block size. The figure experiments print strided
// bandwidth to one decimal place, too coarse to see a few nanoseconds of
// drift; this file is not.

type dpCase struct {
	op   string      // Put, Get, PutStrided, GetStrided, Amsend, AmsendSync
	n    int         // data bytes (contiguous ops, Amsend udata)
	st   lapi.Stride // strided ops
	uhdr int         // Amsend user-header bytes
}

func (c dpCase) total() int {
	if strings.HasSuffix(c.op, "Strided") {
		return c.st.Total()
	}
	return c.n
}

func (c dpCase) String() string {
	switch {
	case strings.HasSuffix(c.op, "Strided"):
		return fmt.Sprintf("%s blocks=%d block=%d stride=%d", c.op, c.st.Blocks, c.st.BlockBytes, c.st.StrideBytes)
	case strings.HasPrefix(c.op, "Amsend"):
		return fmt.Sprintf("%s uhdr=%d n=%d", c.op, c.uhdr, c.n)
	default:
		return fmt.Sprintf("%s n=%d", c.op, c.n)
	}
}

func datapathCases() []dpCase {
	lcfg := lapi.DefaultConfig()
	p := switchnet.DefaultConfig().PacketBytes - lcfg.HeaderBytes
	limit := lcfg.InternalBufferLimit
	const crossover = 256 << 10 // the simulated switch's auto-tuned rendezvous limit
	var cs []dpCase
	for _, op := range []string{"Put", "Get"} {
		for _, n := range []int{0, 8, p, p + 1, limit, limit + 1, crossover - 1, crossover, crossover + 1} {
			cs = append(cs, dpCase{op: op, n: n})
		}
	}
	geoms := []lapi.Stride{
		{},
		{Blocks: 0, BlockBytes: 8, StrideBytes: 16},
		{Blocks: 1, BlockBytes: 8, StrideBytes: 8},
		{Blocks: 1, BlockBytes: p + 1, StrideBytes: 2 * p},
		{Blocks: 4, BlockBytes: 2, StrideBytes: 2},
		{Blocks: 4, BlockBytes: 256, StrideBytes: 256},
		{Blocks: 4, BlockBytes: 257, StrideBytes: 300},
		{Blocks: 4, BlockBytes: 600, StrideBytes: 1000},
		{Blocks: 512, BlockBytes: 2, StrideBytes: 6},
		{Blocks: 512, BlockBytes: 1024, StrideBytes: 1024},
		{Blocks: 512, BlockBytes: 1024, StrideBytes: 2048},
	}
	for _, op := range []string{"PutStrided", "GetStrided"} {
		for _, st := range geoms {
			cs = append(cs, dpCase{op: op, st: st})
		}
	}
	for _, op := range []string{"Amsend", "AmsendSync"} {
		for _, uh := range []int{0, 16} {
			for _, n := range []int{0, 8, p - uh, p - uh + 1, limit - uh, limit - uh + 1, 3*p + 5, crossover} {
				cs = append(cs, dpCase{op: op, n: n, uhdr: uh})
			}
		}
	}
	return cs
}

// runDatapathCase runs one operation from rank 0 to rank 1 on a fresh
// two-task simulated switch and returns its golden line.
func runDatapathCase(t *testing.T, mode lapi.Mode, c dpCase) string {
	lcfg := lapi.DefaultConfig()
	lcfg.Mode = mode
	j, err := cluster.NewSim(2, switchnet.DefaultConfig(), lcfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.total()
	span := n
	if strings.HasSuffix(c.op, "Strided") {
		span = c.st.Span()
	}
	var doneNs, tgtNs, pkts, copies int64
	var sum uint32
	err = j.Run(func(ctx exec.Context, lt *lapi.Task) {
		region := lt.Alloc(span + 1)
		tc := lt.NewCounter()
		hdl := lt.RegisterHandler(func(tk *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
			if info.DataLen == 0 {
				return lapi.AddrNil, func(exec.Context, *lapi.Task) {}
			}
			return region, func(exec.Context, *lapi.Task) {}
		})
		mem := lt.MustBytes(region, span+1)
		for i := range mem {
			mem[i] = byte(i*13 + lt.Self())
		}
		addrs, aerr := lt.AddressInit(ctx, region)
		if aerr != nil {
			t.Error(aerr)
			return
		}
		lt.Barrier(ctx)
		if lt.Self() == 1 {
			start := ctx.Now()
			lt.Waitcntr(ctx, tc, 1)
			tgtNs = int64(ctx.Now() - start)
			lt.Gfence(ctx)
			if !strings.HasPrefix(c.op, "Get") {
				sum = checksum(mem)
			}
			return
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		uhdr := make([]byte, c.uhdr)
		org, cmpl := lt.NewCounter(), lt.NewCounter()
		start := ctx.Now()
		pkts0, copies0 := j.Switch.Counters.Get(stats.PacketsSent), lt.Counters.Get(stats.CopiesBytes)
		var oerr error
		switch c.op {
		case "Put":
			oerr = lt.Put(ctx, 1, addrs[1], data, tc.ID(), org, cmpl)
		case "PutStrided":
			oerr = lt.PutStrided(ctx, 1, addrs[1], c.st, data, tc.ID(), org, cmpl)
		case "Get":
			oerr = lt.Get(ctx, 1, addrs[1], data, tc.ID(), cmpl)
		case "GetStrided":
			oerr = lt.GetStrided(ctx, 1, addrs[1], c.st, data, tc.ID(), cmpl)
		case "Amsend":
			oerr = lt.Amsend(ctx, 1, hdl, uhdr, data, tc.ID(), org, cmpl)
		case "AmsendSync":
			oerr = lt.AmsendSync(ctx, 1, hdl, uhdr, data, tc.ID())
		}
		if oerr != nil {
			t.Errorf("%v: %v", c, oerr)
		}
		if c.op != "AmsendSync" {
			lt.Waitcntr(ctx, cmpl, 1)
		}
		doneNs = int64(ctx.Now() - start)
		pkts = j.Switch.Counters.Get(stats.PacketsSent) - pkts0
		copies = lt.Counters.Get(stats.CopiesBytes) - copies0
		lt.Gfence(ctx)
		if strings.HasPrefix(c.op, "Get") {
			sum = checksum(data)
		}
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return fmt.Sprintf("%s %v: done_ns=%d tgt_ns=%d pkts=%d copies=%d sum=%08x", mode, c, doneNs, tgtNs, pkts, copies, sum)
}

func checksum(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// TestDatapathGolden compares every case, in interrupt and polling mode,
// with testdata/datapath.golden. On a mismatch the actual output is left
// in $TMPDIR/datapath.golden.
func TestDatapathGolden(t *testing.T) {
	var out strings.Builder
	for _, mode := range []lapi.Mode{lapi.Interrupt, lapi.Polling} {
		for _, c := range datapathCases() {
			out.WriteString(runDatapathCase(t, mode, c))
			out.WriteByte('\n')
		}
	}
	got := out.String()
	b, err := os.ReadFile(filepath.Join("testdata", "datapath.golden"))
	if err == nil && string(b) == got {
		return
	}
	dump := filepath.Join(os.TempDir(), "datapath.golden")
	if werr := os.WriteFile(dump, []byte(got), 0o644); werr != nil {
		t.Log(werr)
	}
	if err != nil {
		t.Fatalf("%v (actual output in %s)", err, dump)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, golden has %d", len(gl), len(wl))
	}
	t.Errorf("data path differs from testdata/datapath.golden (actual output in %s)", dump)
}
