package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/parallel"
	"golapi/internal/stats"
	"golapi/internal/switchnet"
)

// The retransmission golden: no paper experiment drops a packet, so this
// is the only pinned record of the switch's ack/RTO machinery in virtual
// time. A fixed LAPI program (eager and rendezvous Put/Get) and a fixed MPI
// ring run under four drop/reorder/RTO configurations; every rank's clock
// after every operation, the final clock and the switch's packet and
// retransmit counts must match testdata/retransmit.golden byte for byte,
// serially and on two shards.

// retransmitSizes spans both LAPI protocols: a few eager packets up to the
// rendezvous crossover, then the direct lane at 300 KB and 1 MiB.
var retransmitSizes = []int{4, 900, 5000, 64000, 300000, 1 << 20}

// retransmitConfigs are the fault schedules, named as they appear in the
// golden file.
var retransmitConfigs = []struct {
	name string
	mut  func(*switchnet.Config)
}{
	{"drop3-reorder4", func(c *switchnet.Config) { c.DropEvery, c.ReorderEvery = 3, 4 }},
	{"drop2", func(c *switchnet.Config) { c.DropEvery = 2 }},
	{"drop5-reorder3-rto20us", func(c *switchnet.Config) {
		c.DropEvery, c.ReorderEvery, c.RTO = 5, 3, 20*time.Microsecond
	}},
	{"reorder2-rto15us", func(c *switchnet.Config) { c.ReorderEvery, c.RTO = 2, 15*time.Microsecond }},
}

// retransmitPattern is the byte rank r holds at offset i of a region it
// fills, so every landed byte can be checked for its origin.
func retransmitPattern(r, i int) byte { return byte(r*37 + i*11 + i>>10) }

// retransmitLAPI is the 4-task LAPI program. Each task owns a put area and
// a get area of 1 MiB; it Puts every size into its successor's put area
// and Gets every size from its predecessor's get area (never written, so
// every Get's bytes are known), recording its clock after each operation.
func retransmitLAPI(log [][]string) func(ctx exec.Context, t *lapi.Task) {
	const area = 1 << 20
	return func(ctx exec.Context, t *lapi.Task) {
		me, n := t.Self(), t.N()
		base := t.Alloc(2 * area)
		addrs, err := t.AddressInit(ctx, base)
		if err != nil {
			panic(err)
		}
		mem := t.MustBytes(base, 2*area)
		for i := 0; i < area; i++ {
			mem[area+i] = retransmitPattern(me, i)
		}
		t.Gfence(ctx)
		next, prev := (me+1)%n, (me+n-1)%n
		src := make([]byte, area)
		for i := range src {
			src[i] = retransmitPattern(me, i)
		}
		dst := make([]byte, area)
		for _, size := range retransmitSizes {
			if err := t.PutSync(ctx, next, addrs[next], src[:size], lapi.NoCounter); err != nil {
				panic(err)
			}
			log[me] = append(log[me], fmt.Sprintf("put %d %d", size, ctx.Now()))
			if err := t.GetSync(ctx, prev, addrs[prev]+area, dst[:size], lapi.NoCounter); err != nil {
				panic(err)
			}
			for i := 0; i < size; i++ {
				if dst[i] != retransmitPattern(prev, i) {
					panic(fmt.Sprintf("rank %d: get %d from %d: byte %d is %d, want %d", me, size, prev, i, dst[i], retransmitPattern(prev, i)))
				}
			}
			log[me] = append(log[me], fmt.Sprintf("get %d %d", size, ctx.Now()))
		}
		t.Gfence(ctx)
		// The last Put into this task's area was the predecessor's 1 MiB.
		for i := 0; i < area; i++ {
			if mem[i] != retransmitPattern(prev, i) {
				panic(fmt.Sprintf("rank %d: put area byte %d is %d, want %d", me, i, mem[i], retransmitPattern(prev, i)))
			}
		}
		log[me] = append(log[me], fmt.Sprintf("fence %d", ctx.Now()))
	}
}

// retransmitMPI is the 3-rank MPI ring: every rank sends each size to its
// successor while receiving it from its predecessor.
func retransmitMPI(log [][]string) func(ctx exec.Context, t *mpi.Task) {
	return func(ctx exec.Context, t *mpi.Task) {
		me, n := t.Self(), t.N()
		next, prev := (me+1)%n, (me+n-1)%n
		src := make([]byte, 1<<20)
		for i := range src {
			src[i] = retransmitPattern(me, i)
		}
		buf := make([]byte, 1<<20)
		for k, size := range retransmitSizes {
			rr, err := t.Irecv(ctx, prev, k, buf[:size])
			if err != nil {
				panic(err)
			}
			sr, err := t.Isend(ctx, next, k, src[:size])
			if err != nil {
				panic(err)
			}
			if err := t.Waitall(ctx, []*mpi.Request{rr, sr}); err != nil {
				panic(err)
			}
			for i := 0; i < size; i++ {
				if buf[i] != retransmitPattern(prev, i) {
					panic(fmt.Sprintf("rank %d: recv %d from %d: byte %d is %d, want %d", me, size, prev, i, buf[i], retransmitPattern(prev, i)))
				}
			}
			log[me] = append(log[me], fmt.Sprintf("ring %d %d", size, ctx.Now()))
		}
		if err := t.Barrier(ctx); err != nil {
			panic(err)
		}
		log[me] = append(log[me], fmt.Sprintf("barrier %d", ctx.Now()))
	}
}

// retransmitRecord renders one run: per-rank clocks, then the switch's
// counts. now is the job's final clock, or negative when the run has no
// single clock to report (a sharded run's engines each stop at their own
// last epoch deadline).
func retransmitRecord(b *strings.Builder, prog, cfg string, log [][]string, sw *switchnet.Switch, now time.Duration) {
	fmt.Fprintf(b, "== %s %s\n", prog, cfg)
	for r, lines := range log {
		for _, l := range lines {
			fmt.Fprintf(b, "rank %d %s\n", r, l)
		}
	}
	if now >= 0 {
		fmt.Fprintf(b, "job_now %d\n", now)
	}
	fmt.Fprintf(b, "retransmits %d\n", sw.Counters.Get(stats.Retransmits))
	fmt.Fprintf(b, "packets_sent %d\n", sw.Counters.Get(stats.PacketsSent))
}

// runRetransmitGolden runs every program under every config on shards
// sub-engines (1 = the plain serial Job) and returns the rendered record.
func runRetransmitGolden(t *testing.T, shards int) string {
	t.Helper()
	var b strings.Builder
	for _, c := range retransmitConfigs {
		scfg := switchnet.DefaultConfig()
		c.mut(&scfg)

		lapiLog := make([][]string, 4)
		mkLAPI := func(_ int, rt exec.Runtime, tr fabric.Transport) (*lapi.Task, error) {
			return lapi.NewTask(rt, tr, lapi.DefaultConfig())
		}
		mpiLog := make([][]string, 3)
		mkMPI := func(_ int, rt exec.Runtime, tr fabric.Transport) (*mpi.Task, error) {
			return mpi.NewTask(rt, tr, mpi.DefaultConfig())
		}
		if shards == 1 {
			lj, err := NewSim(4, scfg, lapi.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := lj.Run(retransmitLAPI(lapiLog)); err != nil {
				t.Fatalf("lapi %s: %v", c.name, err)
			}
			retransmitRecord(&b, "lapi", c.name, lapiLog, lj.Switch, time.Duration(lj.Now()))
			mj, err := NewSimMPI(3, scfg, mpi.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := mj.Run(retransmitMPI(mpiLog)); err != nil {
				t.Fatalf("mpi %s: %v", c.name, err)
			}
			retransmitRecord(&b, "mpi", c.name, mpiLog, mj.Switch, time.Duration(mj.Now()))
			continue
		}
		lj, err := NewShardedJob(parallel.New(shards), shards, 4, scfg, mkLAPI)
		if err != nil {
			t.Fatal(err)
		}
		if err := lj.Run(retransmitLAPI(lapiLog)); err != nil {
			t.Fatalf("lapi %s: %v", c.name, err)
		}
		retransmitRecord(&b, "lapi", c.name, lapiLog, lj.Switch, -1)
		mj, err := NewShardedJob(parallel.New(shards), shards, 3, scfg, mkMPI)
		if err != nil {
			t.Fatal(err)
		}
		if err := mj.Run(retransmitMPI(mpiLog)); err != nil {
			t.Fatalf("mpi %s: %v", c.name, err)
		}
		retransmitRecord(&b, "mpi", c.name, mpiLog, mj.Switch, -1)
	}
	return b.String()
}

// dropJobNow removes the job_now lines, which only a serial run reports.
func dropJobNow(s string) string {
	var out strings.Builder
	for _, l := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(l, "job_now ") {
			out.WriteString(l)
		}
	}
	return out.String()
}

// checkRetransmitGolden compares got with the committed golden file —
// less its job_now lines for a sharded run — and, on a mismatch, leaves
// got where it can be reviewed.
func checkRetransmitGolden(t *testing.T, got string, sharded bool) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "retransmit.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want, name := string(b), "retransmit.golden"
	if sharded {
		want, name = dropJobNow(want), "retransmit-sharded.golden"
	}
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
			break
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, golden has %d", len(gl), len(wl))
	}
	out := filepath.Join(os.TempDir(), name)
	if err := os.WriteFile(out, []byte(got), 0o644); err == nil {
		t.Logf("actual output written to %s", out)
	}
}

// TestRetransmitGolden pins the serial run.
func TestRetransmitGolden(t *testing.T) {
	got := runRetransmitGolden(t, 1)
	if strings.Contains(got, "retransmits 0\n") {
		t.Fatalf("a configuration ran without retransmitting:\n%s", got)
	}
	checkRetransmitGolden(t, got, false)
}

// TestShardedRetransmitGolden pins the same programs on two shards against
// the same file: only the serial-only final clock is left out.
func TestShardedRetransmitGolden(t *testing.T) {
	checkRetransmitGolden(t, runRetransmitGolden(t, 2), true)
}
