package cluster

import (
	"time"

	"testing"

	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/lapi"
	"golapi/internal/parallel"
	"golapi/internal/switchnet"
	"golapi/internal/trace"
)

// meshWorkload is the Tier B reference workload: an 8-rank neighbour ring
// where every rank streams puts to its successor and fences. It generates
// sustained cross-rank (and, under sharding, cross-shard) traffic with
// data, acks and fence packets in flight concurrently.
func meshWorkload(rounds, size int) func(ctx exec.Context, t *lapi.Task) {
	return func(ctx exec.Context, t *lapi.Task) {
		buf := t.Alloc(size * rounds)
		addrs, err := t.AddressInit(ctx, buf)
		if err != nil {
			panic(err)
		}
		next := (t.Self() + 1) % t.N()
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(t.Self() + i)
		}
		for r := 0; r < rounds; r++ {
			t.PutSync(ctx, next, addrs[next]+lapi.Addr(r*size), src, lapi.NoCounter)
		}
		t.Gfence(ctx)
	}
}

// plainJob, passed as the shard count, runs the workload on the plain
// single-engine Job — the serial reference — instead of a ShardedJob.
const plainJob = 0

// runMeshTrace executes the workload on n ranks split across shards
// (plainJob: the serial reference) and returns the canonical merged trace
// of per-rank tracers.
func runMeshTrace(t *testing.T, shards, n int) []trace.Event {
	return runMeshTraceCfg(t, shards, n, switchnet.DefaultConfig(), 0)
}

// runMeshTraceCfg is runMeshTrace with an explicit fabric config and a
// per-rank start stagger, for the newly ungated regimes (contended
// interiors, zero wire latency).
func runMeshTraceCfg(t *testing.T, shards, n int, scfg switchnet.Config, stagger time.Duration) []trace.Event {
	t.Helper()
	tracers := make([]*trace.Tracer, n)
	for i := range tracers {
		tracers[i] = trace.New(4096)
	}
	mk := func(rank int, rt exec.Runtime, tr fabric.Transport) (*lapi.Task, error) {
		cfg := lapi.DefaultConfig()
		cfg.Tracer = tracers[rank]
		return lapi.NewTask(rt, tr, cfg)
	}
	inner := meshWorkload(20, 512)
	main := func(ctx exec.Context, tk *lapi.Task) {
		if stagger > 0 {
			ctx.Sleep(time.Duration(tk.Self()) * stagger)
		}
		inner(ctx, tk)
	}
	if shards == plainJob {
		rank := 0
		j, err := NewJob(n, scfg, func(rt exec.Runtime, tr fabric.Transport) (*lapi.Task, error) {
			r := rank
			rank++
			return mk(r, rt, tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Run(main); err != nil {
			t.Fatal(err)
		}
	} else {
		j, err := NewShardedJob(parallel.New(shards), shards, n, scfg, mk)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Run(main); err != nil {
			t.Fatal(err)
		}
	}
	return trace.Merge(tracers...)
}

// TestShardedTraceMatchesSerial is the Tier B determinism gate: the
// merged virtual-time trace of a sharded 8-node mesh must be byte-
// identical to the serial engine's, for every shard count, comparing (at
// least) the first 10k events.
func TestShardedTraceMatchesSerial(t *testing.T) {
	const n = 8
	serial := runMeshTrace(t, plainJob, n)
	if len(serial) == 0 {
		t.Fatal("serial run produced no trace events")
	}
	limit := 10000
	if len(serial) < limit {
		limit = len(serial)
	}
	for _, shards := range []int{2, 4, 8} {
		got := runMeshTrace(t, shards, n)
		if len(got) != len(serial) {
			t.Errorf("shards=%d: %d trace events, serial has %d", shards, len(got), len(serial))
		}
		for i := 0; i < limit && i < len(got); i++ {
			if got[i] != serial[i] {
				t.Fatalf("shards=%d: trace diverges at event %d:\n  serial:  %+v\n  sharded: %+v",
					shards, i, serial[i], got[i])
			}
		}
	}
}

// TestShardedContendedTraceMatchesSerial runs the Tier B determinism gate
// on the newly ungated fabric regimes: a contended spine, a fat tree, and
// zero wire latency (micro-epochs). The full protocol stack rides the
// barrier-arbitrated interior here — acks, retransmission timers, fences —
// and the merged trace must still match the serial engine byte for byte.
// One shard is in the list too: a single engine driven in epochs, where
// the switch's instant resolver and the epoch barrier both call
// ResolveSpine, must trace exactly like the plain Job.
func TestShardedContendedTraceMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*switchnet.Config)
	}{
		{"spine", func(c *switchnet.Config) { c.SpineLinks = 2 }},
		{"fattree", func(c *switchnet.Config) { c.FatTreeLevels = []int{2, 1}; c.FatTreeArity = 2 }},
		{"zerolat", func(c *switchnet.Config) { c.WireLatency = 0 }},
	}
	// The workload is fully symmetric (every rank starts at t=0 and the
	// windowed put pipeline re-synchronizes ranks), so same-instant
	// interior claims are endemic — exactly the tie case the shared
	// (timestamp, source, per-source seq) arbitration key exists for
	// (DESIGN.md §13).
	const n = 8
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			scfg := switchnet.DefaultConfig()
			tc.mut(&scfg)
			serial := runMeshTraceCfg(t, plainJob, n, scfg, 0)
			if len(serial) == 0 {
				t.Fatal("serial run produced no trace events")
			}
			for _, shards := range []int{1, 2, 4, 8} {
				got := runMeshTraceCfg(t, shards, n, scfg, 0)
				if len(got) != len(serial) {
					t.Errorf("shards=%d: %d trace events, serial has %d", shards, len(got), len(serial))
				}
				for i := 0; i < len(serial) && i < len(got); i++ {
					if got[i] != serial[i] {
						t.Fatalf("shards=%d: trace diverges at event %d:\n  serial:  %+v\n  sharded: %+v",
							shards, i, serial[i], got[i])
					}
				}
			}
		})
	}
}

// TestShardedRunToRunDeterminism: two identical sharded runs must agree
// event for event (worker scheduling must not leak into virtual time).
func TestShardedRunToRunDeterminism(t *testing.T) {
	a := runMeshTrace(t, 4, 8)
	b := runMeshTrace(t, 4, 8)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestShardedVirtualTimeMatchesSerial checks end-to-end virtual
// completion times (not just traces) across shard counts, including a
// non-power-of-two rank count with uneven shard blocks. Each rank records
// the virtual instant its fence completed; those instants must match the
// serial engine's exactly.
func TestShardedVirtualTimeMatchesSerial(t *testing.T) {
	run := func(n, shards int) []time.Duration {
		done := make([]time.Duration, n)
		inner := meshWorkload(10, 256)
		main := func(ctx exec.Context, tk *lapi.Task) {
			inner(ctx, tk)
			done[tk.Self()] = ctx.Now()
		}
		if shards == 1 {
			j, err := NewSimDefault(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Run(main); err != nil {
				t.Fatal(err)
			}
		} else {
			j, err := NewShardedSim(nil, shards, n, switchnet.DefaultConfig(), lapi.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Run(main); err != nil {
				t.Fatalf("n=%d shards=%d: %v", n, shards, err)
			}
		}
		return done
	}
	for _, n := range []int{3, 8} {
		want := run(n, 1)
		for shards := 2; shards <= n; shards++ {
			got := run(n, shards)
			for r := range want {
				if got[r] != want[r] {
					t.Errorf("n=%d shards=%d rank %d: fence completed at %v, serial %v",
						n, shards, r, got[r], want[r])
				}
			}
		}
	}
}
