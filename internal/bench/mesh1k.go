// mesh1k.go is the thousand-task sweep the ungated sharded simulator
// exists for: 1024 LAPI tasks on a hierarchical fat-tree fabric, driven
// through three traffic patterns — uniform pseudo-random point-to-point,
// hot-spot (everybody hammers rank 0), and a hand-rolled butterfly
// allreduce. Virtual completion times are the byte-diffable output (the
// determinism gate compares them serial vs sharded); wall-clock time is
// the scaling number BENCH_hotpath.json records.
//
// The allreduce is hand-rolled rather than borrowed from package
// collective because collective.Comm pre-allocates 2·2(N-1) counters per
// rank — ~4M counters at N=1024 — while the butterfly needs exactly
// log2(N) per rank.
package bench

import (
	"fmt"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/parallel"
	"golapi/internal/switchnet"
)

// Mesh1kTasks is the sweep's job size. Power of two (the butterfly
// requires it).
const Mesh1kTasks = 1024

// mesh1kSlot is the per-source landing slot size for the point-to-point
// patterns and the butterfly payload size.
const mesh1kSlot = 32

// Mesh1kConfig returns the sweep's fabric: a two-level fat tree over
// 32-rank leaf groups, so uniform traffic crosses shared interior pools
// and the hot-spot pattern contends below rank 0's leaf.
func Mesh1kConfig() switchnet.Config {
	cfg := switchnet.DefaultConfig()
	cfg.FatTreeArity = 32
	cfg.FatTreeLevels = []int{64, 16}
	return cfg
}

// Mesh1kResult is one run of the thousand-task sweep.
type Mesh1kResult struct {
	Tasks  int
	Shards int
	Rounds int // puts per rank per point-to-point pattern

	// Virtual completion time per pattern: the instant the last rank's
	// final fence completed. Identical for every shard count.
	Uniform   time.Duration
	Hotspot   time.Duration
	Allreduce time.Duration

	// WallMs is the real time the whole sweep took on this host.
	WallMs float64
}

// mesh1kLCG is a deterministic pseudo-random stream for the uniform
// pattern (SplitMix64 step); the target sequence must not depend on
// anything but (rank, round).
func mesh1kLCG(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mesh1kExpand fills dst with x's bytes, least significant first, repeated.
func mesh1kExpand(dst []byte, x uint64) {
	for i := range dst {
		dst[i] = byte(x >> (8 * (uint(i) % 8)))
	}
}

// mesh1kUniform: every rank issues rounds synchronous puts to
// pseudo-random peers, landing in its own per-source slot.
func mesh1kUniform(rounds int, done []time.Duration) func(ctx exec.Context, t *lapi.Task) {
	return func(ctx exec.Context, t *lapi.Task) {
		n, self := t.N(), t.Self()
		buf := t.Alloc(n * mesh1kSlot)
		addrs, err := t.AddressInit(ctx, buf)
		if err != nil {
			panic(err)
		}
		src := make([]byte, mesh1kSlot)
		for i := range src {
			src[i] = byte(self + i)
		}
		for r := 0; r < rounds; r++ {
			tgt := int(mesh1kLCG(uint64(self)*1024+uint64(r)) % uint64(n))
			if tgt == self {
				tgt = (tgt + 1) % n
			}
			if err := t.PutSync(ctx, tgt, addrs[tgt]+lapi.Addr(self*mesh1kSlot), src, lapi.NoCounter); err != nil {
				panic(err)
			}
		}
		t.Gfence(ctx)
		done[self] = ctx.Now()
	}
}

// mesh1kHotspot: every rank but 0 issues rounds synchronous puts at
// rank 0 — the many-to-one pattern whose cost is set by rank 0's ingress
// link and the fat-tree pools above its leaf.
func mesh1kHotspot(rounds int, done []time.Duration) func(ctx exec.Context, t *lapi.Task) {
	return func(ctx exec.Context, t *lapi.Task) {
		n, self := t.N(), t.Self()
		buf := t.Alloc(n * mesh1kSlot)
		addrs, err := t.AddressInit(ctx, buf)
		if err != nil {
			panic(err)
		}
		if self != 0 {
			src := make([]byte, mesh1kSlot)
			for i := range src {
				src[i] = byte(self + i)
			}
			for r := 0; r < rounds; r++ {
				if err := t.PutSync(ctx, 0, addrs[0]+lapi.Addr(self*mesh1kSlot), src, lapi.NoCounter); err != nil {
					panic(err)
				}
			}
		}
		t.Gfence(ctx)
		done[self] = ctx.Now()
	}
}

// mesh1kAllreduce: a butterfly XOR-allreduce over one mesh1kSlot-sized
// value per rank. Level l exchanges with partner rank^(1<<l): put my
// value into the partner's level-l slot, wait for the partner's arrival
// on my level-l counter, combine. Each level has a private slot and
// counter, so out-of-order delivery between levels cannot corrupt an
// unconsumed value, and the wait structure itself keeps the levels in
// lockstep. The final value must be the XOR-fold of every rank's seed —
// checked on every rank.
func mesh1kAllreduce(done []time.Duration, fail func(string)) func(ctx exec.Context, t *lapi.Task) {
	return func(ctx exec.Context, t *lapi.Task) {
		n, self := t.N(), t.Self()
		levels := 0
		for 1<<levels < n {
			levels++
		}
		buf := t.Alloc(levels * mesh1kSlot)
		cntrs := make([]*lapi.Counter, levels)
		for l := range cntrs {
			cntrs[l] = t.NewCounter() // identical order on every rank: IDs align
		}
		addrs, err := t.AddressInit(ctx, buf)
		if err != nil {
			panic(err)
		}
		val := make([]byte, mesh1kSlot)
		mesh1kExpand(val, mesh1kLCG(uint64(self)))
		for l := 0; l < levels; l++ {
			partner := self ^ (1 << l)
			if err := t.PutSync(ctx, partner, addrs[partner]+lapi.Addr(l*mesh1kSlot), val, cntrs[l].ID()); err != nil {
				panic(err)
			}
			t.Waitcntr(ctx, cntrs[l], 1)
			slot, err := t.Bytes(buf+lapi.Addr(l*mesh1kSlot), mesh1kSlot)
			if err != nil {
				panic(err)
			}
			for i := range val {
				val[i] ^= slot[i]
			}
		}
		// XOR commutes with the byte expansion: fold the words, then expand.
		var fold uint64
		for r := 0; r < n; r++ {
			fold ^= mesh1kLCG(uint64(r))
		}
		var want [mesh1kSlot]byte
		mesh1kExpand(want[:], fold)
		for i := range val {
			if val[i] != want[i] {
				fail(fmt.Sprintf("rank %d: allreduce byte %d = %#x, want %#x", self, i, val[i], want[i]))
				break
			}
		}
		t.Gfence(ctx)
		done[self] = ctx.Now()
	}
}

// MeasureMesh1k runs the thousand-task sweep across shards sub-engines
// (shards == 1 is the serial reference; px may be nil to drive epochs on
// the caller's goroutine). rounds scales the point-to-point patterns.
// The returned virtual times are independent of shards and px — that is
// the determinism gate's claim — while WallMs is this host's real cost.
func MeasureMesh1k(px *parallel.Executor, shards, rounds int) (Mesh1kResult, error) {
	out := Mesh1kResult{Tasks: Mesh1kTasks, Shards: shards, Rounds: rounds}
	scfg := Mesh1kConfig()

	start := time.Now() //lapivet:ignore simdeterminism wall-clock harness benchmark; measures the simulator from outside
	run := func(main func(ctx exec.Context, t *lapi.Task)) error {
		j, err := cluster.NewShardedSim(px, shards, Mesh1kTasks, scfg, lapi.DefaultConfig())
		if err != nil {
			return err
		}
		return j.Run(main)
	}

	completion := func(done []time.Duration) time.Duration {
		var last time.Duration
		for _, d := range done {
			if d > last {
				last = d
			}
		}
		return last
	}

	done := make([]time.Duration, Mesh1kTasks)
	if err := run(mesh1kUniform(rounds, done)); err != nil {
		return out, fmt.Errorf("mesh1k uniform: %w", err)
	}
	out.Uniform = completion(done)

	done = make([]time.Duration, Mesh1kTasks)
	if err := run(mesh1kHotspot(rounds, done)); err != nil {
		return out, fmt.Errorf("mesh1k hotspot: %w", err)
	}
	out.Hotspot = completion(done)

	done = make([]time.Duration, Mesh1kTasks)
	var failMsg string
	if err := run(mesh1kAllreduce(done, func(m string) {
		if failMsg == "" {
			failMsg = m
		}
	})); err != nil {
		return out, fmt.Errorf("mesh1k allreduce: %w", err)
	}
	if failMsg != "" {
		return out, fmt.Errorf("mesh1k allreduce: %s", failMsg)
	}
	out.Allreduce = completion(done)

	out.WallMs = float64(time.Since(start).Microseconds()) / 1e3 //lapivet:ignore simdeterminism wall-clock harness benchmark
	return out, nil
}

// CSVMesh1k renders only the virtual times — the fields that must be
// byte-identical for every shard count and worker count. Wall-clock and
// shard count are deliberately excluded so `make determinism` can cmp
// serial and sharded output.
func CSVMesh1k(m Mesh1kResult) string {
	s := "pattern,tasks,rounds,virtual_ns\n"
	s += fmt.Sprintf("uniform,%d,%d,%d\n", m.Tasks, m.Rounds, m.Uniform.Nanoseconds())
	s += fmt.Sprintf("hotspot,%d,%d,%d\n", m.Tasks, m.Rounds, m.Hotspot.Nanoseconds())
	s += fmt.Sprintf("allreduce,%d,%d,%d\n", m.Tasks, m.Rounds, m.Allreduce.Nanoseconds())
	return s
}

// FormatMesh1k renders the human-readable report.
func FormatMesh1k(m Mesh1kResult) string {
	s := fmt.Sprintf("Thousand-task sweep: %d tasks on a fat tree, %d shard(s)\n", m.Tasks, m.Shards)
	s += fmt.Sprintf("uniform   (%d puts/rank): virtual %v\n", m.Rounds, m.Uniform)
	s += fmt.Sprintf("hotspot   (%d puts/rank): virtual %v\n", m.Rounds, m.Hotspot)
	s += fmt.Sprintf("allreduce (butterfly):   virtual %v\n", m.Allreduce)
	s += fmt.Sprintf("wall clock: %.2f ms\n", m.WallMs)
	return s
}
