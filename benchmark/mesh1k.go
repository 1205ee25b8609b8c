package main

// sim_mesh1k: 1024 simulated tasks on a fat tree, partitioned across
// sub-engines and driven in lookahead epochs. parallel's barriers and
// switchnet's barrier-resolved interior claims do most of the work here —
// the contrast to sim_paper, which never enters parallel.

import (
	"fmt"
	"runtime"
	"time"

	"golapi/internal/bench"
	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/parallel"
	"golapi/internal/stats"
)

const mesh1kRounds = 2 // puts per rank per point-to-point pattern

func mesh1kShards() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func runSimMesh1k(env *runEnv) (*runResult, error) {
	res := newResult(env, "sim_mesh1k")
	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	px := parallel.Default()
	shards := mesh1kShards()
	rs := rounds{}
	var cpu0 time.Duration

	// measure runs the sweep once and checks its virtual times: they are
	// the same for every shard count, so both variants share one golden.
	measure := func(name string, px *parallel.Executor, shards int, parent int64) (time.Duration, error) {
		span := tr.open(name, "parallel", parent)
		defer tr.close(span)
		m, err := bench.MeasureMesh1k(px, shards, mesh1kRounds)
		if err != nil {
			return 0, err
		}
		res.Attempted++
		return time.Duration(m.WallMs * float64(time.Millisecond)), checkGolden(env, res, "sim_mesh1k.csv", bench.CSVMesh1k(m))
	}
	err := batchReps(env, res, env.seconds, func(i int) error {
		if i == 0 {
			cpu0 = selfCPU()
		}
		span := tr.open(fmt.Sprintf("repetition %d", i), "bench", 0)
		defer tr.close(span)
		sharded, err := measure(fmt.Sprintf("sharded x%d", shards), px, shards, span)
		if err != nil {
			return err
		}
		if i < 0 {
			return nil // the warm-up is the set-up; the serial reference needs none
		}
		serial, err := measure("serial", nil, 1, span)
		if err != nil {
			return err
		}
		rs.add("sharded_us", float64(sharded.Nanoseconds())/1e3)
		rs.add("serial_us", float64(serial.Nanoseconds())/1e3)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.notef("%d shards on %d CPUs; %d repetitions of (sharded, serial)", shards, runtime.NumCPU(), len(rs["sharded_us"]))
	if !env.traced {
		setBatchEndToEnd(res, rs, "sharded_us", "serial_us")
		return res, nil
	}

	v := res.Values
	reps := float64(len(rs["sharded_us"]))
	v["bench.wall_s"] = rs.median("sharded_us") / 1e6
	v["parallel.wall_serial_s"] = rs.median("serial_us") / 1e6
	v["parallel.speedup"] = v["parallel.wall_serial_s"] / v["bench.wall_s"]
	if runtime.NumCPU() >= 4 {
		v["parallel.multicore_proven"] = 1 // below 4 CPUs nobody should quote the speedup
	}
	v["bench.cpu_us_per_op"] = float64((selfCPU() - cpu0).Nanoseconds()) / 1e3 / reps
	v["bench.trace_overhead_pct"] = tr.spent.Seconds() / ((rs.median("sharded_us") + rs.median("serial_us")) / 1e6 * reps) * 100
	if err := mesh1kCounters(res, px, shards); err != nil {
		return nil, err
	}
	return res, env.writeTrace(res, tr)
}

// mesh1kCounters runs the sweep's uniform pattern on a job the harness
// builds itself, to read the epoch coordinator's and the switch's own
// counters (internal/bench keeps its jobs to itself). The pattern is
// restated from internal/bench/mesh1k.go: every rank issues mesh1kRounds
// synchronous 32-byte Puts to pseudo-random peers, then a Gfence.
func mesh1kCounters(res *runResult, px *parallel.Executor, shards int) error {
	const slot = 32
	j, err := cluster.NewShardedSim(px, shards, bench.Mesh1kTasks, bench.Mesh1kConfig(), lapi.DefaultConfig())
	if err != nil {
		return err
	}
	failed := make([]error, bench.Mesh1kTasks)
	err = j.Run(func(ctx exec.Context, t *lapi.Task) {
		n, self := t.N(), t.Self()
		addrs, err := t.AddressInit(ctx, t.Alloc(n*slot))
		if err != nil {
			failed[self] = err
			return
		}
		src := make([]byte, slot)
		for r := 0; r < mesh1kRounds; r++ {
			pick := splitmix(uint64(self)*1024 + uint64(r))
			tgt := pick.intn(n)
			if tgt == self {
				tgt = (tgt + 1) % n
			}
			if err := t.PutSync(ctx, tgt, addrs[tgt]+lapi.Addr(self*slot), src, lapi.NoCounter); err != nil {
				failed[self] = err
				return
			}
		}
		t.Gfence(ctx)
	})
	if err != nil {
		return err
	}
	for _, e := range failed {
		if e != nil {
			return e
		}
	}
	c := &j.Switch.Counters
	v := res.Values
	v["parallel.epoch_barriers"] = float64(c.Get(stats.EpochBarriers))
	v["parallel.epoch_imports"] = float64(c.Get(stats.EpochImports))
	v["switchnet.spine_requests"] = float64(c.Get(stats.SpineRequests))
	lo, hi := int64(-1), int64(0)
	for i := 0; i < shards; i++ {
		e := c.Get(stats.ShardEpochs(i))
		if lo < 0 || e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	if lo > 0 {
		v["parallel.shard_imbalance"] = float64(hi) / float64(lo)
	}
	res.Attempted++
	return nil
}
