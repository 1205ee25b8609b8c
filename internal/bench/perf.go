// perf.go measures the harness itself: wall-clock throughput of the hot
// paths that PR "zero-allocation hot path" optimizes. Unlike the rest of
// this package — which reports *virtual* time and must be bit-identical
// run to run — these numbers are real seconds on the host machine, so they
// vary with hardware and load. cmd/perfbench emits them as
// BENCH_hotpath.json; EXPERIMENTS.md records a before/after pair.
package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"golapi/internal/analysis"
	"golapi/internal/analysis/suite"
	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/parallel"
	"golapi/internal/sim"
)

// HotpathReport is the wall-clock benchmark suite's output, serialized to
// BENCH_hotpath.json by cmd/perfbench.
type HotpathReport struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU distinguishes "pinned to one core" from "a one-core
	// machine": a GOMAXPROCS=1 record is only a scaling baseline when
	// NumCPU says more cores existed.
	NumCPU int  `json:"num_cpu"`
	Quick  bool `json:"quick"` // reduced iteration counts (CI smoke run)
	// ParallelWorkers is the sweep executor's worker count for the
	// *_parallel numbers below.
	ParallelWorkers int `json:"parallel_workers"`

	// Simulator event engine: schedule-then-drain of timer events, the
	// inner loop of every virtual-time experiment.
	EngineEvents       int     `json:"engine_events"`
	EngineNsPerEvent   float64 `json:"engine_ns_per_event"`
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	// Process switching on the same engine. ProcSwitchNs is one hand-off
	// between two processes ping-ponging through conditions (park, through
	// the hub, into the other coroutine); SelfWakeNs is one Sleep whose
	// wake-up the sleeper pops itself, callback events interleaved — the
	// path that never leaves the process's stack.
	ProcSwitchNs float64 `json:"proc_switch_ns"`
	SelfWakeNs   float64 `json:"self_wake_ns"`

	// Wall-clock time to reproduce the paper's Table 2 (the end-to-end
	// sweep a developer waits on), in milliseconds: serial, then on the
	// parallel sweep executor.
	Table2WallMs         float64 `json:"table2_wall_ms"`
	Table2WallMsParallel float64 `json:"table2_wall_ms_parallel"`

	// The full experiment sweep (Table 2 + Figure 2 + collective),
	// serial vs parallel, and the resulting speedup — the scaling number
	// the perf trajectory tracks.
	SweepWallMsSerial   float64 `json:"sweep_wall_ms_serial"`
	SweepWallMsParallel float64 `json:"sweep_wall_ms_parallel"`
	SweepSpeedup        float64 `json:"sweep_speedup"`

	// Real-TCP loopback LAPI: 4-byte PutSync round trips.
	TCPMsgs         int     `json:"tcp_msgs"`
	TCPMsgsPerSec   float64 `json:"tcp_msgs_per_sec"`
	TCPAllocsPerMsg float64 `json:"tcp_allocs_per_msg"`

	// Real-TCP loopback LAPI, large messages: 1 MB PutSyncs riding the
	// rendezvous path (well above the crossover), with the payload
	// travelling the transport's zero-copy direct lane — writev straight
	// from the sender's slice, landed straight in the target region.
	// TCPAllocsPerLargeMsg is the headline: 0 means no per-message
	// allocation anywhere in the process, intermediate buffers included.
	TCPLargeMsgs         int     `json:"tcp_large_msgs"`
	TCPLargeBWMBs        float64 `json:"tcp_large_bw_mbs"`
	TCPAllocsPerLargeMsg float64 `json:"tcp_allocs_per_large_msg"`
	// RndvCrossoverBytes is the eager/rendezvous crossover the TCP tasks
	// resolved (Config.RndvLimit auto-tuning).
	RndvCrossoverBytes int `json:"rndv_crossover_bytes"`

	// Simulated-switch LAPI: allocations per 4-byte PutSync.
	SimAllocsPerMsg float64 `json:"sim_allocs_per_msg"`

	// Thousand-task sweep (mesh1k): 1024 simulated tasks on a fat-tree
	// fabric, run through uniform + hot-spot + allreduce traffic, once
	// serially (one shard) and once sharded across sub-engines. Virtual
	// times are byte-identical by construction (`make determinism`
	// enforces it); the wall-clock pair and speedup are the scaling
	// numbers this report tracks. On a one-CPU host the speedup hovers
	// near (or below) 1 — the record is the baseline, not a win.
	Mesh1kTasks          int     `json:"mesh1k_tasks"`
	Mesh1kShards         int     `json:"mesh1k_shards"`
	Mesh1kWallMsSerial   float64 `json:"mesh1k_wall_ms_serial"`
	Mesh1kWallMsParallel float64 `json:"mesh1k_wall_ms_parallel"`
	Mesh1kSpeedup        float64 `json:"mesh1k_speedup"`

	// LintWallMs is one `make lint` equivalent — the full lapivet suite
	// (including the interprocedural ownership summaries and channel-aware
	// gateway invariants of lapivet v3, and the v4 concurrency model
	// behind racefree/atomicmix/goteardown) over every module package — so
	// the analysis layer's cost stays visible in the perf trajectory. 0 in
	// quick mode: make check runs the real `make lint` gate itself, and
	// benchsmoke must stay sub-second. LintLoadMs is the same call with no
	// analyzer — parse and type-check only — taken right after it.
	LintWallMs float64 `json:"lint_wall_ms"`
	LintLoadMs float64 `json:"lint_load_ms"`
}

// lintLoadFactor caps LintWallMs at a multiple of LintLoadMs, the
// load-only time measured in the same call, so the gate follows the host
// instead of one machine's milliseconds: the fourteen passes cost 1.6x the
// load today (full/load = 2.6). MeasureHotpath fails beyond 3.5, so an
// accidentally quadratic happens-before or lockset fixpoint shows up in
// `make bench` rather than as a silently slower `make lint`.
const lintLoadFactor = 3.5

// sweepOnce runs the wall-clock reference sweep (Table 2 + Figure 2 +
// collective) on the given executor. quick trims the swept sizes so make
// check stays fast; the serial/parallel comparison always trims both
// sides identically.
func sweepOnce(px *parallel.Executor, quick bool) error {
	fig2 := Figure2Sizes()
	tasks, sizes := DefaultCollectiveTasks, DefaultCollectiveSizes
	if quick {
		fig2 = []int{1024, 65536}
		tasks, sizes = []int{4}, []int{64, 4096}
	}
	if _, err := MeasureTable2(px); err != nil {
		return err
	}
	if _, err := MeasureFigure2(px, fig2); err != nil {
		return err
	}
	_, err := MeasureCollective(px, tasks, sizes)
	return err
}

// MeasureHotpath runs the wall-clock suite. px is the sweep executor used
// for the *_parallel numbers (nil falls back to GOMAXPROCS workers);
// quick shrinks iteration counts to smoke-test levels (seconds total) for
// make check.
func MeasureHotpath(px *parallel.Executor, quick bool) (HotpathReport, error) {
	if px == nil {
		px = parallel.Default()
	}
	r := HotpathReport{
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		Quick:           quick,
		ParallelWorkers: px.Workers(),
	}
	events, msgs, allocRuns := 2_000_000, 20_000, 200
	if quick {
		events, msgs, allocRuns = 100_000, 1_000, 50
	}

	r.EngineEvents = events
	elapsed, err := engineEventRate(events)
	if err != nil {
		return r, err
	}
	r.EngineNsPerEvent = float64(elapsed.Nanoseconds()) / float64(events)
	r.EngineEventsPerSec = float64(events) / elapsed.Seconds()
	if r.ProcSwitchNs, err = procSwitchNs(events / 4); err != nil {
		return r, err
	}
	if r.SelfWakeNs, err = selfWakeNs(events / 4); err != nil {
		return r, err
	}

	if r.Table2WallMs, err = wallMs(func() error { _, err := MeasureTable2(nil); return err }); err != nil {
		return r, err
	}
	if r.Table2WallMsParallel, err = wallMs(func() error { _, err := MeasureTable2(px); return err }); err != nil {
		return r, err
	}
	if r.SweepWallMsSerial, err = wallMs(func() error { return sweepOnce(nil, quick) }); err != nil {
		return r, err
	}
	if r.SweepWallMsParallel, err = wallMs(func() error { return sweepOnce(px, quick) }); err != nil {
		return r, err
	}
	if r.SweepWallMsParallel > 0 {
		r.SweepSpeedup = r.SweepWallMsSerial / r.SweepWallMsParallel
	}

	r.TCPMsgs = msgs
	tcpElapsed, tcpAllocs, err := tcpPutRate(px, msgs, allocRuns)
	if err != nil {
		return r, err
	}
	r.TCPMsgsPerSec = float64(msgs) / tcpElapsed.Seconds()
	r.TCPAllocsPerMsg = tcpAllocs

	largeMsgs, largeAllocRuns := 200, 50
	if quick {
		largeMsgs, largeAllocRuns = 20, 10
	}
	r.TCPLargeMsgs = largeMsgs
	largeElapsed, largeAllocs, crossover, err := tcpLargePutRate(px, largeMsgs, largeAllocRuns)
	if err != nil {
		return r, err
	}
	r.TCPLargeBWMBs = float64(tcpLargeMsgBytes) * float64(largeMsgs) / largeElapsed.Seconds() / 1e6
	r.TCPAllocsPerLargeMsg = largeAllocs
	r.RndvCrossoverBytes = crossover

	if r.SimAllocsPerMsg, err = simPutAllocs(px, allocRuns); err != nil {
		return r, err
	}

	// The thousand-task sweep costs ~2 s at 1024 tasks, so it is skipped
	// in quick mode (benchsmoke stays sub-second; `make determinism`
	// byte-diffs the same sweep serial vs sharded on every check anyway).
	if !quick {
		mesh1kShards := px.Workers()
		if mesh1kShards < 2 {
			mesh1kShards = 2
		}
		r.Mesh1kTasks = Mesh1kTasks
		r.Mesh1kShards = mesh1kShards
		serial1k, err := MeasureMesh1k(nil, 1, 2)
		if err != nil {
			return r, err
		}
		r.Mesh1kWallMsSerial = serial1k.WallMs
		sharded1k, err := MeasureMesh1k(px, mesh1kShards, 2)
		if err != nil {
			return r, err
		}
		r.Mesh1kWallMsParallel = sharded1k.WallMs
		if sharded1k.WallMs > 0 {
			r.Mesh1kSpeedup = serial1k.WallMs / sharded1k.WallMs
		}
		if serial1k.Uniform != sharded1k.Uniform || serial1k.Hotspot != sharded1k.Hotspot ||
			serial1k.Allreduce != sharded1k.Allreduce {
			return r, fmt.Errorf("mesh1k: sharded virtual times diverged from serial (%v/%v/%v vs %v/%v/%v)",
				sharded1k.Uniform, sharded1k.Hotspot, sharded1k.Allreduce,
				serial1k.Uniform, serial1k.Hotspot, serial1k.Allreduce)
		}
	}

	if !quick {
		if r.LintWallMs, err = wallMs(func() error { return lintOnce(suite.Analyzers()) }); err != nil {
			return r, err
		}
		if r.LintLoadMs, err = wallMs(func() error { return lintOnce(nil) }); err != nil {
			return r, err
		}
		if r.LintWallMs > lintLoadFactor*r.LintLoadMs {
			return r, fmt.Errorf("lint: %.0f ms is %.1fx the %.0f ms load-only time, over the %.1fx budget",
				r.LintWallMs, r.LintWallMs/r.LintLoadMs, r.LintLoadMs, lintLoadFactor)
		}
	}
	return r, nil
}

// wallMs returns the real time fn took, in milliseconds.
func wallMs(fn func() error) (float64, error) {
	start := time.Now() //lapivet:ignore simdeterminism wall-clock harness benchmark; measures the simulator from outside
	if err := fn(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Microseconds()) / 1e3, nil //lapivet:ignore simdeterminism wall-clock harness benchmark
}

// lintOnce runs analyzers over the module, in-process — with the full
// suite, the work `make lint` does minus the `go run` build step, so
// LintWallMs isolates analysis cost; with none, the load alone. Diagnostics
// are not an error here (`make lint` gates on them separately); only a
// failure to load and analyze is.
func lintOnce(analyzers []*analysis.Analyzer) error {
	_, err := analysis.Run(".", []string{"./..."}, analyzers)
	return err
}

// engineEventRate times scheduling and draining n no-op timer events on a
// fresh engine (the BenchmarkScheduleAndRun shape).
func engineEventRate(n int) (time.Duration, error) {
	e := sim.NewEngine()
	fn := func() {}
	start := time.Now() //lapivet:ignore simdeterminism wall-clock harness benchmark; measures the simulator from outside
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	if err := e.Run(); err != nil {
		return 0, err
	}
	return time.Since(start), nil //lapivet:ignore simdeterminism wall-clock harness benchmark
}

// procSwitchNs times n hand-offs between two processes ping-ponging
// through conditions (the BenchmarkProcessSwitch shape).
func procSwitchNs(n int) (float64, error) {
	e := sim.NewEngine()
	conds := [2]*sim.Cond{sim.NewCond(e), sim.NewCond(e)}
	turn := 0
	for id := 0; id < 2; id++ {
		id := id
		e.Go("pingpong", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				for turn != id {
					p.WaitCond(conds[id])
				}
				turn = 1 - id
				conds[1-id].Broadcast()
			}
		})
	}
	ms, err := wallMs(e.Run)
	return ms * 1e6 / float64(n), err
}

// selfWakeNs times n Sleeps of a lone process, each with one callback
// event falling inside it (the BenchmarkSelfWake shape): the sleeper fires
// the callback and pops its own wake-up without a switch.
func selfWakeNs(n int) (float64, error) {
	e := sim.NewEngine()
	fn := func() {}
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e.Schedule(time.Microsecond, fn)
			p.Sleep(2 * time.Microsecond)
		}
	})
	ms, err := wallMs(e.Run)
	return ms * 1e6 / float64(n), err
}

// tcpPutRate drives msgs synchronous 4-byte Puts between two real-TCP
// loopback tasks, returning wall time for the timed run and the steady-
// state allocation count per Put (origin-side, all goroutines). The
// AllocsPerRun measurement counts mallocs process-wide, so it runs on
// px's exclusive lane: no sweep worker may execute concurrently.
func tcpPutRate(px *parallel.Executor, msgs, allocRuns int) (elapsed time.Duration, allocsPerMsg float64, err error) {
	j, err := cluster.NewTCPLAPI(2, lapi.ZeroCost())
	if err != nil {
		return 0, 0, err
	}
	err = j.Run(func(ctx exec.Context, t *lapi.Task) {
		buf := t.Alloc(64)
		addrs, aerr := t.AddressInit(ctx, buf)
		if aerr != nil {
			err = aerr
			return
		}
		if t.Self() == 0 {
			src := []byte{1, 2, 3, 4}
			for i := 0; i < 32; i++ { // warm pools, maps, connections
				t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			}
			px.Exclusive(func() {
				allocsPerMsg = testing.AllocsPerRun(allocRuns, func() {
					t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
				})
			})
			start := time.Now() //lapivet:ignore simdeterminism wall-clock harness benchmark; real-TCP path never runs simulated
			for i := 0; i < msgs; i++ {
				t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			}
			elapsed = time.Since(start) //lapivet:ignore simdeterminism wall-clock harness benchmark
		}
		t.Gfence(ctx)
	})
	return elapsed, allocsPerMsg, err
}

// tcpLargeMsgBytes is the large-message benchmark's transfer size: 1 MB,
// an order of magnitude above the TCP auto-crossover (2×MaxPacket =
// 128 KB), so every Put rides the rendezvous direct lane.
const tcpLargeMsgBytes = 1 << 20

// tcpLargePutRate is tcpPutRate for 1 MB messages: synchronous Puts that
// negotiate RTS/CTS and move the payload over the zero-copy lane. Returns
// wall time for the timed series, steady-state allocations per Put
// (process-wide, exclusive lane — the acceptance target is 0), and the
// crossover the tasks resolved.
func tcpLargePutRate(px *parallel.Executor, msgs, allocRuns int) (elapsed time.Duration, allocsPerMsg float64, crossover int, err error) {
	j, err := cluster.NewTCPLAPI(2, lapi.ZeroCost())
	if err != nil {
		return 0, 0, 0, err
	}
	err = j.Run(func(ctx exec.Context, t *lapi.Task) {
		buf := t.Alloc(tcpLargeMsgBytes)
		addrs, aerr := t.AddressInit(ctx, buf)
		if aerr != nil {
			err = aerr
			return
		}
		if t.Self() == 0 {
			crossover = t.RndvCrossover()
			src := make([]byte, tcpLargeMsgBytes)
			for i := 0; i < 8; i++ { // warm pools, regions, registration cache
				t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			}
			px.Exclusive(func() {
				allocsPerMsg = testing.AllocsPerRun(allocRuns, func() {
					t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
				})
			})
			start := time.Now() //lapivet:ignore simdeterminism wall-clock harness benchmark; real-TCP path never runs simulated
			for i := 0; i < msgs; i++ {
				t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			}
			elapsed = time.Since(start) //lapivet:ignore simdeterminism wall-clock harness benchmark
		}
		t.Gfence(ctx)
	})
	return elapsed, allocsPerMsg, crossover, err
}

// simPutAllocs measures steady-state allocations per synchronous 4-byte
// Put on the simulated switch (two tasks, default SP parameters), on px's
// exclusive lane (see tcpPutRate).
func simPutAllocs(px *parallel.Executor, allocRuns int) (allocsPerMsg float64, err error) {
	j, err := cluster.NewSimDefault(2)
	if err != nil {
		return 0, err
	}
	err = j.Run(func(ctx exec.Context, t *lapi.Task) {
		buf := t.Alloc(64)
		addrs, aerr := t.AddressInit(ctx, buf)
		if aerr != nil {
			err = aerr
			return
		}
		if t.Self() == 0 {
			src := []byte{1, 2, 3, 4}
			for i := 0; i < 32; i++ {
				t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			}
			px.Exclusive(func() {
				allocsPerMsg = testing.AllocsPerRun(allocRuns, func() {
					t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
				})
			})
		}
		t.Gfence(ctx)
	})
	return allocsPerMsg, err
}
