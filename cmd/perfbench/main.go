// Command perfbench measures the harness's own wall-clock performance:
// simulator events/sec, the Table 2 sweep's real runtime, real-TCP LAPI
// message rate, and steady-state allocations per 4-byte Put. These are
// host-dependent numbers (unlike the virtual-time experiments, which are
// bit-identical across runs); EXPERIMENTS.md records before/after pairs.
//
// Usage:
//
//	perfbench [-quick] [-serial] [-workers N] [-o BENCH_hotpath.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"golapi/internal/bench"
	"golapi/internal/parallel"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts (CI smoke run)")
	serial := flag.Bool("serial", false, "use a one-worker sweep executor for the *_parallel numbers")
	workers := flag.Int("workers", 0, "sweep executor workers (0 = GOMAXPROCS)")
	out := flag.String("o", "", "write the report as JSON to this file")
	flag.Parse()
	log.SetFlags(0)

	px := parallel.Default()
	if *workers > 0 {
		px = parallel.New(*workers)
	}
	if *serial {
		px = parallel.New(1)
	}

	r, err := bench.MeasureHotpath(px, *quick)
	if err != nil {
		log.Fatalf("perfbench: %v", err)
	}

	fmt.Printf("engine:  %.0f events/s (%.0f ns/event, %d events)\n",
		r.EngineEventsPerSec, r.EngineNsPerEvent, r.EngineEvents)
	fmt.Printf("procs:   %.0f ns/switch between two processes, %.0f ns/self-wake (Sleep popping its own wake-up)\n",
		r.ProcSwitchNs, r.SelfWakeNs)
	fmt.Printf("table2:  %.1f ms wall-clock serial, %.1f ms on %d workers\n",
		r.Table2WallMs, r.Table2WallMsParallel, r.ParallelWorkers)
	fmt.Printf("sweep:   %.1f ms serial, %.1f ms parallel -> %.2fx speedup (%d workers, %d CPUs)\n",
		r.SweepWallMsSerial, r.SweepWallMsParallel, r.SweepSpeedup, r.ParallelWorkers, r.NumCPU)
	fmt.Printf("tcp:     %.0f msgs/s (4-byte PutSync, loopback), %.1f allocs/msg\n",
		r.TCPMsgsPerSec, r.TCPAllocsPerMsg)
	fmt.Printf("tcp-big: %.0f MB/s (1 MB PutSync, rendezvous), %.1f allocs/msg, crossover %d B\n",
		r.TCPLargeBWMBs, r.TCPAllocsPerLargeMsg, r.RndvCrossoverBytes)
	fmt.Printf("sim:     %.1f allocs/msg (4-byte PutSync, simulated switch)\n",
		r.SimAllocsPerMsg)
	if !*quick {
		fmt.Printf("mesh1k:  %d tasks, %.1f ms serial, %.1f ms on %d shards -> %.2fx speedup\n",
			r.Mesh1kTasks, r.Mesh1kWallMsSerial, r.Mesh1kWallMsParallel, r.Mesh1kShards, r.Mesh1kSpeedup)
		fmt.Printf("lint:    %.1f ms wall-clock (full lapivet suite over ./...), %.1fx the %.1f ms load alone\n",
			r.LintWallMs, r.LintWallMs/r.LintLoadMs, r.LintLoadMs)
	}

	if *out != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
