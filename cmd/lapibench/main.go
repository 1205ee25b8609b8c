// Command lapibench is the one bench driver: it runs any experiment of
// internal/bench's registry on the simulated SP switch. The paper's §4
// microbenchmarks (Table 2, pipeline latency, Figure 2), its §5.4 Global
// Arrays set (latency table, Figures 3 and 4, the application comparison),
// and the sweeps beyond the paper — job-size scaling, one-sided
// collectives, the rendezvous crossover, the ablations, the Tier B
// parallel meshes — plus the lint-cost gate `make bench` records.
//
// Sweeps fan out across CPU cores by default; -serial forces the
// single-worker path. Output is byte-identical either way (the numbers
// are virtual time; `make determinism` enforces the identity). -exp all
// runs the virtual-time experiments; mesh, mesh1k and lintgate report
// wall-clock time and run only when named.
//
// Usage:
//
//	lapibench [-exp NAME|all] [-csv] [-serial] [-shards N] [-rounds N] [-force-eager]
package main

import (
	"flag"
	"log"
	"os"
	"strings"

	"golapi/internal/bench"
	"golapi/internal/parallel"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(bench.Names(), ", ")+", all")
	csv := flag.Bool("csv", false, "emit data series as CSV (table2, fig2, fig3, fig4, scale, collective, rndv, mesh1k)")
	serial := flag.Bool("serial", false, "run sweep points serially instead of across CPU cores (mesh1k: one shard)")
	shards := flag.Int("shards", 4, "sub-engines for the Tier B parallel meshes (-exp mesh, -exp mesh1k)")
	rounds := flag.Int("rounds", 2, "puts per rank per point-to-point pattern (-exp mesh1k)")
	forceEager := flag.Bool("force-eager", false, "disable the rendezvous protocol for fig2's LAPI series (the determinism gate byte-diffs sub-crossover rows against the default)")
	flag.Parse()
	log.SetFlags(0)

	o := bench.Options{
		Px:         parallel.Default(),
		CSV:        *csv,
		Shards:     *shards,
		Rounds:     *rounds,
		ForceEager: *forceEager,
	}
	if *serial {
		o.Px = nil
	}
	if err := bench.Run(os.Stdout, *exp, o); err != nil {
		log.Fatal(err)
	}
}
