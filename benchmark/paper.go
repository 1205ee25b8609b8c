package main

// The paper's reference numbers, one cell per figure the repository's
// EXPERIMENTS.md tabulates against a measured value. sim_paper reports the
// largest relative error over them; it must not move, because the virtual
// times it is computed from must not.

import (
	"math"
	"time"

	"golapi/internal/bench"
)

// paperCell is one published number and where EXPERIMENTS.md compares it.
type paperCell struct {
	name    string
	row     string  // EXPERIMENTS.md section and row the cell comes from
	paperUs float64 // the paper's value, µs
	got     func(*paperRun) time.Duration
}

// paperRun is the part of one sim_paper repetition the cells read.
type paperRun struct {
	t2   bench.Table2
	pipe bench.Pipeline
	gal  bench.GALatency
}

var paperCells = []paperCell{
	{"table2.lapi_polling", "Table 2, polling one-way, LAPI", 34, func(r *paperRun) time.Duration { return r.t2.LAPIPolling }},
	{"table2.mpi_polling", "Table 2, polling one-way, MPI/MPL", 43, func(r *paperRun) time.Duration { return r.t2.MPIPolling }},
	{"table2.lapi_polling_rt", "Table 2, polling round trip, LAPI", 60, func(r *paperRun) time.Duration { return r.t2.LAPIPollingRT }},
	{"table2.mpi_polling_rt", "Table 2, polling round trip, MPI/MPL", 86, func(r *paperRun) time.Duration { return r.t2.MPIPollingRT }},
	{"table2.lapi_interrupt_rt", "Table 2, interrupt round trip, LAPI", 89, func(r *paperRun) time.Duration { return r.t2.LAPIInterruptRT }},
	{"table2.mpl_interrupt_rt", "Table 2, interrupt round trip, MPI/MPL", 200, func(r *paperRun) time.Duration { return r.t2.MPLInterruptRT }},
	{"pipeline.put", "§4 pipeline latency, LAPI_Put", 16, func(r *paperRun) time.Duration { return r.pipe.Put }},
	{"pipeline.get", "§4 pipeline latency, LAPI_Get", 19, func(r *paperRun) time.Duration { return r.pipe.Get }},
	{"ga.lapi_get", "§5.4 GA single-element latency, GA get, LAPI", 94.2, func(r *paperRun) time.Duration { return r.gal.LAPIGet }},
	{"ga.mpl_get", "§5.4 GA single-element latency, GA get, MPL", 221, func(r *paperRun) time.Duration { return r.gal.MPLGet }},
	{"ga.lapi_put", "§5.4 GA single-element latency, GA put, LAPI", 49.6, func(r *paperRun) time.Duration { return r.gal.LAPIPut }},
	{"ga.mpl_put", "§5.4 GA single-element latency, GA put, MPL", 54.6, func(r *paperRun) time.Duration { return r.gal.MPLPut }},
}

// paperErrPct returns the largest relative error over the cells, in
// percent, and the cell it occurs at.
func paperErrPct(r *paperRun) (pct float64, worst string) {
	for _, c := range paperCells {
		got := float64(c.got(r).Nanoseconds()) / 1e3
		if e := math.Abs(got-c.paperUs) / c.paperUs * 100; e > pct {
			pct, worst = e, c.name
		}
	}
	return pct, worst
}
