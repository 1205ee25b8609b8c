package main

// sim_paper: the paper-facing product, reproduced serially. One repetition
// is every table and figure of EXPERIMENTS.md — Table 2, the pipeline
// latencies, Figure 2, the GA latencies, Figures 3 and 4 and the
// application kernel — with px=nil, so sim, switchnet, lapi, mpi, mpl and
// ga do all the work and parallel none. The virtual times are exact and
// checked byte for byte against golden/sim_paper.csv; the host time to
// produce them is the metric.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"golapi/internal/bench"
)

// paperParts names the timed parts of one repetition, in order.
var paperParts = []string{"table2", "pipeline", "fig2", "galat", "fig3", "fig4", "app"}

// paperRepetition runs the whole sweep once and returns its virtual-time
// CSV, the cells the paper comparison reads, and the wall time of each part.
func paperRepetition(tr *tracer, parent int64) (csv string, run paperRun, parts map[string]time.Duration, err error) {
	parts = map[string]time.Duration{}
	part := func(name string, fn func() (string, error)) {
		if err != nil {
			return
		}
		span := tr.open(name, "bench", parent)
		t0 := now()
		var out string
		out, err = fn()
		parts[name] = since(t0)
		tr.close(span)
		csv += "# " + name + "\n" + out
	}
	part("table2", func() (string, error) {
		t2, err := bench.MeasureTable2(nil)
		run.t2 = t2
		return bench.CSVTable2(t2), err
	})
	part("pipeline", func() (string, error) {
		p, err := bench.MeasurePipeline()
		run.pipe = p
		return fmt.Sprintf("put_ns,get_ns\n%d,%d\n", p.Put.Nanoseconds(), p.Get.Nanoseconds()), err
	})
	part("fig2", func() (string, error) {
		pts, err := bench.MeasureFigure2(nil, bench.Figure2Sizes())
		return bench.CSVFigure2(pts), err
	})
	part("galat", func() (string, error) {
		l, err := bench.MeasureGALatency(nil)
		run.gal = l
		return fmt.Sprintf("lapi_get_ns,lapi_put_ns,mpl_get_ns,mpl_put_ns\n%d,%d,%d,%d\n",
			l.LAPIGet.Nanoseconds(), l.LAPIPut.Nanoseconds(), l.MPLGet.Nanoseconds(), l.MPLPut.Nanoseconds()), err
	})
	part("fig3", func() (string, error) {
		pts, err := bench.MeasureFigure3(nil, bench.Figure34Sizes())
		return bench.CSVFigure34(pts), err
	})
	part("fig4", func() (string, error) {
		pts, err := bench.MeasureFigure4(nil, bench.Figure34Sizes())
		return bench.CSVFigure34(pts), err
	})
	part("app", func() (string, error) {
		a, err := bench.MeasureApplication(nil)
		return fmt.Sprintf("lapi_ns,mpl_ns\n%d,%d\n", a.LAPITime.Nanoseconds(), a.MPLTime.Nanoseconds()), err
	})
	return csv, run, parts, err
}

// checkGolden compares got with benchmark/golden/<name>, or rewrites the
// file when the run was asked to (-update-golden).
func checkGolden(env *runEnv, res *runResult, name, got string) error {
	path := filepath.Join(env.root, "benchmark", "golden", name)
	if env.updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		res.notef("golden %s rewritten", name)
		return os.WriteFile(path, []byte(got), 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res.Attempted++
	if string(want) != got {
		res.fail(1, "virtual times differ from golden/%s", name)
	}
	return nil
}

// batchReps runs rep once untimed — the warm-up, whose duration is the
// set-up time; rep sees it as index -1 — and then until the measuring time
// (measure) is used, at least batchMinReps times. A quick run makes do with
// a single repetition, counted as set-up and as its only sample.
func batchReps(env *runEnv, res *runResult, measure time.Duration, rep func(i int) error) error {
	first, min := -1, batchMinReps
	if env.quick {
		first, min = 0, 0
	}
	t0 := now()
	if err := rep(first); err != nil {
		return err
	}
	setup := since(t0).Seconds()
	res.Values["setup_s"] = setup
	res.Detail["setup_s"] = summarize([]float64{setup})
	deadline := now().Add(measure)
	for i := 0; i < min || (!env.quick && now().Before(deadline)); i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

func runSimPaper(env *runEnv) (*runResult, error) {
	res := newResult(env, "sim_paper")
	var tr *tracer
	if env.traced {
		tr = newTracer()
		if err := simLadder(res, tr); err != nil {
			return nil, err
		}
	}
	rs := rounds{}
	var errPct float64
	var worst string
	var cpu0 time.Duration
	err := batchReps(env, res, env.seconds, func(i int) error {
		if i == 0 {
			cpu0 = selfCPU()
		}
		span := tr.open(fmt.Sprintf("repetition %d", i), "bench", 0)
		t0 := now()
		csv, run, parts, err := paperRepetition(tr, span)
		wall := since(t0)
		tr.close(span)
		if err != nil {
			return err
		}
		res.Attempted++
		if err := checkGolden(env, res, "sim_paper.csv", csv); err != nil {
			return err
		}
		errPct, worst = paperErrPct(&run)
		if i < 0 {
			return nil // the warm-up repetition is the set-up, not a sample
		}
		rs.add("wall_us", float64(wall.Nanoseconds())/1e3)
		rs.add("micro_us", float64((parts["table2"]+parts["pipeline"]+parts["fig2"]).Nanoseconds())/1e3)
		for _, p := range paperParts {
			rs.add(p, float64(parts[p].Nanoseconds())/1e6)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	reps := float64(len(rs["wall_us"]))
	res.notef("paper_err_pct %.4f (worst cell %s); %d repetitions", errPct, worst, len(rs["wall_us"]))
	if env.traced {
		v := res.Values
		v["bench.table2_ms"] = rs.median("table2")
		v["bench.fig2_ms"] = rs.median("fig2")
		v["bench.fig3_ms"] = rs.median("fig3")
		v["bench.fig4_ms"] = rs.median("fig4")
		v["bench.app_ms"] = rs.median("app")
		v["bench.wall_s"] = rs.median("wall_us") / 1e6
		v["bench.paper_err_pct"] = errPct
		v["bench.cpu_us_per_op"] = float64((selfCPU() - cpu0).Nanoseconds()) / 1e3 / reps
		v["bench.trace_overhead_pct"] = tr.spent.Seconds() / (rs.median("wall_us") / 1e6 * reps) * 100
		return res, env.writeTrace(res, tr)
	}
	setBatchEndToEnd(res, rs, "wall_us", "micro_us")
	return res, nil
}

// batchMinReps is the fewest timed repetitions a batch run reports from,
// however slow the host: with fewer the quiet quartile is just the minimum.
const batchMinReps = 5

// setBatchEndToEnd fills the end-to-end set of a batch workload from its
// repetitions: op is the whole repetition, base its reference part, taken
// back to back so that their ratio is free of the host's phases.
func setBatchEndToEnd(res *runResult, rs rounds, op, base string) {
	res.setQuiet("op_us", rs[op], lower)
	res.setQuiet("base_us", rs[base], lower)
	ratio := make([]float64, len(rs[op]))
	for i := range ratio {
		ratio[i] = rs[op][i] / rs[base][i]
	}
	res.setMedian("op_over_base", ratio)
	res.Values["peak_rss_mb"] = peakRSSMB(0)
}
