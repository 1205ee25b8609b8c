// registry.go is the experiment registry behind cmd/lapibench, the one
// bench driver: every experiment the repo prints, by name, in the text and
// CSV form it has always had. An experiment that sits in -exp all prints
// virtual time only, so `make determinism` can byte-diff the whole set
// serial vs parallel; the wall-clock ones (mesh, mesh1k, lintgate) run
// only when named.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"golapi/internal/parallel"
)

// Options are the driver's flags, handed to every experiment; each reads
// the ones it has a use for.
type Options struct {
	Px         *parallel.Executor // sweep executor; nil (-serial) runs points inline
	CSV        bool               // data series as CSV where the experiment has one
	Shards     int                // sub-engines for mesh and mesh1k
	Rounds     int                // puts per rank per pattern (mesh1k)
	ForceEager bool               // fig2: rendezvous off for the LAPI series
}

// pick returns the CSV form under -csv and the text form otherwise.
func (o Options) pick(csv, text string) string {
	if o.CSV {
		return csv
	}
	return text
}

// Experiment is one named entry of the registry.
type Experiment struct {
	Name  string
	InAll bool // part of -exp all: virtual-time output, byte-identical run to run
	// Run returns what the experiment prints. Output returned beside an
	// error is what it had to show before failing, and is still printed.
	Run func(o Options) (string, error)
}

// selected returns the experiments -exp name runs: the one called name,
// or every InAll experiment, in registry order, for "all".
func selected(name string) []Experiment {
	var sel []Experiment
	for _, e := range Experiments() {
		if e.Name == name || (name == "all" && e.InAll) {
			sel = append(sel, e)
		}
	}
	return sel
}

// Names lists the registered experiments in registry order.
func Names() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// Run runs the experiments -exp name selects, writing each one's output to
// w as it finishes.
func Run(w io.Writer, name string, o Options) error {
	sel := selected(name)
	if len(sel) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s or all)", name, strings.Join(Names(), ", "))
	}
	for _, e := range sel {
		out, err := e.Run(o)
		if _, werr := io.WriteString(w, out); err == nil {
			err = werr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

// Experiments returns the registry: the paper's §4 microbenchmarks and the
// sweeps beyond them, then the §5.4 Global Arrays set, then the
// wall-clock experiments that stay out of -exp all.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", true, func(o Options) (string, error) {
			t2, err := MeasureTable2(o.Px)
			if err != nil {
				return "", err
			}
			return o.pick(CSVTable2(t2), FormatTable2(t2)+
				"paper:            polling 34/43, polling RT 60/86, interrupt RT 89/200\n\n"), nil
		}},
		{"pipeline", true, func(o Options) (string, error) {
			p, err := MeasurePipeline()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("Pipeline latency (§4): Put %.1f µs, Get %.1f µs  (paper: 16, 19)\n\n",
				float64(p.Put.Nanoseconds())/1e3, float64(p.Get.Nanoseconds())/1e3), nil
		}},
		{"scale", true, func(o Options) (string, error) {
			pts, err := MeasureScale(o.Px, []int{2, 4, 8, 16, 32, 64})
			if err != nil {
				return "", err
			}
			return o.pick(CSVScale(pts), FormatScale(pts)+"\n"), nil
		}},
		{"collective", true, func(o Options) (string, error) {
			pts, err := MeasureCollective(o.Px, DefaultCollectiveTasks, DefaultCollectiveSizes)
			if err != nil {
				return "", err
			}
			return o.pick(CSVCollective(pts), FormatCollective(pts)+"\n"), nil
		}},
		{"rndv", true, func(o Options) (string, error) {
			pts, err := MeasureRndvSweep(o.Px, RndvSweepSizes())
			if err != nil {
				return "", err
			}
			return o.pick(CSVRndv(pts), FormatRndv(pts)+"\n"), nil
		}},
		{"fig2", true, func(o Options) (string, error) {
			rndvLimit := 0 // auto-tuned crossover, the default protocol
			if o.ForceEager {
				rndvLimit = -1
			}
			pts, err := MeasureFigure2Rndv(o.Px, Figure2Sizes(), rndvLimit)
			if err != nil {
				return "", err
			}
			return o.pick(CSVFigure2(pts), FormatFigure2(pts)+
				"paper: LAPI asymptote ≈97 MB/s (half-peak ≈8 KB), MPI ≈98 MB/s (half-peak ≈23 KB)\n"), nil
		}},
		{"latency", true, func(o Options) (string, error) {
			l, err := MeasureGALatency(o.Px)
			if err != nil {
				return "", err
			}
			return FormatGALatency(l) + "paper: get 94.2/221 µs, put 49.6/54.6 µs\n\n", nil
		}},
		{"fig3", true, func(o Options) (string, error) {
			pts, err := MeasureFigure3(o.Px, Figure34Sizes())
			if err != nil {
				return "", err
			}
			return o.pick(CSVFigure34(pts), FormatFigure34("Figure 3: GA put bandwidth under LAPI and MPL", pts)+"\n"), nil
		}},
		{"fig4", true, func(o Options) (string, error) {
			pts, err := MeasureFigure4(o.Px, Figure34Sizes())
			if err != nil {
				return "", err
			}
			return o.pick(CSVFigure34(pts), FormatFigure34("Figure 4: GA get bandwidth under LAPI and MPL", pts)+"\n"), nil
		}},
		{"ablate", true, func(o Options) (string, error) {
			vp, err := MeasureVectorAblation(o.Px, []int{8192, 32768, 131072, 524288})
			if err != nil {
				return "", err
			}
			cp, err := MeasureChunkAblation(o.Px, []int{128, 256, 512, 900, 2048, 4096})
			if err != nil {
				return "", err
			}
			sp, err := MeasureSwitchAblation(o.Px, []int{32 * 1024, 128 * 1024, 512 * 1024, 1 << 20, 4 << 20})
			if err != nil {
				return "", err
			}
			return FormatVectorAblation(vp) + "\n" + FormatChunkAblation(cp) + "\n" + FormatSwitchAblation(sp) + "\n", nil
		}},
		{"app", true, func(o Options) (string, error) {
			r, err := MeasureApplication(o.Px)
			if err != nil {
				return "", err
			}
			return FormatApp(r) + "paper: 10-50% improvement depending on problem and communication mix\n", nil
		}},
		// mesh iterates every named fabric (crossbar, contended spine, fat
		// tree, zero latency), prints wall-clock times, and fails if any
		// sharded run's virtual times diverge from the serial engine's.
		{"mesh", false, func(o Options) (string, error) {
			var out strings.Builder
			for _, nc := range MeshConfigs() {
				m, err := MeasureMesh(8, o.Shards, 50, 1024, nc.Cfg)
				if err != nil {
					return out.String(), fmt.Errorf("%s: %w", nc.Name, err)
				}
				fmt.Fprintf(&out, "[%s]\n%s", nc.Name, FormatMesh(m))
				if !m.Matches {
					return out.String(), fmt.Errorf("%s: sharded run diverged from the serial engine", nc.Name)
				}
			}
			return out.String(), nil
		}},
		// mesh1k is the 1024-task fat-tree sweep; -serial runs it on one
		// shard. Its CSV holds only virtual times (`make determinism`
		// byte-diffs the two), its text form adds a wall-clock line, and
		// the sweep would dominate -exp all's runtime.
		{"mesh1k", false, func(o Options) (string, error) {
			shards := o.Shards
			if o.Px == nil {
				shards = 1
			}
			m, err := MeasureMesh1k(o.Px, shards, o.Rounds)
			if err != nil {
				return "", err
			}
			return o.pick(CSVMesh1k(m), FormatMesh1k(m)), nil
		}},
		// lintgate prints the record `make bench` keeps as
		// BENCH_hotpath.json, then fails if the full lapivet suite cost
		// more than lintLoadFactor times loading the module.
		{"lintgate", false, func(o Options) (string, error) {
			r, err := MeasureLintGate()
			if err != nil {
				return "", err
			}
			rec, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				return "", err
			}
			if r.LintRatio > lintLoadFactor {
				err = fmt.Errorf("%.0f ms is %.1fx the %.0f ms load-only time, over the %.1fx budget",
					r.LintWallMs, r.LintRatio, r.LintLoadMs, lintLoadFactor)
			}
			return string(rec) + "\n", err
		}},
	}
}
