// Command benchmark is the repository's standing performance benchmark: six
// workloads, measured end to end and layer by layer, from outside every
// layer (README.md has the catalogue).
//
//	go run ./benchmark                          every workload, untraced; -trace 1 adds the traced runs
//	go run ./benchmark -workload rt_small       one workload; the last stdout line is the driver's JSON
//	go run ./benchmark -quick                   smoke sizing (a few seconds per workload, no bounds)
//	go run ./benchmark -calibrate 5             five sets; spread per (workload, metric); proposed bounds
//	go run ./benchmark -compare a.json b.json   same / worse / unresolved per pair; exit 1 on worse
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 15

// options are the command's flags.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	quick        bool
	calibrate    int
	compare      bool
	out          string
	updateGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line (default: all six)")
	flag.Uint64Var(&o.seed, "seed", 1, "drives row/column choice, payload patterns, op order and arrival times")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time per run, set-up excluded")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run (per-layer metrics, spans in benchmark/out/trace-<workload>.json)")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizing: every workload in a few seconds, oracles on, bounds off")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run N sets (seeds seed..seed+N-1) and print the spread of every end-to-end metric")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments; exit 1 if any pair is worse")
	flag.StringVar(&o.out, "o", "", "result file to write (default benchmark/out/results.json; with -workload: that run's full result, nowhere by default)")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite benchmark/golden/*.csv from this run's virtual times instead of checking them")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.workload != "" && !knownWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if o.quick {
		o.seconds = 1
	}
	env := func(seed uint64, traced bool) *runEnv {
		return &runEnv{
			seed: seed, seconds: time.Duration(o.seconds * float64(time.Second)),
			traced: traced, quick: o.quick, updateGolden: o.updateGolden, root: root,
		}
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	switch {
	case o.calibrate > 0:
		return calibrateSets(os.Stdout, names, o, root)

	case o.workload != "":
		// The driver's contract: human-readable detail on stderr, one JSON
		// object as the last line of stdout.
		res, err := runWorkload(env(o.seed, o.trace == 1), o.workload)
		if err != nil {
			return err
		}
		res.print(os.Stderr)
		if o.out != "" {
			if err := writeJSON(o.out, res); err != nil {
				return err
			}
		}
		line, err := res.contractLine()
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.correct() {
			return fmt.Errorf("%s: %d of %d operations failed", o.workload, res.Failed, res.Attempted)
		}
		return nil

	default:
		file := newResultFile()
		bad := 0
		for _, traced := range []bool{false, true}[:1+o.trace] {
			for _, name := range names {
				res, err := runIsolated(o, root, name, o.seed, traced)
				if err != nil {
					return err
				}
				res.print(os.Stdout)
				file.Runs = append(file.Runs, res)
				if !res.correct() {
					bad++
				}
			}
		}
		if err := file.write(resultPath(root, o.out)); err != nil {
			return err
		}
		if bad > 0 {
			return fmt.Errorf("%d run(s) failed their oracle", bad)
		}
		return nil
	}
}

// runIsolated runs one workload in a process of its own — this binary,
// re-executed — and reads back its full result. A multi-run invocation
// must not run workloads side by side in one process: the peak RSS would
// be the largest workload's, and a heap grown by sim_mesh1k makes the
// collector all but vanish from a later rt_small (18 vs 22 µs).
func runIsolated(o options, root, name string, seed uint64, traced bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := scratchFile(root)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-o", tmp}
	if traced {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr // the child's table is reprinted from its result; keep its words for a failure
	runErr := cmd.Run()
	var res runResult
	b, err := os.ReadFile(tmp)
	if err == nil && len(b) > 0 {
		err = json.Unmarshal(b, &res)
	}
	if err != nil || len(b) == 0 {
		return nil, fmt.Errorf("%s: %v\n%s", name, runErr, stderr.String())
	}
	return &res, nil // a failed oracle is in the result; the caller decides
}

// scratchFile creates an empty file for a child's result in benchmark/out,
// making that directory first: it is ignored by git, so a fresh checkout
// has none.
func scratchFile(root string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, "run-*.json")
	if err != nil {
		return "", err
	}
	return tmp.Name(), tmp.Close()
}

// runWorkload dispatches one run and completes its metric set.
func runWorkload(env *runEnv, name string) (*runResult, error) {
	var res *runResult
	var err error
	switch name {
	case "rt_small":
		res, err = runRT(env, rtSmall)
	case "rt_large":
		res, err = runRT(env, rtLarge)
	case "gate_open_mix":
		res, err = runGateOpenMix(env)
	case "sim_paper":
		res, err = runSimPaper(env)
	case "sim_mesh1k":
		res, err = runSimMesh1k(env)
	case "lint_module":
		res, err = runLintModule(env)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if res.Traced {
		res.Values["bench.fail_ratio"] = res.failRatio()
	}
	return res, res.fill()
}
