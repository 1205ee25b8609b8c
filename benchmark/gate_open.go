package main

// gate_open_mix: open-loop load against an out-of-process lapigate, so the
// server's CPU and memory are separable from the generator's.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
)

// gateChild is a running `lapigate -mode serve`.
type gateChild struct {
	cmd   *exec.Cmd
	addr  string
	lines chan string // stdout, line by line; closed at EOF
}

// buildLapigate compiles the server into benchmark/out (ignored by git).
// It always asks the go tool, which relinks only when a source changed.
func buildLapigate(root string) (string, error) {
	bin := filepath.Join(root, "benchmark", "out", "lapigate")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lapigate")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lapigate: %v\n%s", err, out)
	}
	return bin, nil
}

var (
	servingRE = regexp.MustCompile(`serving (\S+)`)
	servedRE  = regexp.MustCompile(`mesh served (\d+) requests`)
)

// startGate launches the server on an ephemeral port and waits for its
// "serving ADDR" line.
func startGate(bin string) (*gateChild, error) {
	cmd := exec.Command(bin, "-mode", "serve", "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	g := &gateChild{cmd: cmd, lines: make(chan string, 16)} // the server prints three lines in its life
	go func() {
		defer close(g.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			g.lines <- sc.Text()
		}
	}()
	select {
	case line, ok := <-g.lines:
		if m := servingRE.FindStringSubmatch(line); ok && m != nil {
			g.addr = m[1]
			return g, nil
		}
		g.stop()
		return nil, fmt.Errorf("lapigate: expected a serving line, got %q", line)
	case <-timeout(setupDeadline): // the child's own mesh bring-up can hang (setup.go)
		g.stop()
		return nil, fmt.Errorf("lapigate: %w: no serving line", errSetupHung)
	}
}

// stop ends the server — SIGTERM, then SIGKILL after 5 s — reaps it, and
// returns the mesh's own count of served requests (0 if it never said).
func (g *gateChild) stop() int64 {
	g.cmd.Process.Signal(syscall.SIGTERM)
	kill := timeout(5 * time.Second)
	var served int64
	for open := true; open; {
		select {
		case line, ok := <-g.lines:
			if !ok {
				open = false
			} else if m := servedRE.FindStringSubmatch(line); m != nil {
				served, _ = strconv.ParseInt(m[1], 10, 64)
			}
		case <-kill:
			g.cmd.Process.Kill()
			kill = nil
		}
	}
	g.cmd.Wait() // stdout is at EOF: the child has exited or been killed
	return served
}

// gateStack is one set-up: the child, a control connection and the two
// pipelined sessions.
type gateStack struct {
	child    *gateChild
	ctl      *client.Conn
	ah, ch   uint32
	sessions []*olSession
	requests int64 // client requests issued on this stack (for served_ratio)
}

func newGateStack(bin string) (st *gateStack, err error) {
	st = &gateStack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.child, err = startGate(bin); err != nil {
		return st, err
	}
	// Accept order binds sessions to ranks round-robin: the control
	// connection takes rank 0, then one session per home rank.
	if st.ctl, err = client.Dial(st.child.addr); err != nil {
		return st, err
	}
	var status proto.Status
	if st.ah, status, err = st.ctl.CreateArray("open.A", openRows, openCols); err != nil || status != proto.StatusOK {
		return st, fmt.Errorf("create array: %v %v", status, err)
	}
	if st.ch, status, err = st.ctl.CreateCounter("open.n"); err != nil || status != proto.StatusOK {
		return st, fmt.Errorf("create counter: %v %v", status, err)
	}
	for i := 0; i < 2; i++ {
		s, err := dialSession(st.child.addr, st.ah, st.ch)
		if err != nil {
			return st, err
		}
		st.sessions = append(st.sessions, s)
	}
	if st.sessions[0].home == st.sessions[1].home {
		return st, fmt.Errorf("both sessions landed on rank %d", st.sessions[0].home)
	}
	return st, nil
}

// close ends the sessions and the child; it returns the child's served
// count.
func (st *gateStack) close() int64 {
	for _, s := range st.sessions {
		s.close()
	}
	if st.ctl != nil {
		st.ctl.Close()
	}
	if st.child != nil {
		return st.child.stop()
	}
	return 0
}

// gateRun is one run of gate_open_mix.
type gateRun struct {
	env    *runEnv
	res    *runResult
	st     *gateStack
	tr     *tracer
	rounds rounds
	seed   uint64 // advances per step so every step has its own schedule
	incs   int64  // ReadIncs acknowledged over the stack's life
	incSum int64

	// Reused from step to step; a step's result is read before the next.
	sched []arrival
	last  stepResult
}

// step plays one schedule and accounts for it.
func (g *gateRun) step(name string, rate float64, dur time.Duration, inflightCap int) *stepResult {
	g.seed++
	g.sched = makeSchedule(g.sched, g.seed, rate, dur, len(g.st.sessions))
	span := g.tr.open(name, "gateway", 0)
	r := runStep(&g.last, g.st.sessions, g.sched, dur, rate, inflightCap, g.tr, span) // one span per request, due time to response
	g.tr.close(span)
	g.st.requests += int64(r.completed + r.lost)
	g.incs += r.incs
	g.incSum += r.incSum
	g.res.Attempted += int64(r.completed + r.lost)
	if n := r.failures + int64(r.lost); n > 0 {
		g.res.fail(n, "%s: %d wrong responses, %d requests lost", name, r.failures, r.lost)
	}
	return r
}

// openFixedRate is the offered rate op_us is reported at. The issue
// asked for 20 000 req/s; this host's capacity for the mix swings between
// ~23 000 and ~57 000 req/s with the phase it is in, so 20 000 is below the
// knee in one run and on it in the next. 10 000 stays below it.
const openFixedRate = 10000

func runGateOpenMix(env *runEnv) (*runResult, error) {
	g := &gateRun{env: env, res: newResult(env, "gate_open_mix"), rounds: rounds{}, seed: env.seed << 20}
	if env.traced {
		g.tr = newTracer()
	}
	bin, err := buildLapigate(env.root)
	if err != nil {
		return nil, err
	}
	// As in the rt workloads, the run is cut into segments, each against a
	// server process of its own: setup_s is the median of the set-ups, and
	// a child that came up in a slow mode taints only its own rounds. The
	// traced ladder is one pass over one child.
	segments := env.setups(3)
	if env.traced {
		segments = 1
	}
	var setups []float64
	var rss, ratio float64
	for seg := 0; seg < segments; seg++ {
		t0 := now()
		for try := 1; ; try++ {
			if g.st, err = newGateStack(bin); !errors.Is(err, errSetupHung) || try == setupTries {
				break
			}
			g.res.notef("set-up attempt %d abandoned: %v", try, err)
			t0 = now()
		}
		if err != nil {
			return nil, fmt.Errorf("gate_open_mix: set-up: %w", err)
		}
		g.incs, g.incSum = 0, 0
		g.step("warm-up", 5000, 100*time.Millisecond, openInflight)
		setups = append(setups, since(t0).Seconds())

		pid := g.st.child.cmd.Process.Pid
		if env.traced {
			g.ladder(pid)
		} else {
			g.fixedRate(env.seconds / time.Duration(segments))
		}
		g.finalOracle()
		if r := peakRSSMB(pid); r > rss {
			rss = r
		}
		served := g.st.close()
		g.res.Attempted++
		ratio = float64(served) / float64(g.st.requests)
		if served < g.st.requests {
			g.res.fail(1, "the mesh says it served %d requests, the client issued %d", served, g.st.requests)
		}
	}
	if env.traced {
		g.res.Values["gateway.server_rss_mb"] = rss
		g.res.Values["gateway.served_ratio"] = ratio
		return g.res, env.writeTrace(g.res, g.tr)
	}
	g.res.Values["setup_s"] = median(setups)
	g.res.Detail["setup_s"] = summarize(setups)
	g.res.Values["peak_rss_mb"] = rss
	g.res.setQuiet("op_us", g.rounds["fixed.p50"], lower)
	g.res.setQuiet("base_us", g.rounds["closed.p50"], lower)
	g.res.setMedian("op_over_base", g.rounds["fixed/closed"])
	g.res.notef("at %d req/s: p99 %.1f us, generator late p99 %.1f us; %d rounds on %d servers; served_ratio %.4f",
		openFixedRate, quiet(g.rounds["fixed.p99"], lower), quiet(g.rounds["fixed.late99"], lower), len(g.rounds["fixed.p50"]), segments, ratio)
	return g.res, nil
}

// fixedRate is the untraced run: rounds of a step at the fixed rate (the
// latency a user sees below saturation) and a depth-1 closed loop on the
// same sessions (the unloaded latency the open-loop figure is to be read
// against; their ratio, round by round, is what queueing adds).
func (g *gateRun) fixedRate(measure time.Duration) {
	const unit = 500 * time.Millisecond // one round
	deadline := now().Add(measure)
	for round := 0; round == 0 || now().Before(deadline); round++ {
		// A step that completed nothing (the host stalled for its whole
		// length) has no percentile to contribute.
		var open, closed float64
		if fixed := g.step("fixed rate", openFixedRate, 3*unit/5, openInflight); fixed.completed > 0 {
			open = percentile(fixed.all, 50)
			g.rounds.add("fixed.p50", open)
			g.rounds.add("fixed.p99", percentile(fixed.all, 99))
			g.rounds.add("fixed.late99", percentile(fixed.late, 99))
		}
		if depth1 := g.step("closed depth 1", 200000, 2*unit/5, 1); depth1.completed > 0 {
			closed = percentile(depth1.fromSend, 50)
			g.rounds.add("closed.p50", closed)
		}
		if open > 0 && closed > 0 {
			g.rounds.add("fixed/closed", open/closed)
		}
	}
}

// ladder is the traced run: one step at every offered rate. max_rate_ok is
// the highest rate whose step passed (p99 <= 2000 us from the due time,
// achieved >= 98% of offered, end backlog <= 32, nothing failed or lost).
func (g *gateRun) ladder(pid int) {
	stepDur := g.env.seconds / time.Duration(len(ladderRates))
	v := g.res.Values
	maxOK := 0.0
	for _, rate := range ladderRates {
		tag := rateTag(rate)
		var cpu0, gen0 time.Duration
		if rate == openFixedRate {
			cpu0, _ = procCPU(pid)
			gen0 = selfCPU()
		}
		r := g.step("offered "+tag, float64(rate), stepDur, openInflight)
		v["gateway.open_p99_us."+tag] = percentile(r.all, 99)
		v["gateway.open_achieved."+tag] = r.achieved()
		if r.ok() {
			maxOK = float64(rate)
		}
		if rate == openFixedRate && r.completed > 0 {
			cpu1, _ := procCPU(pid)
			n := float64(r.completed)
			v["gateway.server_cpu_us_per_req"] = float64((cpu1 - cpu0).Nanoseconds()) / 1e3 / n
			v["loadgen.cpu_us_per_req"] = float64((selfCPU() - gen0).Nanoseconds()) / 1e3 / n
			v["gateway.open_p50_us"] = percentile(r.all, 50)
			v["gateway.open_put_p50_us"] = percentile(r.perOp[proto.OpPut], 50)
			v["gateway.open_get_p50_us"] = percentile(r.perOp[proto.OpGet], 50)
			v["gateway.open_readinc_p50_us"] = percentile(r.perOp[proto.OpReadInc], 50)
			v["loadgen.late_p99_us"] = percentile(r.late, 99)
		}
	}
	v["gateway.max_rate_ok"] = maxOK
	v["bench.cpu_us_per_op"] = v["gateway.server_cpu_us_per_req"]
	if g.tr != nil {
		v["bench.trace_overhead_pct"] = g.tr.spent.Seconds() / g.env.seconds.Seconds() * 100
	}
}

// finalOracle checks the server's end state through the control session:
// every row's most recently written segment must read back as written, and
// the shared counter must equal the number of acknowledged ReadIncs — each
// applied exactly once, so the returned previous values were 0..n-1.
func (g *gateRun) finalOracle() {
	out := make([]float64, openSeg)
	for _, s := range g.st.sessions {
		for row, col := range s.lastCol {
			st, err := g.st.ctl.Get(g.st.ah, row, col, out)
			g.st.requests++
			g.res.Attempted++
			want := s.shadow[row][col : col+openSeg]
			same := err == nil && st == proto.StatusOK
			for i := 0; same && i < openSeg; i++ {
				same = out[i] == want[i]
			}
			if !same {
				g.res.fail(1, "final read of row %d col %d differs from the last Put (%v %v)", row, col, st, err)
			}
		}
	}
	final, st, err := g.st.ctl.ReadInc(g.st.ch, 0)
	g.st.requests++
	g.res.Attempted++
	if err != nil || st != proto.StatusOK || final != g.incs || g.incSum != g.incs*(g.incs-1)/2 {
		g.res.fail(1, "counter ended at %d after %d acknowledged ReadIncs (sum of returned values %d, %v %v)", final, g.incs, g.incSum, st, err)
	}
}
