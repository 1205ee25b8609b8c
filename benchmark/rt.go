package main

// rt_small and rt_large: the closed-loop, depth-1 round-trip workloads over
// the real path. One caller issues one operation at a time at each rung of
// the ladder
//
//	gateway ⊃ ga ⊃ lapi ⊃ tcpnet ⊃ socket
//
// all in this process over loopback. An untraced run measures the two
// end-to-end seams (a client request through the gateway, a PutSync/GetSync
// through lapi over tcpnet); a traced run adds the lower rungs, CPU and
// allocation sampling, and spans.

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
	"golapi/internal/lapi"
	"golapi/internal/stats"
)

// rtShape is what distinguishes rt_small from rt_large.
type rtShape struct {
	name  string
	elems int // float64s per segment
	// Ops per window: >= 300 where a p50 is reported. Traced runs have
	// four times as many windows per round and report no bounded metric,
	// so they may use fewer; a window that reports a p99 takes p99Samples.
	samples, tracedSamples int
	stream                 bool // the 8 x 1 MiB non-blocking Put point
}

var (
	rtSmall = rtShape{name: "rt_small", elems: 1, samples: 300, tracedSamples: 300}
	rtLarge = rtShape{name: "rt_large", elems: 8000, samples: 300, tracedSamples: 100, stream: true}
)

// p99Samples is the window size where a p99 is reported (traced rt_small
// only: ten samples beyond the percentile).
const p99Samples = 1000

const (
	rtRows, rtCols = 64, 16384 // 2 ranks -> 1x2 grid: each owns 8192 columns

	streamPuts    = 8
	streamPutSize = 1 << 20
	streamBytes   = streamPuts * streamPutSize
	// streamRing is the source ring the stream rotates over: larger than
	// any last-level cache here, so the stream reads memory, not cache.
	streamRing    = 64 << 20
	streamBatches = 6 // batches per stream window

	lapiSlots = 8 // target offsets a lapi window rotates over
)

// rtStack is one set-up of everything the rt workloads measure.
type rtStack struct {
	srv    *gateway.Server
	conn   *client.Conn
	ah, ch uint32 // array and counter handles

	job   *cluster.TCPJob
	tasks []*lapi.Task
	acts  []*actor
	r0    rankInit // rank 0's view: every rank's region and Rmw word, its counter, and (traced) its ga world and array

	// Traced runs only.
	sock *sockRung
	tn   *tcpnetRung
}

func (sh rtShape) segBytes() int { return sh.elems * 8 }

func (sh rtShape) regionBytes() int {
	n := sh.segBytes() * lapiSlots
	if sh.stream && n < streamBytes {
		n = streamBytes
	}
	return n
}

// meshLAPIConfig is how the gateway configures its own mesh (gateway.New):
// the lapi and ga rungs use the same, so rungs differ only by layer.
func meshLAPIConfig() lapi.Config {
	c := lapi.ZeroCost()
	c.RndvLimit = 32 << 10
	return c
}

func meshGAConfig() ga.Config {
	return ga.Config{AMChunkBytes: 900, DirectSwitchBytes: 512 * 1024}
}

// newRTStack brings up the gateway, a client session, the 2-rank lapi mesh
// and (traced) the lower rungs.
func newRTStack(sh rtShape, traced bool) (st *rtStack, err error) {
	st = &rtStack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.srv, err = gateway.New(gateway.DefaultConfig()); err != nil {
		return st, err
	}
	if st.conn, err = client.Dial(st.srv.Addr()); err != nil {
		return st, err
	}
	var status proto.Status
	if st.ah, status, err = st.conn.CreateArray("bench.A", rtRows, rtCols); err != nil || status != proto.StatusOK {
		return st, fmt.Errorf("create array: %v %v", status, err)
	}
	if st.ch, status, err = st.conn.CreateCounter("bench.n"); err != nil || status != proto.StatusOK {
		return st, fmt.Errorf("create counter: %v %v", status, err)
	}

	if st.job, err = cluster.NewTCPLAPI(2, meshLAPIConfig()); err != nil {
		return st, err
	}
	for i := 0; i < 2; i++ {
		st.acts = append(st.acts, startActor(st.job.Runtime(i), fmt.Sprintf("bench-%d", i)))
	}
	st.tasks = append(st.tasks, st.job.Tasks...)
	inits := doAll(st.acts, func(rank int, ctx exec.Context) rankInit { return initRank(ctx, st.tasks[rank], sh, traced) })
	for _, r := range inits {
		if r.err != nil {
			return st, r.err
		}
	}
	st.r0 = inits[0]
	if traced {
		max := sh.segBytes()
		if sh.stream {
			max = streamBytes
		}
		if st.sock, err = newSockRung(max); err != nil {
			return st, err
		}
		if st.tn, err = newTCPNetRung(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// rankInit is what one rank's collective set-up yields.
type rankInit struct {
	region, word []lapi.Addr
	cmpl         *lapi.Counter
	world        *ga.World
	arr          *ga.Array
	err          error
}

// initRank is the per-rank half of the set-up; every rank runs it at once.
func initRank(ctx exec.Context, t *lapi.Task, sh rtShape, traced bool) (r rankInit) {
	if r.region, r.err = t.AddressInit(ctx, t.Alloc(sh.regionBytes())); r.err != nil {
		return r
	}
	if r.word, r.err = t.AddressInit(ctx, t.Alloc(8)); r.err != nil {
		return r
	}
	r.cmpl = t.NewCounter()
	if !traced {
		return r
	}
	if r.world, r.err = ga.NewLAPIWorld(ctx, t, meshGAConfig()); r.err != nil {
		return r
	}
	r.arr, r.err = r.world.Create(ctx, rtRows, rtCols)
	return r
}

// close tears everything down and waits for every goroutine it started.
func (st *rtStack) close() {
	if st.conn != nil {
		st.conn.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	for _, a := range st.acts {
		a.stop()
	}
	if st.job != nil {
		st.job.Shutdown()
		for i := 0; i < st.job.N(); i++ {
			st.job.Runtime(i).Drain()
		}
	}
	if st.sock != nil {
		st.sock.close()
	}
	if st.tn != nil {
		st.tn.close()
	}
}

// shadowArray mirrors a rows x cols float64 array on the harness side: the
// oracle compares what a seam reads back against it.
type shadowArray struct {
	cols int
	v    []float64
}

func newShadow(rows, cols int) *shadowArray {
	return &shadowArray{cols: cols, v: make([]float64, rows*cols)}
}

func (s *shadowArray) seg(row, col, n int) []float64 {
	return s.v[row*s.cols+col : row*s.cols+col+n]
}

func (s *shadowArray) put(row, col int, vals []float64) { copy(s.seg(row, col, len(vals)), vals) }

func (s *shadowArray) acc(row, col int, alpha float64, vals []float64) {
	dst := s.seg(row, col, len(vals))
	for i, v := range vals {
		dst[i] += alpha * v
	}
}

func (s *shadowArray) matches(row, col int, got []float64) bool {
	want := s.seg(row, col, len(got))
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// rtRun is one run of an rt workload.
type rtRun struct {
	env *runEnv
	sh  rtShape
	st  *rtStack
	res *runResult
	tr  *tracer // nil when untraced, and inside an "untraced" A/B window
	rng splitmix

	rounds    rounds
	win       window
	n         int // ops per window
	roundSpan int64
	winSpan   int64
	stamp     float64          // makes every written payload distinct
	rndv      map[string]int64 // layer -> rendezvous messages over its Put/Get windows
	rndvOps   map[string]int64 // layer -> messages those windows sent

	// Gateway seam.
	gshadow *shadowArray
	vals    []float64
	out     []float64
	counter int64 // expected value of the shared counter
	home    int

	// lapi seam.
	lsrc    []byte
	lbuf    []byte
	lshadow []byte // rank 1's landing region, as it must read
	rmw     int64  // expected value of rank 1's Rmw word
	ring    []byte // stream sources

	// ga rung (traced).
	gashadow *shadowArray
}

// rtOp is one measured operation: body runs a whole window of it.
type rtOp struct {
	key, layer string
	p99        bool
	body       func(op *rtOp)
}

func runRT(env *runEnv, sh rtShape) (*runResult, error) {
	h := &rtRun{
		env: env, sh: sh, res: newResult(env, sh.name),
		rng: splitmix(env.seed), rounds: rounds{},
		rndv: map[string]int64{}, rndvOps: map[string]int64{},
		n: sh.samples,
	}
	if env.traced {
		h.n = sh.tracedSamples
		h.tr = newTracer()
	}
	if env.quick {
		h.n /= 10
	}
	h.makeInputs()

	// The run is cut into segments, each on a stack of its own: setup_s is
	// the median of the set-ups, and a stack that came up in a slow mode
	// (three runs in ten sat at 75 µs instead of 48 µs when one stack
	// served the whole run) taints only its own rounds, which the quiet
	// quartile over all rounds then leaves out.
	segments := env.setups(7)
	ops := h.opList()
	runSpan := h.tr.open(sh.name, "bench", 0)
	var setups []float64
	var counts layerCounts
	round := 0
	for seg := 0; seg < segments; seg++ {
		t0 := now()
		st, err := h.setUp()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sh.name, err)
		}
		h.st = st
		h.resetShadows()
		h.warmUp()
		setups = append(setups, since(t0).Seconds())
		if h.res.Failed > 0 {
			st.close()
			return h.res, fmt.Errorf("%s: warm-up failed: %v", sh.name, h.res.Notes)
		}

		before := h.layerCounts()
		deadline := now().Add(env.seconds / time.Duration(segments))
		for first := true; first || now().Before(deadline); first, round = false, round+1 {
			h.roundSpan = h.tr.open(fmt.Sprintf("round %d", round), "bench", runSpan)
			// Rotate the order each round so no operation always follows
			// the same neighbour.
			for i := range ops {
				h.window(ops[(i+round)%len(ops)])
			}
			h.tr.close(h.roundSpan)
		}
		counts.add(h.layerCounts(), before)
		st.close()
		runtime.GC() // a discarded stack must not decide the peak RSS by when it happens to be collected
	}
	h.tr.close(runSpan)

	h.res.Values["setup_s"] = median(setups)
	h.res.Detail["setup_s"] = summarize(setups)
	if n := setupRestarts(); n > 0 {
		h.res.notef("the run started over %d time(s) after a set-up that hung", n)
	}
	if env.traced {
		h.reportLayers(counts)
		if err := env.writeTrace(h.res, h.tr); err != nil {
			return nil, err
		}
	} else {
		h.reportEndToEnd()
	}
	return h.res, nil
}

// setUp brings up one segment's stack. The meshes under it can hang in
// their bring-up (setup.go): then the run starts over.
func (h *rtRun) setUp() (*rtStack, error) {
	done := guardSetUp(setupDeadline, restartRun)
	defer done()
	return newRTStack(h.sh, h.env.traced)
}

// makeInputs derives every payload from the seed.
func (h *rtRun) makeInputs() {
	h.vals = make([]float64, h.sh.elems)
	for i := range h.vals {
		h.vals[i] = float64(h.rng.intn(1 << 20))
	}
	h.out = make([]float64, h.sh.elems)
	h.lsrc = make([]byte, h.sh.segBytes())
	for i := range h.lsrc {
		h.lsrc[i] = byte(h.rng.next())
	}
	h.lbuf = make([]byte, h.sh.segBytes())
	h.gshadow = newShadow(rtRows, rtCols)
	h.lshadow = make([]byte, h.sh.regionBytes())
	if h.env.traced {
		h.gashadow = newShadow(rtRows, rtCols)
	}
	if h.sh.stream {
		h.ring = make([]byte, streamRing)
		// One seeded 4 KiB page, repeated with its index folded in: cheap
		// to build, and every 1 MiB source differs from its neighbours.
		page := make([]byte, 4096)
		for i := range page {
			page[i] = byte(h.rng.next())
		}
		for off := 0; off < len(h.ring); off += len(page) {
			copy(h.ring[off:], page)
			h.ring[off] = byte(off >> 12)
			h.ring[off+1] = byte(off >> 20)
		}
	}
}

// resetShadows zeroes the shadows for a fresh stack. They are allocated
// once per run: a new 8 MB shadow per set-up is garbage that decides when
// the collector runs, and with it the latency mode of the whole run.
func (h *rtRun) resetShadows() {
	clear(h.gshadow.v)
	clear(h.lshadow)
	if h.gashadow != nil {
		clear(h.gashadow.v)
	}
	h.counter, h.rmw = 0, 0
	h.home = h.st.conn.HomeRank()
}

// warmUp runs every operation a few times: connections, pools, counter
// free lists and the registration cache fill before anything is timed.
func (h *rtRun) warmUp() {
	keep, tr := h.n, h.tr
	h.n, h.tr = 50, nil
	if h.env.quick {
		h.n = 10
	}
	for _, op := range h.opList() {
		h.win.reset()
		op.body(op)
	}
	h.n, h.tr = keep, tr
	h.win.reset()
}

func (h *rtRun) opList() []*rtOp {
	// Tails are a traced-run diagnostic, and only where a window of 1000
	// ops stays short.
	p99 := h.env.traced && !h.env.quick && h.sh.elems == 1
	ops := []*rtOp{
		{key: "gateway.put", layer: "gateway", p99: p99, body: func(op *rtOp) { h.gwPut(op, false) }},
		{key: "gateway.get", layer: "gateway", body: h.gwGet},
		{key: "lapi.put", layer: "lapi", p99: p99, body: h.lapiPut},
		{key: "lapi.get", layer: "lapi", body: h.lapiGet},
	}
	if h.sh.stream {
		ops = append(ops, &rtOp{key: "lapi.stream", layer: "lapi", body: h.lapiStream})
	}
	if !h.env.traced {
		return ops
	}
	ops = append(ops,
		&rtOp{key: "socket.rtt", layer: "socket", body: h.sockRTT},
		&rtOp{key: "tcpnet.rtt", layer: "tcpnet", body: h.tcpnetRTT},
		&rtOp{key: "exec.post", layer: "exec", body: h.execPost},
		&rtOp{key: "exec.handoff", layer: "exec", body: h.execHandoff},
		&rtOp{key: "lapi.rmw", layer: "lapi", body: h.lapiRmw},
		&rtOp{key: "ga.put", layer: "ga", body: h.gaPut},
		&rtOp{key: "ga.get", layer: "ga", body: h.gaGet},
		&rtOp{key: "ga.acc", layer: "ga", body: h.gaAcc},
		// The same gateway Put with the span recorder off: the pair gives
		// the tracing overhead.
		&rtOp{key: "gateway.put_untraced", layer: "gateway", p99: p99, body: func(op *rtOp) { // same window size as its twin
			tr := h.tr
			h.tr = nil
			h.gwPut(op, false)
			h.tr = tr
		}},
		&rtOp{key: "gateway.put_local", layer: "gateway", body: func(op *rtOp) { h.gwPut(op, true) }},
		&rtOp{key: "gateway.acc", layer: "gateway", body: h.gwAcc},
		&rtOp{key: "gateway.readinc", layer: "gateway", body: h.gwReadInc},
	)
	if h.sh.stream {
		ops = append(ops,
			&rtOp{key: "socket.stream", layer: "socket", body: h.sockStream},
			&rtOp{key: "tcpnet.stream", layer: "tcpnet", body: h.tcpnetStream},
		)
	}
	return ops
}

// window runs one window of op and folds it into the round estimators.
func (h *rtRun) window(op *rtOp) {
	if op.p99 {
		keep := h.n
		h.n = p99Samples
		defer func() { h.n = keep }()
	}
	h.win.reset()
	h.winSpan = h.tr.open(op.key, op.layer, h.roundSpan)
	var m0 uint64
	if h.env.traced {
		m0 = mallocs()
	}
	c0 := selfCPU()
	failed0 := h.res.Failed
	op.body(op)
	cpu := selfCPU() - c0
	var allocs uint64
	if h.env.traced {
		allocs = mallocs() - m0
	}
	h.tr.close(h.winSpan)

	k := len(h.win.ns)
	if k == 0 {
		if h.res.Failed == failed0 {
			h.res.fail(1, "%s: window produced no samples", op.key)
		}
		return
	}
	h.rounds.add(op.key+".p50", h.win.pctlUs(50))
	if op.p99 {
		h.rounds.add(op.key+".p99", h.win.pctlUs(99))
	}
	h.rounds.add(op.key+".cpu", float64(cpu.Nanoseconds())/1e3/float64(k))
	if h.env.traced {
		h.rounds.add(op.key+".allocs", float64(allocs)/float64(k))
	}
}

// timed runs call n times, timing each; after (optional) runs untimed once
// a call has succeeded, for shadow updates.
func (h *rtRun) timed(op *rtOp, n int, call func(i int) error, after func(i int)) {
	if src := h.rndvSource(op); src != nil {
		// The layers' own count of messages that took the rendezvous lane,
		// over exactly the timed calls (not the oracle's read-back).
		before, done := src(), len(h.win.ns)
		defer func() {
			sent := len(h.win.ns) - done
			if op.key == "lapi.stream" {
				sent *= streamPuts // one sample is a batch
			}
			h.rndv[op.layer] += src() - before
			h.rndvOps[op.layer] += int64(sent)
		}()
	}
	for i := 0; i < n; i++ {
		t0 := now()
		err := call(i)
		t1 := now()
		h.res.Attempted++
		if err != nil {
			h.res.fail(1, "%s: %v", op.key, err)
			continue
		}
		h.win.add(t1.Sub(t0))
		h.tr.op(op.key, op.layer, h.winSpan, int64(i), t0, t1)
		if after != nil {
			after(i)
		}
	}
}

// rndvSource returns the rendezvous counter behind op's windows: the mesh's
// for lapi Put/Get/stream, the gateway's for its remote Put/Get. Other
// operations never take the lane and are left out of the share.
func (h *rtRun) rndvSource(op *rtOp) func() int64 {
	switch op.key {
	case "lapi.put", "lapi.get", "lapi.stream":
		return h.rndvMsgs
	case "gateway.put", "gateway.put_untraced", "gateway.get":
		return h.st.srv.RndvMsgs
	}
	return nil
}

// check counts one oracle comparison.
func (h *rtRun) check(ok bool, format string, args ...any) {
	h.res.Attempted++
	if !ok {
		h.res.fail(1, format, args...)
	}
}

// --- gateway seam -----------------------------------------------------

func statusErr(st proto.Status, err error) error {
	if err != nil {
		return err
	}
	if st != proto.StatusOK {
		return fmt.Errorf("status %v", st)
	}
	return nil
}

// pickCol chooses the window's column: in the half of the array the
// session's home rank owns (local) or in the other rank's half.
func (h *rtRun) pickCol(local bool) int {
	half := rtCols / 2
	owner := h.home
	if !local {
		owner = 1 - h.home
	}
	return owner*half + h.alignedCol(half)
}

// alignedCol picks a column offset in [0, width-elems] on a 64-element
// (512-byte) boundary: the seed still chooses where, but segment alignment
// — which moves memcpy speed by a few percent — is the same for every seed.
func (h *rtRun) alignedCol(width int) int {
	const align = 64
	return h.rng.intn((width-h.sh.elems)/align+1) * align
}

func (h *rtRun) nextVals() []float64 {
	h.stamp++
	h.vals[0] = h.stamp
	return h.vals
}

func (h *rtRun) gwPut(op *rtOp, local bool) {
	col, row0 := h.pickCol(local), h.rng.intn(rtRows)
	row := row0
	h.timed(op, h.n, func(i int) error {
		row = (row0 + i) % rtRows
		return statusErr(h.st.conn.Put(h.st.ah, row, col, h.nextVals()))
	}, func(int) { h.gshadow.put(row, col, h.vals) })
	// Oracle: read the last written segment back through the same seam.
	err := statusErr(h.st.conn.Get(h.st.ah, row, col, h.out))
	h.check(err == nil && h.gshadow.matches(row, col, h.out), "%s: read-back of row %d col %d differs (%v)", op.key, row, col, err)
}

func (h *rtRun) gwGet(op *rtOp) {
	col, row0 := h.pickCol(false), h.rng.intn(rtRows)
	row := row0
	h.timed(op, h.n, func(i int) error {
		row = (row0 + i) % rtRows
		return statusErr(h.st.conn.Get(h.st.ah, row, col, h.out))
	}, nil)
	h.check(h.gshadow.matches(row, col, h.out), "%s: row %d col %d differs from what was written", op.key, row, col)
}

func (h *rtRun) gwAcc(op *rtOp) {
	col, row0 := h.pickCol(false), h.rng.intn(rtRows)
	row := row0
	h.timed(op, h.n, func(i int) error {
		row = (row0 + i) % rtRows
		return statusErr(h.st.conn.Acc(h.st.ah, row, col, 1, h.vals))
	}, func(int) { h.gshadow.acc(row, col, 1, h.vals) })
	err := statusErr(h.st.conn.Get(h.st.ah, row, col, h.out))
	h.check(err == nil && h.gshadow.matches(row, col, h.out), "%s: accumulated row %d col %d differs (%v)", op.key, row, col, err)
}

func (h *rtRun) gwReadInc(op *rtOp) {
	exact := true
	h.timed(op, h.n, func(int) error {
		prev, st, err := h.st.conn.ReadInc(h.st.ch, 1)
		if e := statusErr(st, err); e != nil {
			return e
		}
		if prev != h.counter {
			exact = false
		}
		h.counter++
		return nil
	}, nil)
	h.check(exact, "%s: a ReadInc did not return the previous value", op.key)
}

// --- lapi seam ----------------------------------------------------------

// onRank0 runs fn on rank 0's actor with its task.
func (h *rtRun) onRank0(fn func(ctx exec.Context, t *lapi.Task)) {
	h.st.acts[0].do(func(ctx exec.Context) { fn(ctx, h.st.tasks[0]) })
}

// targetMatches fences the mesh and compares rank 1's region with the
// shadow: the data must be in place at the target, not just acknowledged.
func (h *rtRun) targetMatches(off, n int) bool {
	same := doAll(h.st.acts, func(rank int, ctx exec.Context) bool {
		t := h.st.tasks[rank]
		t.Gfence(ctx)
		if rank != 1 {
			return true
		}
		got, err := t.Bytes(h.st.r0.region[1]+lapi.Addr(off), n)
		return err == nil && bytes.Equal(got, h.lshadow[off:off+n])
	})
	return same[1]
}

func (h *rtRun) lapiPut(op *rtOp) {
	seg := h.sh.segBytes()
	off := 0
	h.onRank0(func(ctx exec.Context, t *lapi.Task) {
		h.timed(op, h.n, func(i int) error {
			off = (i % lapiSlots) * seg
			h.stamp++
			h.lsrc[0], h.lsrc[seg-1] = byte(int(h.stamp)), byte(int(h.stamp)>>8)
			return t.PutSync(ctx, 1, h.st.r0.region[1]+lapi.Addr(off), h.lsrc, lapi.NoCounter)
		}, func(int) { copy(h.lshadow[off:], h.lsrc) })
	})
	h.check(h.targetMatches(off, seg), "%s: target memory at offset %d differs after Gfence", op.key, off)
}

func (h *rtRun) lapiGet(op *rtOp) {
	seg := h.sh.segBytes()
	off := 0
	h.onRank0(func(ctx exec.Context, t *lapi.Task) {
		h.timed(op, h.n, func(i int) error {
			off = (i % lapiSlots) * seg
			return t.GetSync(ctx, 1, h.st.r0.region[1]+lapi.Addr(off), h.lbuf, lapi.NoCounter)
		}, nil)
	})
	h.check(bytes.Equal(h.lbuf, h.lshadow[off:off+seg]), "%s: fetched bytes at offset %d differ from the target's", op.key, off)
}

func (h *rtRun) lapiRmw(op *rtOp) {
	exact := true
	h.onRank0(func(ctx exec.Context, t *lapi.Task) {
		h.timed(op, h.n, func(int) error {
			prev, err := t.RmwSync(ctx, lapi.RmwFetchAndAdd, 1, h.st.r0.word[1], 1, 0)
			if err != nil {
				return err
			}
			if prev != h.rmw {
				exact = false
			}
			h.rmw++
			return nil
		}, nil)
	})
	h.check(exact, "%s: a fetch-and-add did not return the previous value", op.key)
}

// lapiStream is the other way to use lapi: non-blocking Puts on a shared
// counter, then one Waitcntr. Each timed sample is one batch of 8 x 1 MiB.
func (h *rtRun) lapiStream(op *rtOp) {
	batches := streamBatches
	if h.n < 50 { // warm-up and quick runs
		batches = 2
	}
	var last int
	h.onRank0(func(ctx exec.Context, t *lapi.Task) {
		h.timed(op, batches, func(int) error {
			last = h.rng.intn(streamRing / streamBytes)
			for i := 0; i < streamPuts; i++ {
				src := h.ring[last*streamBytes+i*streamPutSize:][:streamPutSize]
				dst := h.st.r0.region[1] + lapi.Addr(i*streamPutSize)
				if err := t.Put(ctx, 1, dst, src, lapi.NoCounter, nil, h.st.r0.cmpl); err != nil {
					return err
				}
			}
			t.Waitcntr(ctx, h.st.r0.cmpl, streamPuts)
			return nil
		}, nil)
	})
	copy(h.lshadow, h.ring[last*streamBytes:][:streamBytes])
	h.check(h.targetMatches(0, streamBytes), "%s: streamed bytes differ at the target", op.key)
}

// --- ga rung (traced) -----------------------------------------------------

func (h *rtRun) gaPatch(row, col int) ga.Patch {
	return ga.Patch{RLo: row, RHi: row, CLo: col, CHi: col + h.sh.elems - 1}
}

// gaWindow runs one ga window on rank 0, targeting rank 1's half, and
// reads the last patch back through ga.Get for the oracle.
func (h *rtRun) gaWindow(op *rtOp, call func(ctx exec.Context, a *ga.Array, p ga.Patch) error, after func(row, col int)) {
	col := rtCols/2 + h.alignedCol(rtCols/2)
	row0 := h.rng.intn(rtRows)
	row := row0
	var readErr error
	h.st.acts[0].do(func(ctx exec.Context) {
		a := h.st.r0.arr
		h.timed(op, h.n, func(i int) error {
			row = (row0 + i) % rtRows
			return call(ctx, a, h.gaPatch(row, col))
		}, func(int) {
			if after != nil {
				after(row, col)
			}
		})
		readErr = a.Get(ctx, h.gaPatch(row, col), h.out, h.sh.elems)
	})
	h.check(readErr == nil && h.gashadow.matches(row, col, h.out), "%s: row %d col %d differs (%v)", op.key, row, col, readErr)
}

func (h *rtRun) gaPut(op *rtOp) {
	h.gaWindow(op, func(ctx exec.Context, a *ga.Array, p ga.Patch) error {
		if err := a.Put(ctx, p, h.nextVals(), h.sh.elems); err != nil {
			return err
		}
		return h.st.r0.world.Fence(ctx) // Put returns when the buffer is reusable; Fence is completion
	}, func(row, col int) { h.gashadow.put(row, col, h.vals) })
}

func (h *rtRun) gaGet(op *rtOp) {
	h.gaWindow(op, func(ctx exec.Context, a *ga.Array, p ga.Patch) error {
		return a.Get(ctx, p, h.out, h.sh.elems)
	}, nil)
}

func (h *rtRun) gaAcc(op *rtOp) {
	h.gaWindow(op, func(ctx exec.Context, a *ga.Array, p ga.Patch) error {
		if err := a.Acc(ctx, p, h.vals, h.sh.elems, 1); err != nil {
			return err
		}
		return h.st.r0.world.Fence(ctx)
	}, func(row, col int) { h.gashadow.acc(row, col, 1, h.vals) })
}

// --- lower rungs (traced) ----------------------------------------------------

func (h *rtRun) sockRTT(op *rtOp) {
	h.timed(op, h.n, func(int) error { return h.st.sock.roundTrip(h.lsrc) }, nil)
}

func (h *rtRun) sockStream(op *rtOp) {
	h.timed(op, streamBatches, func(int) error {
		k := h.rng.intn(streamRing / streamBytes)
		return h.st.sock.roundTrip(h.ring[k*streamBytes:][:streamBytes])
	}, nil)
}

func (h *rtRun) tcpnetRTT(op *rtOp) {
	h.timed(op, h.n, func(int) error { return h.st.tn.roundTrip(h.lsrc) }, nil)
	h.check(h.st.tn.echoed(h.lsrc), "%s: the peer received other bytes than were sent", op.key)
}

func (h *rtRun) tcpnetStream(op *rtOp) {
	h.timed(op, streamBatches, func(int) error {
		k := h.rng.intn(streamRing / streamBytes)
		return h.st.tn.stream(h.ring[k*streamBytes:][:streamBytes])
	}, nil)
}

func (h *rtRun) execPost(op *rtOp) {
	// One sample is the mean of a burst: a single Post is shorter than the
	// clock's resolution.
	const burst = 1000
	rt := exec.NewRealRuntime()
	noop := func() {}
	h.timed(op, h.n/10+1, func(int) error {
		for i := 0; i < burst; i++ {
			rt.Post(noop)
		}
		return nil
	}, nil)
	for i := range h.win.ns {
		h.win.ns[i] /= burst
	}
}

func (h *rtRun) execHandoff(op *rtOp) {
	const trips = 100
	h.timed(op, h.n/10+1, func(int) error { pingPong(trips); return nil }, nil)
	for i := range h.win.ns {
		h.win.ns[i] /= 2 * trips
	}
}

// pingPong bounces control between two activities of one runtime trips
// times: 2*trips handoffs through exec.Cond, the primitive every blocking
// LAPI call parks on.
func pingPong(trips int) {
	rt := exec.NewRealRuntime()
	ca, cb := rt.NewCond(), rt.NewCond()
	turn := 0
	rt.Go("ping", func(ctx exec.Context) {
		for i := 0; i < trips; i++ {
			turn = 1
			cb.Broadcast()
			for turn != 0 {
				ctx.Wait(ca)
			}
		}
	})
	rt.Go("pong", func(ctx exec.Context) {
		for i := 0; i < trips; i++ {
			for turn != 1 {
				ctx.Wait(cb)
			}
			turn = 0
			ca.Broadcast()
		}
	})
	rt.Drain()
}

// --- reporting ------------------------------------------------------------

// layerCounts holds the layers' own cumulative counters — a snapshot, or
// what they moved by over the measured rounds (warm-ups excluded).
type layerCounts struct {
	regHits, regMisses int64
}

// add accumulates what the counters moved by between two snapshots.
func (c *layerCounts) add(after, before layerCounts) {
	c.regHits += after.regHits - before.regHits
	c.regMisses += after.regMisses - before.regMisses
}

func (h *rtRun) layerCounts() layerCounts {
	hits, misses := h.regCounts()
	return layerCounts{regHits: hits, regMisses: misses}
}

func (h *rtRun) regCounts() (hits, misses int64) {
	for _, t := range h.st.tasks {
		hits += t.Counters.Get(stats.RndvRegHits)
		misses += t.Counters.Get(stats.RndvRegMisses)
	}
	return hits, misses
}

func (h *rtRun) rndvMsgs() (n int64) {
	for _, t := range h.st.tasks {
		n += t.Counters.Get(stats.RndvMsgs)
	}
	return n
}

// perRound combines the rounds of several keys into one value per round.
func (h *rtRun) perRound(f func(get func(key string) float64) float64, keys ...string) []float64 {
	n := -1
	for _, k := range keys {
		if l := len(h.rounds[k]); n < 0 || l < n {
			n = l
		}
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, f(func(key string) float64 { return h.rounds[key][i] }))
	}
	return out
}

func (h *rtRun) set(name string, perRound []float64) { h.res.setQuiet(name, perRound, lower) }

func (h *rtRun) reportEndToEnd() {
	h.set("op_us", h.rounds["gateway.put.p50"])
	h.set("base_us", h.rounds["lapi.put.p50"])
	// Both windows of a round are milliseconds apart: whatever phase the
	// host is in, it is the same for both, and the ratio keeps only what
	// the gateway adds to the mesh operation under it.
	h.res.setMedian("op_over_base", h.perRound(func(get func(string) float64) float64 {
		return get("gateway.put.p50") / get("lapi.put.p50")
	}, "gateway.put.p50", "lapi.put.p50"))
	h.res.Values["peak_rss_mb"] = peakRSSMB(0)

	// The demoted seams, for the human reader of an untraced run.
	h.res.notef("gateway get p50 %.2f us, lapi get p50 %.2f us", h.rounds.median("gateway.get.p50"), h.rounds.median("lapi.get.p50"))
	if h.sh.stream {
		h.res.notef("stream of %d x 1 MiB non-blocking Puts: %.0f MB/s", streamPuts, streamBytes/h.rounds.median("lapi.stream.p50"))
	}
	h.res.notef("%d rounds of %d-op windows", len(h.rounds["gateway.put.p50"]), h.n)
}

func (h *rtRun) reportLayers(moved layerCounts) {
	v := h.res.Values
	p50 := func(name, key string) { h.set(name, h.rounds[key+".p50"]) }
	med := func(key string) float64 { return h.rounds.median(key) }

	p50("socket.rtt_p50_us", "socket.rtt")
	v["socket.cpu_us_per_op"] = med("socket.rtt.cpu")
	p50("tcpnet.rtt_p50_us", "tcpnet.rtt")
	v["tcpnet.cpu_us_per_op"] = med("tcpnet.rtt.cpu")
	v["tcpnet.allocs_per_op"] = med("tcpnet.rtt.allocs")
	v["exec.post_ns"] = med("exec.post.p50") * 1e3
	v["exec.handoff_us"] = med("exec.handoff.p50")
	p50("lapi.put_p50_us", "lapi.put")
	v["lapi.put_p99_us"] = med("lapi.put.p99") // 0 where no window is long enough for a p99
	v["gateway.put_p99_us"] = med("gateway.put.p99")
	p50("lapi.get_p50_us", "lapi.get")
	p50("lapi.rmw_p50_us", "lapi.rmw")
	v["lapi.cpu_us_per_op"] = med("lapi.put.cpu")
	v["lapi.allocs_per_op"] = med("lapi.put.allocs")
	p50("ga.put_p50_us", "ga.put")
	p50("ga.get_p50_us", "ga.get")
	p50("ga.acc_p50_us", "ga.acc")
	v["ga.cpu_us_per_op"] = med("ga.put.cpu")
	v["ga.allocs_per_op"] = med("ga.put.allocs")
	p50("gateway.put_p50_us", "gateway.put")
	p50("gateway.get_p50_us", "gateway.get")
	p50("gateway.acc_p50_us", "gateway.acc")
	p50("gateway.readinc_p50_us", "gateway.readinc")
	p50("gateway.put_local_p50_us", "gateway.put_local")
	v["gateway.cpu_us_per_op"] = med("gateway.put.cpu")
	v["bench.cpu_us_per_op"] = v["gateway.cpu_us_per_op"]
	v["gateway.allocs_per_op"] = med("gateway.put.allocs")

	// A layer's self time is its rung minus the rung below, both at the
	// same size over the same rounds, each by the same estimator — so the
	// self times and the floor sum to the top rung exactly.
	v["tcpnet.self_us"] = v["tcpnet.rtt_p50_us"] - v["socket.rtt_p50_us"]
	v["lapi.self_us"] = v["lapi.put_p50_us"] - v["tcpnet.rtt_p50_us"]
	v["ga.self_us"] = v["ga.put_p50_us"] - v["lapi.put_p50_us"]
	v["gateway.self_us"] = v["gateway.put_p50_us"] - v["ga.put_p50_us"]
	sum := v["socket.rtt_p50_us"] + v["tcpnet.self_us"] + v["lapi.self_us"] + v["ga.self_us"] + v["gateway.self_us"]
	h.res.notef("ladder: socket %.2f + tcpnet %.2f + lapi %.2f + ga %.2f + gateway %.2f = %.2f us; top rung (gateway put) %.2f us",
		v["socket.rtt_p50_us"], v["tcpnet.self_us"], v["lapi.self_us"], v["ga.self_us"], v["gateway.self_us"], sum, v["gateway.put_p50_us"])

	// Exact shares from the layers' own counters.
	if n := h.rndvOps["lapi"]; n > 0 {
		v["lapi.rndv_share"] = float64(h.rndv["lapi"]) / float64(n)
	}
	if n := h.rndvOps["gateway"]; n > 0 {
		v["gateway.rndv_share"] = float64(h.rndv["gateway"]) / float64(n)
	}
	if d := float64(moved.regHits + moved.regMisses); d > 0 {
		v["lapi.reg_hit_ratio"] = float64(moved.regHits) / d
	}
	if h.sh.stream {
		mbps := func(key string) float64 { return streamBytes / 1e6 / (med(key+".p50") / 1e6) }
		v["socket.stream_mb_per_s"] = mbps("socket.stream")
		v["tcpnet.stream_mb_per_s"] = mbps("tcpnet.stream")
		v["lapi.stream_mb_per_s"] = mbps("lapi.stream")
		v["lapi.stream_efficiency"] = v["lapi.stream_mb_per_s"] / v["socket.stream_mb_per_s"]
	}
	if off := quiet(h.rounds["gateway.put_untraced.p50"], lower); off > 0 {
		v["bench.trace_overhead_pct"] = (v["gateway.put_p50_us"] - off) / off * 100
	}
	v["bench.fail_ratio"] = h.res.failRatio()
}
