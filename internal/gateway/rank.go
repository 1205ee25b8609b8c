package gateway

// Per-rank state and the control plane: each mesh rank runs one long-lived
// control activity that owns the rank's GA world, and a single registry
// goroutine serializes all object creation so every rank calls the
// collective ga.Create in the same order — the SPMD convention GA requires,
// driven here by external clients instead of an SPMD main.

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"golapi/internal/collective"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/gateway/proto"
	"golapi/internal/lapi"
	"golapi/internal/tcpnet"
)

// accUhdrSize is the user header of the gateway's accumulate active
// message: handle u32, row u32, col u32, count u32, alpha f64.
const accUhdrSize = 4 + 4 + 4 + 4 + 8

// control-command kinds.
const (
	cmdCreateArray = iota
	cmdCreateCounter
	cmdShutdown // collective: allreduce served counts, then exit
	cmdQuit     // non-collective exit (startup failure path)
)

type ctlCmd struct {
	kind       int
	rows, cols int
	res        chan ctlRes // cap >= Ranks: sends never block
}

// ctlRes is one rank's contribution to a control command.
type ctlRes struct {
	rank  int
	arr   *ga.Array
	patch ga.Patch
	block []byte
	ctr   *ga.SharedCounter
	sum   int64 // cmdShutdown: allreduced served total
	err   error
}

// rankState is everything bound to one mesh rank. Fields below the
// "serialized" marker are touched only under the rank's runtime lock
// (from activities, Post callbacks, or AM handlers).
type rankState struct {
	srv *Server
	idx int
	rt  *exec.RealRuntime
	ep  *tcpnet.Endpoint
	t   *lapi.Task

	// served counts requests answered by this rank's sessions; bumped
	// from serialized code, read by Stats and the shutdown allreduce.
	served atomic.Int64

	// serialized state:
	cond     exec.Cond
	cmds     []ctlCmd
	cmdHead  int
	w        *ga.World
	comm     *collective.Comm
	accH     lapi.HandlerID
	cntrFree []*lapi.Counter
}

func newRankState(srv *Server, idx int, rt *exec.RealRuntime, ep *tcpnet.Endpoint, t *lapi.Task) *rankState {
	return &rankState{
		srv:  srv,
		idx:  idx,
		rt:   rt,
		ep:   ep,
		t:    t,
		cond: rt.NewCond(),
	}
}

// post appends a control command. Must run under the rank lock (callers
// wrap it in rt.Post).
func (rs *rankState) post(cmd ctlCmd) {
	rs.cmds = append(rs.cmds, cmd)
	rs.cond.Broadcast()
}

// control is the rank's control activity: bring the rank's protocol stack
// up, signal readiness, then serve control commands until shutdown.
func (rs *rankState) control(ctx exec.Context, initWG *sync.WaitGroup, initErr *error) {
	// Identical registration order on every rank: acc handler, then the GA
	// world (which registers its own handlers), then the communicator
	// (which allocates its counters and mailbox).
	rs.accH = rs.t.RegisterHandler(rs.accHandler)
	w, err := ga.NewLAPIWorld(ctx, rs.t, gaConfig())
	if err == nil {
		rs.w = w
		rs.comm, err = collective.New(ctx, rs.t, commConfig())
	}
	if err == nil {
		err = rs.comm.Barrier(ctx) // all ranks up before any client is served
	}
	*initErr = err
	initWG.Done()
	if err != nil {
		return
	}
	for {
		if rs.cmdHead >= len(rs.cmds) {
			ctx.Wait(rs.cond)
			continue
		}
		cmd := rs.cmds[rs.cmdHead]
		rs.cmdHead++
		switch cmd.kind {
		case cmdCreateArray:
			r := ctlRes{rank: rs.idx}
			arr, err := rs.w.Create(ctx, cmd.rows, cmd.cols)
			if err != nil {
				r.err = err
			} else {
				r.arr = arr
				r.patch, r.block, _ = arr.LocalBlock()
			}
			cmd.res <- r
		case cmdCreateCounter:
			r := ctlRes{rank: rs.idx}
			r.ctr, r.err = rs.w.CreateCounter(ctx)
			cmd.res <- r
		case cmdShutdown:
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(rs.served.Load()))
			r := ctlRes{rank: rs.idx}
			if err := rs.comm.Allreduce(ctx, buf[:], collective.OpSumI64); err != nil {
				r.err = err
			} else {
				r.sum = int64(binary.BigEndian.Uint64(buf[:]))
			}
			cmd.res <- r
			return
		case cmdQuit:
			cmd.res <- ctlRes{rank: rs.idx}
			return
		}
	}
}

// borrowCounter pops a counter from the rank freelist, creating one if
// empty. Must run serialized (session.run calls it under the rank lock).
// Returning counters to the freelist bounds counter-table growth under
// session churn; counters always return at value zero because every op
// waits for exactly the completions it issued.
func (rs *rankState) borrowCounter() *lapi.Counter {
	if n := len(rs.cntrFree); n > 0 {
		c := rs.cntrFree[n-1]
		rs.cntrFree = rs.cntrFree[:n-1]
		return c
	}
	return rs.t.NewCounter()
}

func (rs *rankState) returnCounter(c *lapi.Counter) {
	rs.cntrFree = append(rs.cntrFree, c)
}

// accHandler is the target-side header handler of the gateway accumulate
// AM (GA-style acc: dst += alpha*src, applied atomically at the owner
// because completion handlers are serialized with everything else on the
// rank). The uhdr routes the piece; the payload lands in an arena block
// (AllocAM: unzeroed, recycled by size class) and the completion handler
// folds it into the local block and frees it.
func (rs *rankState) accHandler(t *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	if len(info.UHdr) < accUhdrSize {
		return 0, nil // malformed: drop (cannot happen from our own origin)
	}
	handle := binary.BigEndian.Uint32(info.UHdr[0:4])
	row := int(binary.BigEndian.Uint32(info.UHdr[4:8]))
	col := int(binary.BigEndian.Uint32(info.UHdr[8:12]))
	count := int(binary.BigEndian.Uint32(info.UHdr[12:16]))
	alpha := math.Float64frombits(binary.BigEndian.Uint64(info.UHdr[16:24]))
	cat := rs.srv.cat.Load()
	obj := cat.lookup(handle)
	if obj == nil || obj.kind != proto.KindArray || count*8 != info.DataLen {
		return 0, nil
	}
	stage := t.AllocAM(count * 8)
	return stage, func(ctx exec.Context, t *lapi.Task) {
		obj.accLocal(rs.idx, row, col, alpha, t.MustBytes(stage, count*8))
		t.Free(stage)
	}
}

// catalog is the immutable name→object table, published copy-on-write by
// the registry so sessions and AM handlers read it lock-free.
type catalog struct {
	byName map[string]uint32
	objs   []*object // handle = index+1
}

func (c *catalog) lookup(handle uint32) *object {
	if handle == 0 || int(handle) > len(c.objs) {
		return nil
	}
	return c.objs[handle-1]
}

// object is one named array or counter, with per-rank views cached at
// create time so the hot path never touches backend maps.
type object struct {
	name       string
	kind       uint8
	rows, cols uint32
	// KindArray:
	arrs  []*ga.Array // per rank
	patch []ga.Patch  // per-rank local patch
	block [][]byte    // per-rank local storage (big-endian f64)
	// KindCounter:
	ctrs     []*ga.SharedCounter
	ctrOwner int
	ctrAddr  lapi.Addr
}

// localSeg returns the byte offset of (row, col..col+count) in rank's
// local block if the whole segment lies inside it.
func (o *object) localSeg(rank, row, col, count int) (off int, ok bool) {
	p := o.patch[rank]
	if p.Empty() || row < p.RLo || row > p.RHi || col < p.CLo || col+count-1 > p.CHi {
		return 0, false
	}
	return ((row-p.RLo)*p.Cols() + (col - p.CLo)) * 8, true
}

// accLocal folds src (count big-endian float64s) into rank's block at
// (row, col). The caller guarantees the segment is local; out-of-block
// pieces are dropped rather than corrupting neighbours.
func (o *object) accLocal(rank, row, col int, alpha float64, src []byte) {
	off, ok := o.localSeg(rank, row, col, len(src)/8)
	if !ok {
		return
	}
	dst := o.block[rank][off:]
	for i := 0; i+8 <= len(src); i += 8 {
		v := math.Float64frombits(binary.BigEndian.Uint64(dst[i:]))
		v += alpha * math.Float64frombits(binary.BigEndian.Uint64(src[i:]))
		binary.BigEndian.PutUint64(dst[i:], math.Float64bits(v))
	}
}

// createReq is a session's create request, serialized by the registry.
type createReq struct {
	kind       uint8
	name       string
	rows, cols uint32
	sess       *session
	req        *request
}

// registry serializes object creation: one goroutine pulls create
// requests, runs the collective create through every rank's control
// activity, publishes the new catalog, and answers the session.
func (srv *Server) registry() {
	defer srv.srvWG.Done()
	for cr := range srv.createCh {
		srv.handleCreate(cr)
	}
}

func (srv *Server) handleCreate(cr *createReq) {
	cat := srv.cat.Load()
	if h, ok := cat.byName[cr.name]; ok {
		obj := cat.objs[h-1]
		// Create is create-or-open: an exact match returns the existing
		// handle; a shape or kind clash is StatusExists.
		if obj.kind == cr.kind && obj.rows == cr.rows && obj.cols == cr.cols {
			srv.answerCreate(cr, proto.StatusOK, uint64(h))
		} else {
			srv.answerCreate(cr, proto.StatusExists, 0)
		}
		return
	}
	n := len(srv.ranks)
	res := make(chan ctlRes, n)
	cmd := ctlCmd{rows: int(cr.rows), cols: int(cr.cols), res: res}
	if cr.kind == proto.KindArray {
		cmd.kind = cmdCreateArray
	} else {
		cmd.kind = cmdCreateCounter
	}
	for _, rs := range srv.ranks {
		rs := rs
		rs.rt.Post(func() { rs.post(cmd) })
	}
	obj := &object{
		name: cr.name, kind: cr.kind, rows: cr.rows, cols: cr.cols,
		arrs:  make([]*ga.Array, n),
		patch: make([]ga.Patch, n),
		block: make([][]byte, n),
		ctrs:  make([]*ga.SharedCounter, n),
	}
	var failed error
	for i := 0; i < n; i++ {
		r := <-res
		if r.err != nil {
			failed = r.err
			continue
		}
		obj.arrs[r.rank] = r.arr
		obj.patch[r.rank] = r.patch
		obj.block[r.rank] = r.block
		obj.ctrs[r.rank] = r.ctr
	}
	if failed != nil {
		// The create was collective, so either all ranks failed validation
		// the same way or the mesh is wedged; report Busy and leave the
		// catalog untouched.
		srv.answerCreate(cr, proto.StatusBusy, 0)
		return
	}
	if cr.kind == proto.KindCounter {
		obj.ctrOwner, obj.ctrAddr, _ = obj.ctrs[0].Location()
	}
	next := &catalog{
		byName: make(map[string]uint32, len(cat.byName)+1),
		objs:   make([]*object, len(cat.objs), len(cat.objs)+1),
	}
	for k, v := range cat.byName {
		next.byName[k] = v
	}
	copy(next.objs, cat.objs)
	next.objs = append(next.objs, obj)
	h := uint32(len(next.objs))
	next.byName[cr.name] = h
	srv.cat.Store(next)
	srv.answerCreate(cr, proto.StatusOK, uint64(h))
}

// answerCreate posts the result back into the session's rank domain and
// wakes the session, which waits for it inside its Do.
func (srv *Server) answerCreate(cr *createReq, st proto.Status, val uint64) {
	sess, req := cr.sess, cr.req
	sess.rs.rt.Post(func() {
		req.status = st
		req.value = val
		req.done = true
		sess.cond.Broadcast()
	})
}
