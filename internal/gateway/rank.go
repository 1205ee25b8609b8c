package gateway

// Per-rank state and the control plane. The control plane has no thread of
// its own: bring-up, every create and the shutdown allreduce are each one
// everyRank call, which runs a short activity on every rank and is joined
// by its caller (New, the creating session, Close).

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

// rankState is everything bound to one mesh rank. Fields below the
// "serialized" marker are touched only under the rank's runtime lock
// (from activities, Do callbacks, or AM handlers).
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
	w        *ga.World
	comm     *collective.Comm
	accH     lapi.HandlerID
	cntrFree []*lapi.Counter
}

// bringUp brings the rank's protocol stack up. Registration order is
// identical on every rank: the acc handler, then the GA world (which
// registers its own handlers), then the communicator (which allocates its
// counters and mailbox). The closing barrier has every rank up before any
// client is served.
func (rs *rankState) bringUp(ctx exec.Context) error {
	rs.accH = rs.t.RegisterHandler(rs.accHandler)
	w, err := ga.NewLAPIWorld(ctx, rs.t, gaConfig())
	if err != nil {
		return err
	}
	rs.w = w
	if rs.comm, err = collective.New(ctx, rs.t, commConfig()); err != nil {
		return err
	}
	return rs.comm.Barrier(ctx)
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
// create so sessions and AM handlers read it lock-free.
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

// everyRank runs fn as one activity on every rank and returns when all
// of them have: the one shape of the gateway's collective steps
// (bring-up, create, the shutdown allreduce), each of which every rank
// must enter together.
func (srv *Server) everyRank(name string, fn func(ctx exec.Context, rs *rankState)) {
	var wg sync.WaitGroup
	wg.Add(len(srv.ranks))
	for _, rs := range srv.ranks {
		rs := rs
		rs.rt.Go(name, func(ctx exec.Context) {
			defer wg.Done()
			fn(ctx, rs)
		})
	}
	wg.Wait()
}

// create is create-or-open: an exact match returns the existing handle, a
// shape or kind clash is StatusExists, and a new name runs the collective
// GA create on every rank and publishes a new catalog. createMu
// serializes creates, so every rank calls ga.Create in the same order —
// the SPMD convention GA requires, driven here by external clients
// instead of an SPMD main. The caller must not hold a rank lock.
func (srv *Server) create(kind uint8, name string, rows, cols uint32) (proto.Status, uint64) {
	srv.createMu.Lock()
	defer srv.createMu.Unlock()
	cat := srv.cat.Load()
	if h, ok := cat.byName[name]; ok {
		obj := cat.objs[h-1]
		if obj.kind == kind && obj.rows == rows && obj.cols == cols {
			return proto.StatusOK, uint64(h)
		}
		return proto.StatusExists, 0
	}
	n := len(srv.ranks)
	obj := &object{
		name: name, kind: kind, rows: rows, cols: cols,
		arrs:  make([]*ga.Array, n),
		patch: make([]ga.Patch, n),
		block: make([][]byte, n),
		ctrs:  make([]*ga.SharedCounter, n),
	}
	errs := make([]error, n)
	srv.everyRank("gate-create", func(ctx exec.Context, rs *rankState) {
		i := rs.idx
		if kind == proto.KindCounter {
			obj.ctrs[i], errs[i] = rs.w.CreateCounter(ctx)
			return
		}
		if obj.arrs[i], errs[i] = rs.w.Create(ctx, int(rows), int(cols)); errs[i] == nil {
			obj.patch[i], obj.block[i], _ = obj.arrs[i].LocalBlock()
		}
	})
	for _, err := range errs {
		if err != nil {
			// The create was collective, so either all ranks failed
			// validation the same way or the mesh is wedged; report Busy
			// and leave the catalog untouched.
			return proto.StatusBusy, 0
		}
	}
	if kind == proto.KindCounter {
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
	next.byName[name] = h
	srv.cat.Store(next)
	return proto.StatusOK, uint64(h)
}
