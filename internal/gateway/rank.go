package gateway

// Per-rank state and the control plane. The control plane has no thread of
// its own: bring-up, every create and the shutdown sum are each one
// everyRank call, which runs a short activity on every rank and is joined
// by its caller (New, the creating session, Close).

import (
	"sync"
	"sync/atomic"

	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/gateway/proto"
	"golapi/internal/lapi"
	"golapi/internal/tcpnet"
)

// rankState is everything bound to one mesh rank. w is touched only under
// the rank's runtime lock (from activities, Do callbacks, or AM handlers).
type rankState struct {
	srv *Server
	idx int
	rt  *exec.RealRuntime
	ep  *tcpnet.Endpoint
	t   *lapi.Task
	w   *ga.World

	// served counts requests answered by this rank's sessions; bumped
	// from serialized code, read by Stats and the shutdown sum.
	served atomic.Int64
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

// object is one named array or counter, with every rank's GA handle on it
// kept from create time.
type object struct {
	name       string
	kind       uint8
	rows, cols uint32
	arrs       []*ga.Array // KindArray: per rank
	// KindCounter:
	ctrs     []*ga.SharedCounter
	ctrOwner int
	ctrAddr  lapi.Addr
}

// everyRank runs fn as one activity on every rank and returns when all
// of them have: the one shape of the gateway's collective steps
// (bring-up, create, the shutdown sum), each of which every rank
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
		arrs: make([]*ga.Array, n),
		ctrs: make([]*ga.SharedCounter, n),
	}
	errs := make([]error, n)
	srv.everyRank("gate-create", func(ctx exec.Context, rs *rankState) {
		i := rs.idx
		if kind == proto.KindCounter {
			obj.ctrs[i], errs[i] = rs.w.CreateCounter(ctx)
			return
		}
		obj.arrs[i], errs[i] = rs.w.Create(ctx, int(rows), int(cols))
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
