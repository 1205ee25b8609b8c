package ga

import (
	"fmt"
	"time"

	"golapi/internal/exec"
	"golapi/internal/lapi"
)

// lapiArrayInfo is the backend's per-array state.
type lapiArrayInfo struct {
	local Patch       // this task's block
	block []byte      // its storage in the task's LAPI heap
	bases []lapi.Addr // every task's block base (from AddressInit)
}

// pendingGet tracks an outstanding AM-protocol get or gather.
type pendingGet struct {
	buf  []float64 // get: destination with ld/off
	ld   int
	off  int
	sub  Patch
	vals []float64 // gather destination
	done *lapi.Counter
}

// lapiBackend implements the paper's §5.3 GA protocols over LAPI.
type lapiBackend struct {
	w   *World
	t   *lapi.Task
	cfg Config

	reqH lapi.HandlerID
	repH lapi.HandlerID

	arrays map[int]*lapiArrayInfo

	pending map[uint32]*pendingGet
	nextID  uint32

	// Generalized counters, one per remote node (§5.3.2): a LAPI counter
	// used as the completion counter of every Put and Amsend targeting
	// that node, and the number of outstanding requests. Fence waits each
	// counter down to zero.
	nodeCntr   []*lapi.Counter
	nodeIssued []int
	// The same pair for the get and gather replies this task sends as an
	// owner. They have a pair of their own: a reply completing on the
	// node's counter would stand in for one of this task's operations
	// still in flight there, and Fence would return before it completed.
	replyCntr   []*lapi.Counter
	replyIssued []int

	// Counter free-list: blocking calls borrow a counter and return it.
	cntrPool []*lapi.Counter

	// Per-operation byte buffers, borrowed and given back like counters.
	scratch scratch

	// accMu serializes accumulate application against other completion
	// handlers (§5.3.3's Pthread-mutex role).
	accMu locker
}

// locker is a tiny mutex for exec activities.
type locker struct {
	held bool
	cond exec.Cond
}

func (l *locker) lock(ctx exec.Context) {
	for l.held {
		ctx.Wait(l.cond)
	}
	l.held = true
}

func (l *locker) unlock() {
	l.held = false
	l.cond.Broadcast()
}

// NewLAPIWorld collectively creates a GA runtime over LAPI. Every task must
// call it at the same point (it registers AM handlers and barriers).
func NewLAPIWorld(ctx exec.Context, t *lapi.Task, cfg Config) (*World, error) {
	if cfg.AMChunkBytes <= 0 || cfg.MemcpyBandwidth < 0 || cfg.DirectSwitchBytes <= 0 {
		return nil, fmt.Errorf("ga: invalid config %+v", cfg)
	}
	b := &lapiBackend{
		t:       t,
		cfg:     cfg,
		arrays:  make(map[int]*lapiArrayInfo),
		pending: make(map[uint32]*pendingGet),
	}
	b.accMu.cond = newCondFor(t)
	b.reqH = t.RegisterHandler(b.handleRequest)
	b.repH = t.RegisterHandler(b.handleReply)
	b.nodeCntr = make([]*lapi.Counter, t.N())
	b.nodeIssued = make([]int, t.N())
	b.replyCntr = make([]*lapi.Counter, t.N())
	b.replyIssued = make([]int, t.N())
	for i := range b.nodeCntr {
		b.nodeCntr[i] = t.NewCounter()
		b.replyCntr[i] = t.NewCounter()
	}
	w := &World{cfg: cfg, b: b}
	b.w = w
	t.Barrier(ctx)
	return w, nil
}

func newCondFor(t *lapi.Task) exec.Cond { return t.Runtime().NewCond() }

func (b *lapiBackend) self() int { return b.t.Self() }
func (b *lapiBackend) n() int    { return b.t.N() }

func (b *lapiBackend) info(handle int) *lapiArrayInfo {
	in := b.arrays[handle]
	if in == nil {
		panic(fmt.Sprintf("ga: unknown array handle %d on rank %d", handle, b.self()))
	}
	return in
}

func (b *lapiBackend) createArray(ctx exec.Context, a *Array) error {
	local := a.Distribution(b.self())
	size := 0
	if !local.Empty() {
		size = local.Elems() * 8
	}
	base := b.t.Alloc(size)
	// Publish the block before the exchange: a peer whose table comes first
	// may send a request before ours arrives, and serving it needs no bases.
	in := &lapiArrayInfo{local: local, block: b.t.MustBytes(base, size)}
	b.arrays[a.handle] = in
	bases, err := b.t.AddressInit(ctx, base)
	if err != nil {
		return err
	}
	in.bases = bases
	return nil
}

// borrowCntr takes a counter from the pool (or registers a new one).
func (b *lapiBackend) borrowCntr() *lapi.Counter {
	if n := len(b.cntrPool); n > 0 {
		c := b.cntrPool[n-1]
		b.cntrPool = b.cntrPool[:n-1]
		return c
	}
	return b.t.NewCounter()
}

func (b *lapiBackend) returnCntr(c *lapi.Counter) {
	b.cntrPool = append(b.cntrPool, c)
}

// remoteAddr returns the address of global element (i, j) in owner's block.
func (b *lapiBackend) remoteAddr(a *Array, owner, i, j int) lapi.Addr {
	in := b.info(a.handle)
	ownerLocal := a.Distribution(owner)
	return in.bases[owner] + lapi.Addr(blockIndex(ownerLocal, i, j))
}

// track records an operation with a completion counter toward owner for
// Fence (§5.3.2's generalized counter update).
func (b *lapiBackend) track(owner int) *lapi.Counter {
	b.nodeIssued[owner]++
	return b.nodeCntr[owner]
}

// trackReply records a get or gather reply sent to dst for Fence, apart
// from this task's own operations (see replyCntr).
func (b *lapiBackend) trackReply(dst int) *lapi.Counter {
	b.replyIssued[dst]++
	return b.replyCntr[dst]
}

// --- put -----------------------------------------------------------------

// direct reports whether a put or get of sub takes the direct protocol:
// one LAPI_Put or LAPI_Get per row, no pack copy. A 1-D request always does
// (§5.3, §5.4); so does a 2-D request of at least DirectSwitchBytes ("GA
// switches to LAPI_Put protocol to send individual columns of a 2-D
// patch", §5.4 — rows here, row-major), unless UseVectorOps sends every
// 2-D patch as one strided message (§6). Any other 2-D request is packed
// into pipelined active messages of ≈AMChunkBytes (§5.3.1).
func (b *lapiBackend) direct(sub Patch) bool {
	return sub.Contiguous() || !b.cfg.UseVectorOps && sub.Elems()*8 >= b.cfg.DirectSwitchBytes
}

func (b *lapiBackend) put(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	switch {
	case b.direct(sub):
		return b.directPutRows(ctx, a, owner, sub, buf, ld, off)
	case b.cfg.UseVectorOps:
		return b.vectorPut(ctx, a, owner, sub, buf, ld, off)
	default:
		return b.amPutAcc(ctx, gaPut, a, owner, sub, buf, ld, off, 0)
	}
}

// stride returns the LAPI stride vector describing sub within owner's
// local block.
func (b *lapiBackend) stride(a *Array, owner int, sub Patch) (lapi.Addr, lapi.Stride) {
	base := b.remoteAddr(a, owner, sub.RLo, sub.CLo)
	ownerLocal := a.Distribution(owner)
	return base, lapi.Stride{
		Blocks:      sub.Rows(),
		BlockBytes:  sub.Cols() * 8,
		StrideBytes: ownerLocal.Cols() * 8,
	}
}

// vectorPut ships a 2-D patch as a single strided put. The linearization
// of the user's (ld-strided) rows into the wire stream stands in for the
// adapter's gather DMA and carries no charged copy.
func (b *lapiBackend) vectorPut(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	org := b.borrowCntr()
	defer b.returnCntr(org)
	data := b.scratch.borrow(sub.Elems() * 8)
	packPatch(data, buf, ld, off, sub.Rows(), sub.Cols())
	base, st := b.stride(a, owner, sub)
	if err := b.t.PutStrided(ctx, owner, base, st, data, lapi.NoCounter, org, b.track(owner)); err != nil {
		return err
	}
	b.t.Waitcntr(ctx, org, 1)
	b.scratch.give(data)
	return nil
}

// vectorGet pulls a 2-D patch with a single strided get.
func (b *lapiBackend) vectorGet(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	org := b.borrowCntr()
	defer b.returnCntr(org)
	land := b.scratch.borrow(sub.Elems() * 8)
	base, st := b.stride(a, owner, sub)
	if err := b.t.GetStrided(ctx, owner, base, st, land, lapi.NoCounter, org); err != nil {
		return err
	}
	b.t.Waitcntr(ctx, org, 1)
	unpackPatch(buf, ld, off, land, sub.Rows(), sub.Cols())
	b.scratch.give(land)
	return nil
}

// directPutRows issues one LAPI_Put per row of sub and waits until the user
// buffer is reusable (the origin counters), which is GA put's contract.
func (b *lapiBackend) directPutRows(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	org := b.borrowCntr()
	defer b.returnCntr(org)
	rows, cols := sub.Rows(), sub.Cols()
	wire := b.scratch.borrow(rows * cols * 8)
	for r := 0; r < rows; r++ {
		// The row encode below stands in for the adapter's DMA read
		// of user memory: it is not one of the paper's "extra
		// copies" and carries no modelled cost.
		row := wire[r*cols*8 : (r+1)*cols*8]
		packRow(row, buf, off+r*ld, cols)
		addr := b.remoteAddr(a, owner, sub.RLo+r, sub.CLo)
		if err := b.t.Put(ctx, owner, addr, row, lapi.NoCounter, org, b.track(owner)); err != nil {
			return err
		}
	}
	// A rendezvous Put reads its row until the origin counter fires.
	b.t.Waitcntr(ctx, org, rows)
	b.scratch.give(wire)
	return nil
}

// amPutAcc ships a put or accumulate through the AM protocol: pack (charged
// copy), pipelined Amsends, no waiting — Amsend copies each message into
// packets, so one pack buffer serves every chunk.
func (b *lapiBackend) amPutAcc(ctx exec.Context, op byte, a *Array, owner int, sub Patch, buf []float64, ld, off int, alpha float64) error {
	cols := sub.Cols()
	rowBytes := cols * 8
	rowsPer := b.cfg.AMChunkBytes / rowBytes
	if rowsPer < 1 {
		rowsPer = 1
	}
	msg := b.scratch.borrow(gaHdrSize + min(rowsPer, sub.Rows())*rowBytes)
	for r0 := 0; r0 < sub.Rows(); r0 += rowsPer {
		r1 := min(r0+rowsPer, sub.Rows())
		chunk := Patch{RLo: sub.RLo + r0, RHi: sub.RLo + r1 - 1, CLo: sub.CLo, CHi: sub.CHi}
		data := msg[gaHdrSize : gaHdrSize+chunk.Elems()*8]
		// The pack copy is one of the AM protocol's two extra copies
		// (§5.3): charge it.
		b.cfg.charge(ctx, len(data))
		packPatch(data, buf, ld, off+r0*ld, chunk.Rows(), chunk.Cols())
		h := gaHdr{op: op, handle: uint16(a.handle), sub: chunk, alpha: alpha}
		if err := b.t.Amsend(ctx, owner, b.reqH, h.encode(msg), data, lapi.NoCounter, nil, b.track(owner)); err != nil {
			return err
		}
	}
	b.scratch.give(msg)
	return nil
}

// --- get -----------------------------------------------------------------

func (b *lapiBackend) get(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	switch {
	case b.direct(sub):
		return b.directGetRows(ctx, a, owner, sub, buf, ld, off)
	case b.cfg.UseVectorOps:
		return b.vectorGet(ctx, a, owner, sub, buf, ld, off)
	default:
		return b.amGet(ctx, a, owner, sub, buf, ld, off)
	}
}

// directGetRows pulls each row with LAPI_Get straight into wire buffers and
// decodes (the decode stands in for DMA placement; no charged copy — "the
// LAPI version uses the LAPI_Get operation directly and avoids two memory
// copies", §5.4).
func (b *lapiBackend) directGetRows(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	org := b.borrowCntr()
	defer b.returnCntr(org)
	rows, cols := sub.Rows(), sub.Cols()
	land := b.scratch.borrow(rows * cols * 8)
	for r := 0; r < rows; r++ {
		addr := b.remoteAddr(a, owner, sub.RLo+r, sub.CLo)
		if err := b.t.Get(ctx, owner, addr, land[r*cols*8:(r+1)*cols*8], lapi.NoCounter, org); err != nil {
			return err
		}
	}
	b.t.Waitcntr(ctx, org, rows)
	for r := 0; r < rows; r++ {
		unpackRow(buf, off+r*ld, land[r*cols*8:], cols)
	}
	b.scratch.give(land)
	return nil
}

// amGet sends an AM request; the target's completion handler packs and
// replies with an AM whose completion at the origin unpacks into the user
// buffer and fires the reply counter.
func (b *lapiBackend) amGet(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	done := b.borrowCntr()
	defer b.returnCntr(done)
	b.nextID++
	id := b.nextID
	b.pending[id] = &pendingGet{buf: buf, ld: ld, off: off, sub: sub, done: done}
	h := gaHdr{op: gaGetReq, handle: uint16(a.handle), sub: sub, id: id, cntr: uint32(done.ID())}
	hdr := h.encode(b.scratch.borrow(gaHdrSize))
	if err := b.t.Amsend(ctx, owner, b.reqH, hdr, nil, lapi.NoCounter, nil, nil); err != nil {
		delete(b.pending, id)
		return err
	}
	b.scratch.give(hdr)
	b.t.Waitcntr(ctx, done, 1)
	return nil
}

// --- accumulate, scatter, gather ------------------------------------------

func (b *lapiBackend) acc(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int, alpha float64) error {
	// Accumulate always takes the AM path: it must execute code at the
	// target (§5.3.3).
	return b.amPutAcc(ctx, gaAcc, a, owner, sub, buf, ld, off, alpha)
}

func (b *lapiBackend) scatter(ctx exec.Context, a *Array, owner int, idx []int32, vals []float64) error {
	msg := b.scratch.borrow(gaHdrSize + len(vals)*scatterRecord)
	data := msg[gaHdrSize:]
	b.cfg.charge(ctx, len(data))
	packSubscripts(data, idx, vals)
	h := gaHdr{op: gaScatter, handle: uint16(a.handle), count: uint32(len(vals))}
	if err := b.t.Amsend(ctx, owner, b.reqH, h.encode(msg), data, lapi.NoCounter, nil, b.track(owner)); err != nil {
		return err
	}
	b.scratch.give(msg)
	return nil
}

func (b *lapiBackend) gather(ctx exec.Context, a *Array, owner int, idx []int32, out []float64) error {
	done := b.borrowCntr()
	defer b.returnCntr(done)
	msg := b.scratch.borrow(gaHdrSize + len(out)*gatherRecord)
	data := msg[gaHdrSize:]
	packSubscripts(data, idx, nil)
	b.nextID++
	id := b.nextID
	b.pending[id] = &pendingGet{vals: out, done: done}
	h := gaHdr{op: gaGatherReq, handle: uint16(a.handle), id: id, cntr: uint32(done.ID()), count: uint32(len(out))}
	if err := b.t.Amsend(ctx, owner, b.reqH, h.encode(msg), data, lapi.NoCounter, nil, nil); err != nil {
		delete(b.pending, id)
		return err
	}
	b.scratch.give(msg)
	b.t.Waitcntr(ctx, done, 1)
	return nil
}

// --- counters and mutexes --------------------------------------------------

func (b *lapiBackend) newCounter(ctx exec.Context, c *SharedCounter) error {
	var base lapi.Addr
	if b.self() == c.owner {
		base = b.t.Alloc(8)
	}
	words, err := b.t.ExchangeWord(ctx, uint64(base))
	if err != nil {
		return err
	}
	c.loc = words[c.owner]
	return nil
}

func (b *lapiBackend) readInc(ctx exec.Context, c *SharedCounter, inc int64) (int64, error) {
	return b.t.RmwSync(ctx, lapi.RmwFetchAndAdd, c.owner, lapi.Addr(c.loc), inc, 0)
}

func (b *lapiBackend) newMutexes(ctx exec.Context, m *MutexSet) error {
	hosted := 0
	for i := 0; i < m.n; i++ {
		if m.mutexOwner(i) == b.self() {
			hosted++
		}
	}
	var base lapi.Addr
	if hosted > 0 {
		base = b.t.Alloc(hosted * 8)
	}
	words, err := b.t.ExchangeWord(ctx, uint64(base))
	if err != nil {
		return err
	}
	m.locs = make([]uint64, m.n)
	for i := 0; i < m.n; i++ {
		owner := m.mutexOwner(i)
		m.locs[i] = words[owner] + uint64(8*(i/b.n()))
	}
	return nil
}

// lock acquires a global mutex by spinning on a remote compare-and-swap
// (the paper's simple RMW-based synchronization, §3).
func (b *lapiBackend) lock(ctx exec.Context, m *MutexSet, i int) error {
	owner := m.mutexOwner(i)
	backoff := 5 * time.Microsecond
	for {
		prev, err := b.t.RmwSync(ctx, lapi.RmwCompareAndSwap, owner, lapi.Addr(m.locs[i]), 1, 0)
		if err != nil {
			return err
		}
		if prev == 0 {
			return nil
		}
		ctx.Sleep(backoff)
		if backoff < 100*time.Microsecond {
			backoff *= 2
		}
	}
}

func (b *lapiBackend) unlock(ctx exec.Context, m *MutexSet, i int) error {
	prev, err := b.t.RmwSync(ctx, lapi.RmwSwap, m.mutexOwner(i), lapi.Addr(m.locs[i]), 0, 0)
	if err != nil {
		return err
	}
	if prev != 1 {
		return fmt.Errorf("ga: Unlock(%d): mutex was not held (value %d)", i, prev)
	}
	return nil
}

// --- fence, barrier, local access -------------------------------------------

// fence waits, node by node, for the operations and then the replies
// issued toward the node when fence reached it; what is issued while it
// waits is left to the next fence.
func (b *lapiBackend) fence(ctx exec.Context) error {
	for r := 0; r < b.n(); r++ {
		k, kr := b.nodeIssued[r], b.replyIssued[r]
		if k > 0 {
			b.t.Waitcntr(ctx, b.nodeCntr[r], k)
			b.nodeIssued[r] -= k
		}
		if kr > 0 {
			b.t.Waitcntr(ctx, b.replyCntr[r], kr)
			b.replyIssued[r] -= kr
		}
	}
	return nil
}

func (b *lapiBackend) barrier(ctx exec.Context) error {
	b.t.Barrier(ctx)
	return nil
}

func (b *lapiBackend) release() {}

func (b *lapiBackend) block(a *Array) (Patch, []byte) {
	in := b.info(a.handle)
	return in.local, in.block
}

// --- target-side handlers ----------------------------------------------------

// handleRequest is the GA request header handler (runs in the LAPI
// dispatcher; must not block). It allocates the AM buffer (unzeroed:
// delivery fills it) and defers all work to the completion handler.
func (b *lapiBackend) handleRequest(t *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	h := decodeGaHdr(info.UHdr)
	var buf lapi.Addr
	if info.DataLen > 0 {
		buf = t.AllocAM(info.DataLen)
	}
	src := info.Src
	n := info.DataLen
	return buf, func(ctx exec.Context, t2 *lapi.Task) {
		b.completeRequest(ctx, t2, src, h, buf, n)
	}
}

// completeRequest applies a request at its owner. Accumulates take accMu,
// since completion handlers run concurrently (§2.1); a get or gather reply
// travels as an active message behind its own header (reply). On the real
// runtime a completion handler starts on a fresh goroutine's small stack,
// so this frame and apply's are kept lean — the reply is a call of its own
// and apply takes pointers — or every request would pay a stack copy.
func (b *lapiBackend) completeRequest(ctx exec.Context, t *lapi.Task, src int, h gaHdr, buf lapi.Addr, n int) {
	var data []byte
	if n > 0 {
		data = t.MustBytes(buf, n)
		defer t.Free(buf)
	}
	if h.op == gaAcc {
		b.accMu.lock(ctx)
		defer b.accMu.unlock()
	}
	in := b.info(int(h.handle))
	var msg []byte
	if b.cfg.apply(ctx, &h, data, in.block, in.local, func(n int) []byte {
		msg = b.scratch.borrow(gaHdrSize + n)
		return msg[gaHdrSize:]
	}) {
		b.reply(ctx, t, src, &h, msg)
	}
}

// reply sends a get or gather answer, msg, to the requester src: the reply
// fires the requester's counter. Its buffer goes back as soon as Amsend
// returns, having been copied into packets; the completion counter makes
// this task's own Fence wait for the reply too (DESIGN.md §7).
func (b *lapiBackend) reply(ctx exec.Context, t *lapi.Task, src int, h *gaHdr, msg []byte) {
	rh := gaHdr{op: h.op + 1, id: h.id, cntr: h.cntr}
	if err := t.Amsend(ctx, src, b.repH, rh.encode(msg), msg[gaHdrSize:], lapi.RemoteCounter(h.cntr), nil, b.trackReply(src)); err != nil {
		panic(fmt.Sprintf("ga: rank %d: reply to %d: %v", t.Self(), src, err))
	}
	b.scratch.give(msg)
}

// handleReply is the header handler for get/gather replies at the origin.
func (b *lapiBackend) handleReply(t *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	h := decodeGaHdr(info.UHdr)
	buf := t.AllocAM(info.DataLen)
	n := info.DataLen
	return buf, func(ctx exec.Context, t2 *lapi.Task) {
		p := b.pending[h.id]
		if p == nil {
			panic(fmt.Sprintf("ga: rank %d: reply for unknown request %d", t2.Self(), h.id))
		}
		delete(b.pending, h.id)
		data := t2.MustBytes(buf, n)
		defer t2.Free(buf)
		b.cfg.charge(ctx, n)
		switch h.op {
		case gaGetRep:
			unpackPatch(p.buf, p.ld, p.off, data, p.sub.Rows(), p.sub.Cols())
		case gaGatherRep:
			unpackRow(p.vals, 0, data, len(p.vals))
		default:
			panic(fmt.Sprintf("ga: rank %d: bad reply op %d", t2.Self(), h.op))
		}
		// The reply's target counter (p.done, named in the request)
		// fires after this handler returns, releasing the blocked
		// caller with the data already unpacked.
	}
}
