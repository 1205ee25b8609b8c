package ga

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"golapi/internal/exec"
	"golapi/internal/lapi"
)

// GA-over-LAPI request opcodes, carried in the AM user header.
const (
	gaPut byte = iota + 1
	gaAcc
	gaGetReq
	gaGetRep
	gaScatter
	gaGatherReq
	gaGatherRep
)

// gaHdr is the user header of every GA active message (well under the
// QueryMaxUhdr limit, leaving the paper's ≈900 bytes of packet payload for
// data).
type gaHdr struct {
	op     byte
	handle uint16
	sub    Patch
	alpha  float64
	id     uint32 // pending-request id (get/gather)
	cntr   uint32 // origin counter to signal on reply (RemoteCounter)
	count  uint32 // subscript count (scatter/gather)
}

const gaHdrSize = 40

func (h *gaHdr) encode() []byte {
	b := make([]byte, gaHdrSize)
	b[0] = h.op
	binary.BigEndian.PutUint16(b[2:], h.handle)
	binary.BigEndian.PutUint32(b[4:], uint32(h.sub.RLo))
	binary.BigEndian.PutUint32(b[8:], uint32(h.sub.RHi))
	binary.BigEndian.PutUint32(b[12:], uint32(h.sub.CLo))
	binary.BigEndian.PutUint32(b[16:], uint32(h.sub.CHi))
	binary.BigEndian.PutUint64(b[20:], math.Float64bits(h.alpha))
	binary.BigEndian.PutUint32(b[28:], h.id)
	binary.BigEndian.PutUint32(b[32:], h.cntr)
	binary.BigEndian.PutUint32(b[36:], h.count)
	return b
}

func decodeGaHdr(b []byte) gaHdr {
	return gaHdr{
		op:     b[0],
		handle: binary.BigEndian.Uint16(b[2:]),
		sub: Patch{
			RLo: int(int32(binary.BigEndian.Uint32(b[4:]))),
			RHi: int(int32(binary.BigEndian.Uint32(b[8:]))),
			CLo: int(int32(binary.BigEndian.Uint32(b[12:]))),
			CHi: int(int32(binary.BigEndian.Uint32(b[16:]))),
		},
		alpha: math.Float64frombits(binary.BigEndian.Uint64(b[20:])),
		id:    binary.BigEndian.Uint32(b[28:]),
		cntr:  binary.BigEndian.Uint32(b[32:]),
		count: binary.BigEndian.Uint32(b[36:]),
	}
}

// lapiArrayInfo is the backend's per-array state.
type lapiArrayInfo struct {
	local Patch       // this task's block
	base  lapi.Addr   // local block storage
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
	// that node, the opcode of the most recent operation, and the number
	// of outstanding requests. Fence waits each counter down to zero.
	nodeCntr   []*lapi.Counter
	nodeIssued []int
	nodeLastOp []byte

	// Counter free-list: blocking calls borrow a counter and return it.
	cntrPool []*lapi.Counter

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
	b.nodeLastOp = make([]byte, t.N())
	for i := range b.nodeCntr {
		b.nodeCntr[i] = t.NewCounter()
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
	bases, err := b.t.AddressInit(ctx, base)
	if err != nil {
		return err
	}
	b.arrays[a.handle] = &lapiArrayInfo{local: local, base: base, bases: bases}
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
func (b *lapiBackend) track(owner int, op byte) *lapi.Counter {
	b.nodeIssued[owner]++
	b.nodeLastOp[owner] = op
	return b.nodeCntr[owner]
}

// --- put -----------------------------------------------------------------

func (b *lapiBackend) put(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	bytes := sub.Elems() * 8
	switch {
	case sub.Contiguous():
		// 1-D request: direct LAPI_Put, no pack copy (§5.3, §5.4).
		return b.directPutRows(ctx, a, owner, sub, buf, ld, off)
	case b.cfg.UseVectorOps:
		// §6 extension: the whole 2-D patch as one strided put —
		// one message, no AM pack/unpack copies.
		return b.vectorPut(ctx, a, owner, sub, buf, ld, off)
	case bytes >= b.cfg.DirectSwitchBytes:
		// Very large 2-D request: switch to per-row direct transfers
		// ("GA switches to LAPI_Put protocol to send individual
		// columns of a 2-D patch", §5.4 — rows here, row-major).
		return b.directPutRows(ctx, a, owner, sub, buf, ld, off)
	default:
		// Small/medium non-contiguous: pack into pipelined active
		// messages of ≈AMChunkBytes (§5.3.1).
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
	data := make([]byte, sub.Elems()*8)
	packPatch(data, buf, ld, off, sub.Rows(), sub.Cols())
	base, st := b.stride(a, owner, sub)
	if err := b.t.PutStrided(ctx, owner, base, st, data, lapi.NoCounter, org, b.track(owner, gaPut)); err != nil {
		return err
	}
	b.t.Waitcntr(ctx, org, 1)
	return nil
}

// vectorGet pulls a 2-D patch with a single strided get.
func (b *lapiBackend) vectorGet(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	org := b.borrowCntr()
	defer b.returnCntr(org)
	scratch := make([]byte, sub.Elems()*8)
	base, st := b.stride(a, owner, sub)
	if err := b.t.GetStrided(ctx, owner, base, st, scratch, lapi.NoCounter, org); err != nil {
		return err
	}
	b.t.Waitcntr(ctx, org, 1)
	unpackPatch(buf, ld, off, scratch, sub.Rows(), sub.Cols())
	return nil
}

// directPutRows issues one LAPI_Put per row of sub and waits until the user
// buffer is reusable (the origin counters), which is GA put's contract.
func (b *lapiBackend) directPutRows(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	org := b.borrowCntr()
	defer b.returnCntr(org)
	rows, cols := sub.Rows(), sub.Cols()
	for r := 0; r < rows; r++ {
		// The row encode below stands in for the adapter's DMA read
		// of user memory: it is not one of the paper's "extra
		// copies" and carries no modelled cost.
		wire := make([]byte, cols*8)
		packRow(wire, buf, off+r*ld, cols)
		addr := b.remoteAddr(a, owner, sub.RLo+r, sub.CLo)
		if err := b.t.Put(ctx, owner, addr, wire, lapi.NoCounter, org, b.track(owner, gaPut)); err != nil {
			return err
		}
	}
	b.t.Waitcntr(ctx, org, rows)
	return nil
}

// amPutAcc ships a put or accumulate through the AM protocol: pack (charged
// copy), pipelined Amsends, no waiting — the pack buffers are internal.
func (b *lapiBackend) amPutAcc(ctx exec.Context, op byte, a *Array, owner int, sub Patch, buf []float64, ld, off int, alpha float64) error {
	cols := sub.Cols()
	rowBytes := cols * 8
	rowsPer := b.cfg.AMChunkBytes / rowBytes
	if rowsPer < 1 {
		rowsPer = 1
	}
	for r0 := 0; r0 < sub.Rows(); r0 += rowsPer {
		r1 := min(r0+rowsPer, sub.Rows())
		chunk := Patch{RLo: sub.RLo + r0, RHi: sub.RLo + r1 - 1, CLo: sub.CLo, CHi: sub.CHi}
		data := make([]byte, chunk.Elems()*8)
		// The pack copy is one of the AM protocol's two extra copies
		// (§5.3): charge it.
		if c := b.cfg.copyCost(len(data)); c > 0 {
			ctx.Sleep(c)
		}
		packPatch(data, buf, ld, off+r0*ld, chunk.Rows(), chunk.Cols())
		h := gaHdr{op: op, handle: uint16(a.handle), sub: chunk, alpha: alpha}
		if err := b.t.Amsend(ctx, owner, b.reqH, h.encode(), data, lapi.NoCounter, nil, b.track(owner, op)); err != nil {
			return err
		}
	}
	return nil
}

// --- get -----------------------------------------------------------------

func (b *lapiBackend) get(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	bytes := sub.Elems() * 8
	switch {
	case sub.Contiguous():
		return b.directGetRows(ctx, a, owner, sub, buf, ld, off)
	case b.cfg.UseVectorOps:
		return b.vectorGet(ctx, a, owner, sub, buf, ld, off)
	case bytes >= b.cfg.DirectSwitchBytes:
		return b.directGetRows(ctx, a, owner, sub, buf, ld, off)
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
	scratch := make([]byte, rows*cols*8)
	for r := 0; r < rows; r++ {
		addr := b.remoteAddr(a, owner, sub.RLo+r, sub.CLo)
		if err := b.t.Get(ctx, owner, addr, scratch[r*cols*8:(r+1)*cols*8], lapi.NoCounter, org); err != nil {
			return err
		}
	}
	b.t.Waitcntr(ctx, org, rows)
	for r := 0; r < rows; r++ {
		unpackRow(buf, off+r*ld, scratch[r*cols*8:], cols)
	}
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
	if err := b.t.Amsend(ctx, owner, b.reqH, h.encode(), nil, lapi.NoCounter, nil, nil); err != nil {
		delete(b.pending, id)
		return err
	}
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
	n := len(vals)
	data := make([]byte, n*16)
	if c := b.cfg.copyCost(len(data)); c > 0 {
		ctx.Sleep(c)
	}
	for k := 0; k < n; k++ {
		binary.BigEndian.PutUint32(data[k*16:], uint32(idx[2*k]))
		binary.BigEndian.PutUint32(data[k*16+4:], uint32(idx[2*k+1]))
		putF64(data[k*16+8:], vals[k])
	}
	h := gaHdr{op: gaScatter, handle: uint16(a.handle), count: uint32(n)}
	return b.t.Amsend(ctx, owner, b.reqH, h.encode(), data, lapi.NoCounter, nil, b.track(owner, gaScatter))
}

func (b *lapiBackend) gather(ctx exec.Context, a *Array, owner int, idx []int32, out []float64) error {
	done := b.borrowCntr()
	defer b.returnCntr(done)
	n := len(out)
	data := make([]byte, n*8)
	for k := 0; k < n; k++ {
		binary.BigEndian.PutUint32(data[k*8:], uint32(idx[2*k]))
		binary.BigEndian.PutUint32(data[k*8+4:], uint32(idx[2*k+1]))
	}
	b.nextID++
	id := b.nextID
	b.pending[id] = &pendingGet{vals: out, done: done}
	h := gaHdr{op: gaGatherReq, handle: uint16(a.handle), id: id, cntr: uint32(done.ID()), count: uint32(n)}
	if err := b.t.Amsend(ctx, owner, b.reqH, h.encode(), data, lapi.NoCounter, nil, nil); err != nil {
		delete(b.pending, id)
		return err
	}
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
	org := b.borrowCntr()
	defer b.returnCntr(org)
	var prev int64
	if err := b.t.Rmw(ctx, lapi.RmwFetchAndAdd, c.owner, lapi.Addr(c.loc), inc, 0, &prev, org); err != nil {
		return 0, err
	}
	b.t.Waitcntr(ctx, org, 1)
	return prev, nil
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
	org := b.borrowCntr()
	defer b.returnCntr(org)
	owner := m.mutexOwner(i)
	backoff := 5 * time.Microsecond
	for {
		var prev int64
		if err := b.t.Rmw(ctx, lapi.RmwCompareAndSwap, owner, lapi.Addr(m.locs[i]), 1, 0, &prev, org); err != nil {
			return err
		}
		b.t.Waitcntr(ctx, org, 1)
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
	org := b.borrowCntr()
	defer b.returnCntr(org)
	var prev int64
	if err := b.t.Rmw(ctx, lapi.RmwSwap, m.mutexOwner(i), lapi.Addr(m.locs[i]), 0, 0, &prev, org); err != nil {
		return err
	}
	b.t.Waitcntr(ctx, org, 1)
	if prev != 1 {
		return fmt.Errorf("ga: Unlock(%d): mutex was not held (value %d)", i, prev)
	}
	return nil
}

// --- fence, barrier, local access -------------------------------------------

func (b *lapiBackend) fence(ctx exec.Context) error {
	for r := 0; r < b.n(); r++ {
		if k := b.nodeIssued[r]; k > 0 {
			b.t.Waitcntr(ctx, b.nodeCntr[r], k)
			b.nodeIssued[r] -= k
		}
	}
	return nil
}

func (b *lapiBackend) barrier(ctx exec.Context) error {
	b.t.Barrier(ctx)
	return nil
}

func (b *lapiBackend) release() {}

func (b *lapiBackend) localRead(a *Array, i, j int) float64 {
	in := b.info(a.handle)
	blk := b.t.MustBytes(in.base, in.local.Elems()*8)
	return getF64(blk[blockIndex(in.local, i, j):])
}

func (b *lapiBackend) localWrite(a *Array, i, j int, v float64) {
	in := b.info(a.handle)
	blk := b.t.MustBytes(in.base, in.local.Elems()*8)
	putF64(blk[blockIndex(in.local, i, j):], v)
}

// --- target-side handlers ----------------------------------------------------

// handleRequest is the GA request header handler (runs in the LAPI
// dispatcher; must not block). It allocates the AM buffer and defers all
// work to the completion handler.
func (b *lapiBackend) handleRequest(t *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	h := decodeGaHdr(info.UHdr)
	var buf lapi.Addr
	if info.DataLen > 0 {
		buf = t.Alloc(info.DataLen)
	}
	src := info.Src
	n := info.DataLen
	return buf, func(ctx exec.Context, t2 *lapi.Task) {
		b.completeRequest(ctx, t2, src, h, buf, n)
	}
}

func (b *lapiBackend) completeRequest(ctx exec.Context, t *lapi.Task, src int, h gaHdr, buf lapi.Addr, n int) {
	in := b.info(int(h.handle))
	var data []byte
	if n > 0 {
		data = t.MustBytes(buf, n)
		defer t.Free(buf)
	}
	block := t.MustBytes(in.base, in.local.Elems()*8)
	switch h.op {
	case gaPut:
		// Unpack into the local block: the second of the AM
		// protocol's extra copies (§5.3).
		if c := b.cfg.copyCost(n); c > 0 {
			ctx.Sleep(c)
		}
		storeInto(block, in.local, h.sub, data)
	case gaAcc:
		b.accMu.lock(ctx)
		if c := b.cfg.copyCost(n); c > 0 {
			ctx.Sleep(c)
		}
		accumulateInto(block, in.local, h.sub, data, h.alpha)
		b.accMu.unlock()
	case gaGetReq:
		reply := make([]byte, h.sub.Elems()*8)
		if c := b.cfg.copyCost(len(reply)); c > 0 {
			ctx.Sleep(c)
		}
		loadFrom(reply, block, in.local, h.sub)
		rh := gaHdr{op: gaGetRep, sub: h.sub, id: h.id, cntr: h.cntr}
		if err := t.Amsend(ctx, src, b.repH, rh.encode(), reply, lapi.RemoteCounter(h.cntr), nil, b.track(src, gaGetRep)); err != nil {
			panic(fmt.Sprintf("ga: rank %d: get reply: %v", t.Self(), err))
		}
	case gaScatter:
		if c := b.cfg.copyCost(n); c > 0 {
			ctx.Sleep(c)
		}
		for k := 0; k < int(h.count); k++ {
			i := int(int32(binary.BigEndian.Uint32(data[k*16:])))
			j := int(int32(binary.BigEndian.Uint32(data[k*16+4:])))
			v := getF64(data[k*16+8:])
			putF64(block[blockIndex(in.local, i, j):], v)
		}
	case gaGatherReq:
		reply := make([]byte, int(h.count)*8)
		if c := b.cfg.copyCost(len(reply)); c > 0 {
			ctx.Sleep(c)
		}
		for k := 0; k < int(h.count); k++ {
			i := int(int32(binary.BigEndian.Uint32(data[k*8:])))
			j := int(int32(binary.BigEndian.Uint32(data[k*8+4:])))
			copy(reply[k*8:], block[blockIndex(in.local, i, j):blockIndex(in.local, i, j)+8])
		}
		rh := gaHdr{op: gaGatherRep, id: h.id, cntr: h.cntr, count: h.count}
		if err := t.Amsend(ctx, src, b.repH, rh.encode(), reply, lapi.RemoteCounter(h.cntr), nil, b.track(src, gaGatherRep)); err != nil {
			panic(fmt.Sprintf("ga: rank %d: gather reply: %v", t.Self(), err))
		}
	default:
		panic(fmt.Sprintf("ga: rank %d: bad request op %d", t.Self(), h.op))
	}
}

// handleReply is the header handler for get/gather replies at the origin.
func (b *lapiBackend) handleReply(t *lapi.Task, info *lapi.AmInfo) (lapi.Addr, lapi.CompletionHandler) {
	h := decodeGaHdr(info.UHdr)
	buf := t.Alloc(info.DataLen)
	n := info.DataLen
	return buf, func(ctx exec.Context, t2 *lapi.Task) {
		p := b.pending[h.id]
		if p == nil {
			panic(fmt.Sprintf("ga: rank %d: reply for unknown request %d", t2.Self(), h.id))
		}
		delete(b.pending, h.id)
		data := t2.MustBytes(buf, n)
		defer t2.Free(buf)
		if c := b.cfg.copyCost(n); c > 0 {
			ctx.Sleep(c)
		}
		switch h.op {
		case gaGetRep:
			unpackPatch(p.buf, p.ld, p.off, data, p.sub.Rows(), p.sub.Cols())
		case gaGatherRep:
			for k := range p.vals {
				p.vals[k] = getF64(data[k*8:])
			}
		default:
			panic(fmt.Sprintf("ga: rank %d: bad reply op %d", t2.Self(), h.op))
		}
		// The reply's target counter (p.done, named in the request)
		// fires after this handler returns, releasing the blocked
		// caller with the data already unpacked.
	}
}
