package ga

import (
	"encoding/binary"
	"fmt"

	"golapi/internal/exec"
	"golapi/internal/mpi"
	"golapi/internal/mpl"
)

// Extra opcodes for the MPL backend's request server.
const (
	gaReadInc byte = iota + 16
	gaLock
	gaUnlock
	gaFencePing
)

// Reserved user tags for GA-over-MPL traffic (below mpi.MaxTag).
const (
	tagGAReq = 0xF000
	tagGARep = 0xF001
)

// mplArrayInfo is the MPL backend's per-array state: the local block lives
// in ordinary memory (no remote memory copy exists to target it).
type mplArrayInfo struct {
	local Patch
	block []byte
}

// mutexState is a hosted global mutex with its FIFO wait queue.
type mutexState struct {
	held  bool
	queue []int // ranks waiting for a grant
}

// mplBackend implements the paper's §5.2 baseline: every GA operation is a
// request message served by an interrupt-driven rcvncall handler at the
// owner. MPL's in-order progress rules force the request header and data
// into a single message, so every put/accumulate pays a sender-side pack of
// header+data (§5.4), and gets pay a packed reply.
type mplBackend struct {
	w   *World
	t   *mpl.Task
	cfg Config

	arrays map[int]*mplArrayInfo

	// serveBuf is the request server's posted receive buffer, owned from
	// NewMPLWorld until release (World.Close) hands it to serveBufs.
	serveBuf []byte

	// Server-hosted synchronization state, created lazily on first use
	// (ids are SPMD-consistent).
	counters map[int]*int64
	mutexes  map[[2]int]*mutexState

	// touched[r] records requests sent to r since the last fence; fence
	// flushes them with a ping, relying on MPL's in-order delivery.
	touched []bool
}

// serveBufs is a bounded free list of request-server receive buffers.
// Every task of every MPL job posts one of MaxRequestBytes (1 MiB by
// default), and a sweep builds a job per point, so allocating — and
// zeroing — a fresh one each time was a quarter of the sweep's allocation
// time for bytes no one reads: the server only ever looks at the st.Len
// bytes a message just wrote. A channel because sweep points build and
// close their worlds on different workers; buffered so that at most
// cap(serveBufs) buffers are retained, the rest being left to the
// collector.
var serveBufs = make(chan []byte, 8)

// takeServeBuf returns a buffer of n bytes with unspecified contents.
func takeServeBuf(n int) []byte {
	select {
	case buf := <-serveBufs:
		if cap(buf) >= n {
			return buf[:n]
		}
	default:
	}
	return make([]byte, n)
}

// release implements backend: the receive buffer goes back to the free
// list (or to the collector if the list is full).
func (b *mplBackend) release() {
	if b.serveBuf == nil {
		return
	}
	select {
	case serveBufs <- b.serveBuf:
	default:
	}
	b.serveBuf = nil
}

// NewMPLWorld collectively creates a GA runtime over MPL (the baseline the
// paper compares against). The MPL configuration should use the maximum
// eager limit: the paper attributes the baseline's early put advantage to
// MPL's "much larger buffer space".
func NewMPLWorld(ctx exec.Context, t *mpl.Task, cfg Config) (*World, error) {
	if cfg.MaxRequestBytes <= gaHdrSize {
		return nil, fmt.Errorf("ga: MaxRequestBytes=%d too small", cfg.MaxRequestBytes)
	}
	b := &mplBackend{
		t:        t,
		cfg:      cfg,
		arrays:   make(map[int]*mplArrayInfo),
		counters: make(map[int]*int64),
		mutexes:  make(map[[2]int]*mutexState),
		touched:  make([]bool, t.N()),
		serveBuf: takeServeBuf(cfg.MaxRequestBytes),
	}
	w := &World{cfg: cfg, b: b}
	b.w = w
	if err := t.Rcvncall(ctx, mpi.AnySource, tagGAReq, b.serveBuf, b.serve); err != nil {
		return nil, err
	}
	if err := t.Barrier(ctx); err != nil {
		return nil, err
	}
	return w, nil
}

func (b *mplBackend) self() int { return b.t.Self() }
func (b *mplBackend) n() int    { return b.t.N() }

func (b *mplBackend) info(handle int) *mplArrayInfo {
	in := b.arrays[handle]
	if in == nil {
		panic(fmt.Sprintf("ga: unknown array handle %d on rank %d", handle, b.self()))
	}
	return in
}

func (b *mplBackend) createArray(ctx exec.Context, a *Array) error {
	local := a.Distribution(b.self())
	size := 0
	if !local.Empty() {
		size = local.Elems() * 8
	}
	b.arrays[a.handle] = &mplArrayInfo{local: local, block: make([]byte, size)}
	return b.t.Barrier(ctx)
}

// request sends one GA request message (header and data packed together —
// the copy MPL's progress rules make unavoidable, §5.4) and marks the
// destination for fencing.
func (b *mplBackend) request(ctx exec.Context, owner int, h gaHdr, data []byte) error {
	msg := make([]byte, gaHdrSize+len(data))
	if c := b.cfg.copyCost(len(msg)); c > 0 {
		ctx.Sleep(c)
	}
	copy(msg, h.encode())
	copy(msg[gaHdrSize:], data)
	b.touched[owner] = true
	return b.t.Send(ctx, owner, tagGAReq, msg)
}

// maxDataBytes is the largest data payload one request message may carry.
func (b *mplBackend) maxDataBytes() int { return b.cfg.MaxRequestBytes - gaHdrSize }

// --- put / acc ---------------------------------------------------------------

func (b *mplBackend) put(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	return b.sendPatches(ctx, gaPut, a, owner, sub, buf, ld, off, 0)
}

func (b *mplBackend) acc(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int, alpha float64) error {
	return b.sendPatches(ctx, gaAcc, a, owner, sub, buf, ld, off, alpha)
}

// sendPatches ships a put/acc as one request, split by rows when it exceeds
// the server's preallocated buffer. The MPL implementation "performs
// identically for the 1-D and 2-D requests" (§5.4): there is no direct
// path, everything packs.
func (b *mplBackend) sendPatches(ctx exec.Context, op byte, a *Array, owner int, sub Patch, buf []float64, ld, off int, alpha float64) error {
	rowBytes := sub.Cols() * 8
	if rowBytes > b.maxDataBytes() {
		// A single row exceeds the server buffer: split it by columns.
		colsPer := b.maxDataBytes() / 8
		for r := 0; r < sub.Rows(); r++ {
			for c0 := 0; c0 < sub.Cols(); c0 += colsPer {
				c1 := min(c0+colsPer, sub.Cols())
				chunk := Patch{
					RLo: sub.RLo + r, RHi: sub.RLo + r,
					CLo: sub.CLo + c0, CHi: sub.CLo + c1 - 1,
				}
				data := make([]byte, chunk.Elems()*8)
				packRow(data, buf, off+r*ld+c0, chunk.Cols())
				h := gaHdr{op: op, handle: uint16(a.handle), sub: chunk, alpha: alpha}
				if err := b.request(ctx, owner, h, data); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rowsPer := b.maxDataBytes() / rowBytes
	for r0 := 0; r0 < sub.Rows(); r0 += rowsPer {
		r1 := min(r0+rowsPer, sub.Rows())
		chunk := Patch{RLo: sub.RLo + r0, RHi: sub.RLo + r1 - 1, CLo: sub.CLo, CHi: sub.CHi}
		data := make([]byte, chunk.Elems()*8)
		packPatch(data, buf, ld, off+r0*ld, chunk.Rows(), chunk.Cols())
		h := gaHdr{op: op, handle: uint16(a.handle), sub: chunk, alpha: alpha}
		if err := b.request(ctx, owner, h, data); err != nil {
			return err
		}
	}
	return nil
}

// --- get ----------------------------------------------------------------------

func (b *mplBackend) get(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	h := gaHdr{op: gaGetReq, handle: uint16(a.handle), sub: sub}
	if err := b.request(ctx, owner, h, nil); err != nil {
		return err
	}
	reply := make([]byte, sub.Elems()*8)
	if _, err := b.t.Recv(ctx, owner, tagGARep, reply); err != nil {
		return err
	}
	if sub.Contiguous() {
		// 1-D: decode straight into the user buffer — "the MPL
		// implementation is able to avoid one memory copy" (§5.4).
		unpackRow(buf, off, reply, sub.Cols())
		return nil
	}
	if c := b.cfg.copyCost(len(reply)); c > 0 {
		ctx.Sleep(c)
	}
	unpackPatch(buf, ld, off, reply, sub.Rows(), sub.Cols())
	return nil
}

// --- scatter / gather -----------------------------------------------------------

func (b *mplBackend) scatter(ctx exec.Context, a *Array, owner int, idx []int32, vals []float64) error {
	n := len(vals)
	data := make([]byte, n*16)
	for k := 0; k < n; k++ {
		binary.BigEndian.PutUint32(data[k*16:], uint32(idx[2*k]))
		binary.BigEndian.PutUint32(data[k*16+4:], uint32(idx[2*k+1]))
		putF64(data[k*16+8:], vals[k])
	}
	h := gaHdr{op: gaScatter, handle: uint16(a.handle), count: uint32(n)}
	return b.request(ctx, owner, h, data)
}

func (b *mplBackend) gather(ctx exec.Context, a *Array, owner int, idx []int32, out []float64) error {
	n := len(out)
	data := make([]byte, n*8)
	for k := 0; k < n; k++ {
		binary.BigEndian.PutUint32(data[k*8:], uint32(idx[2*k]))
		binary.BigEndian.PutUint32(data[k*8+4:], uint32(idx[2*k+1]))
	}
	h := gaHdr{op: gaGatherReq, handle: uint16(a.handle), count: uint32(n)}
	if err := b.request(ctx, owner, h, data); err != nil {
		return err
	}
	reply := make([]byte, n*8)
	if _, err := b.t.Recv(ctx, owner, tagGARep, reply); err != nil {
		return err
	}
	if c := b.cfg.copyCost(len(reply)); c > 0 {
		ctx.Sleep(c)
	}
	for k := range out {
		out[k] = getF64(reply[k*8:])
	}
	return nil
}

// --- counters / mutexes ------------------------------------------------------------

func (b *mplBackend) newCounter(ctx exec.Context, c *SharedCounter) error {
	// Server state is created lazily by id; the barrier only ensures all
	// ranks agree the counter exists before first use.
	return b.t.Barrier(ctx)
}

func (b *mplBackend) readInc(ctx exec.Context, c *SharedCounter, inc int64) (int64, error) {
	h := gaHdr{op: gaReadInc, handle: uint16(c.id)}
	h.sub.RLo = int(int32(inc >> 32))
	h.sub.RHi = int(int32(inc))
	if err := b.request(ctx, c.owner, h, nil); err != nil {
		return 0, err
	}
	reply := make([]byte, 8)
	if _, err := b.t.Recv(ctx, c.owner, tagGARep, reply); err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(reply)), nil
}

func (b *mplBackend) newMutexes(ctx exec.Context, m *MutexSet) error {
	return b.t.Barrier(ctx)
}

func (b *mplBackend) lock(ctx exec.Context, m *MutexSet, i int) error {
	h := gaHdr{op: gaLock, handle: uint16(m.id), count: uint32(i)}
	if err := b.request(ctx, m.mutexOwner(i), h, nil); err != nil {
		return err
	}
	// The grant arrives when the server hands us the mutex (immediately,
	// or after the current holder's unlock).
	grant := make([]byte, 1)
	_, err := b.t.Recv(ctx, m.mutexOwner(i), tagGARep, grant)
	return err
}

func (b *mplBackend) unlock(ctx exec.Context, m *MutexSet, i int) error {
	h := gaHdr{op: gaUnlock, handle: uint16(m.id), count: uint32(i)}
	return b.request(ctx, m.mutexOwner(i), h, nil)
}

// --- fence / barrier / local --------------------------------------------------------

// fence flushes every touched destination with a ping: MPL delivery and
// server processing are in order, so the ping's reply proves all earlier
// requests were applied.
func (b *mplBackend) fence(ctx exec.Context) error {
	for r := 0; r < b.n(); r++ {
		if !b.touched[r] {
			continue
		}
		h := gaHdr{op: gaFencePing}
		if err := b.request(ctx, r, h, nil); err != nil {
			return err
		}
		pong := make([]byte, 1)
		if _, err := b.t.Recv(ctx, r, tagGARep, pong); err != nil {
			return err
		}
		b.touched[r] = false
	}
	return nil
}

func (b *mplBackend) barrier(ctx exec.Context) error { return b.t.Barrier(ctx) }

func (b *mplBackend) localRead(a *Array, i, j int) float64 {
	in := b.info(a.handle)
	return getF64(in.block[blockIndex(in.local, i, j):])
}

func (b *mplBackend) localWrite(a *Array, i, j int, v float64) {
	in := b.info(a.handle)
	putF64(in.block[blockIndex(in.local, i, j):], v)
}

// --- the request server --------------------------------------------------------------

// serve is the rcvncall handler (§5.2): it runs in the modelled interrupt
// context, applies one request, replies if needed, and re-posts itself.
// Because the re-post happens at the end, handler executions are strictly
// sequential in arrival order — which is also what makes accumulate atomic
// on the baseline (the role lockrnc played in the original).
func (b *mplBackend) serve(ctx exec.Context, st mpi.Status) {
	h := decodeGaHdr(b.serveBuf)
	data := b.serveBuf[gaHdrSize:st.Len]
	src := st.Source

	switch h.op {
	case gaPut:
		in := b.info(int(h.handle))
		// The handler copy from the message buffer into local memory
		// (§5.2: "the handler copied the data from the message buffer
		// to local memory").
		if c := b.cfg.copyCost(len(data)); c > 0 {
			ctx.Sleep(c)
		}
		storeInto(in.block, in.local, h.sub, data)

	case gaAcc:
		in := b.info(int(h.handle))
		if c := b.cfg.copyCost(len(data)); c > 0 {
			ctx.Sleep(c)
		}
		accumulateInto(in.block, in.local, h.sub, data, h.alpha)

	case gaGetReq:
		in := b.info(int(h.handle))
		reply := make([]byte, h.sub.Elems()*8)
		// Copy into the reply message buffer (§5.2: "copied data from
		// the local memory ... to another message buffer").
		if c := b.cfg.copyCost(len(reply)); c > 0 {
			ctx.Sleep(c)
		}
		loadFrom(reply, in.block, in.local, h.sub)
		b.reply(ctx, src, reply)

	case gaScatter:
		in := b.info(int(h.handle))
		if c := b.cfg.copyCost(len(data)); c > 0 {
			ctx.Sleep(c)
		}
		for k := 0; k < int(h.count); k++ {
			i := int(int32(binary.BigEndian.Uint32(data[k*16:])))
			j := int(int32(binary.BigEndian.Uint32(data[k*16+4:])))
			putF64(in.block[blockIndex(in.local, i, j):], getF64(data[k*16+8:]))
		}

	case gaGatherReq:
		in := b.info(int(h.handle))
		reply := make([]byte, int(h.count)*8)
		if c := b.cfg.copyCost(len(reply)); c > 0 {
			ctx.Sleep(c)
		}
		for k := 0; k < int(h.count); k++ {
			i := int(int32(binary.BigEndian.Uint32(data[k*8:])))
			j := int(int32(binary.BigEndian.Uint32(data[k*8+4:])))
			copy(reply[k*8:], in.block[blockIndex(in.local, i, j):blockIndex(in.local, i, j)+8])
		}
		b.reply(ctx, src, reply)

	case gaReadInc:
		id := int(h.handle)
		if b.counters[id] == nil {
			v := int64(0)
			b.counters[id] = &v
		}
		inc := int64(h.sub.RLo)<<32 | int64(uint32(int32(h.sub.RHi)))
		old := *b.counters[id]
		*b.counters[id] += inc
		reply := make([]byte, 8)
		binary.BigEndian.PutUint64(reply, uint64(old))
		b.reply(ctx, src, reply)

	case gaLock:
		key := [2]int{int(h.handle), int(h.count)}
		ms := b.mutexes[key]
		if ms == nil {
			ms = &mutexState{}
			b.mutexes[key] = ms
		}
		if !ms.held {
			ms.held = true
			b.reply(ctx, src, []byte{1})
		} else {
			ms.queue = append(ms.queue, src)
		}

	case gaUnlock:
		key := [2]int{int(h.handle), int(h.count)}
		ms := b.mutexes[key]
		if ms == nil || !ms.held {
			panic(fmt.Sprintf("ga: rank %d: unlock of free mutex %v", b.self(), key))
		}
		if len(ms.queue) > 0 {
			next := ms.queue[0]
			ms.queue = ms.queue[1:]
			b.reply(ctx, next, []byte{1})
		} else {
			ms.held = false
		}

	case gaFencePing:
		b.reply(ctx, src, []byte{1})

	default:
		panic(fmt.Sprintf("ga: rank %d: bad MPL request op %d", b.self(), h.op))
	}

	// Re-post the service receive: the next request becomes eligible
	// only now, serializing handlers.
	if err := b.t.Rcvncall(ctx, mpi.AnySource, tagGAReq, b.serveBuf, b.serve); err != nil {
		panic(fmt.Sprintf("ga: rank %d: rcvncall repost: %v", b.self(), err))
	}
}

func (b *mplBackend) reply(ctx exec.Context, dst int, data []byte) {
	if err := b.t.Send(ctx, dst, tagGARep, data); err != nil {
		panic(fmt.Sprintf("ga: rank %d: reply to %d: %v", b.self(), dst, err))
	}
}
