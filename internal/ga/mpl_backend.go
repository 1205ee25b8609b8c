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

	// Request messages and reply buffers, borrowed per operation. Send
	// and Recv are blocking, so each goes back as soon as its call
	// returns; the request server's replies can share the list because
	// serve runs one request at a time.
	scratch scratch
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
	if cfg.MaxRequestBytes < gaHdrSize+scatterRecord {
		// Every request must carry at least one record or one element.
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

// newRequest borrows a request message: h encoded, then n bytes for the
// caller to pack its data into.
func (b *mplBackend) newRequest(h gaHdr, n int) []byte {
	msg := b.scratch.borrow(gaHdrSize + n)
	h.encode(msg)
	return msg
}

// send ships one GA request message and marks the destination for
// fencing. Header and data travel packed together, the copy MPL's progress
// rules make unavoidable (§5.4): it is charged here, although the data was
// packed straight into msg.
func (b *mplBackend) send(ctx exec.Context, owner int, msg []byte) error {
	b.cfg.charge(ctx, len(msg))
	b.touched[owner] = true
	if err := b.t.Send(ctx, owner, tagGAReq, msg); err != nil {
		return err
	}
	b.scratch.give(msg)
	return nil
}

// request sends a request that carries no data.
func (b *mplBackend) request(ctx exec.Context, owner int, h gaHdr) error {
	return b.send(ctx, owner, b.newRequest(h, 0))
}

// recvReply receives an n-byte reply from src into a borrowed buffer; the
// caller gives it back.
func (b *mplBackend) recvReply(ctx exec.Context, src, n int) ([]byte, error) {
	reply := b.scratch.borrow(n)
	if _, err := b.t.Recv(ctx, src, tagGARep, reply); err != nil {
		return nil, err
	}
	return reply, nil
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
				h := gaHdr{op: op, handle: uint16(a.handle), sub: chunk, alpha: alpha}
				msg := b.newRequest(h, chunk.Elems()*8)
				packRow(msg[gaHdrSize:], buf, off+r*ld+c0, chunk.Cols())
				if err := b.send(ctx, owner, msg); err != nil {
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
		h := gaHdr{op: op, handle: uint16(a.handle), sub: chunk, alpha: alpha}
		msg := b.newRequest(h, chunk.Elems()*8)
		packPatch(msg[gaHdrSize:], buf, ld, off+r0*ld, chunk.Rows(), chunk.Cols())
		if err := b.send(ctx, owner, msg); err != nil {
			return err
		}
	}
	return nil
}

// --- get ----------------------------------------------------------------------

func (b *mplBackend) get(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld, off int) error {
	h := gaHdr{op: gaGetReq, handle: uint16(a.handle), sub: sub}
	if err := b.request(ctx, owner, h); err != nil {
		return err
	}
	reply, err := b.recvReply(ctx, owner, sub.Elems()*8)
	if err != nil {
		return err
	}
	if sub.Contiguous() {
		// 1-D: decode straight into the user buffer — "the MPL
		// implementation is able to avoid one memory copy" (§5.4).
		unpackRow(buf, off, reply, sub.Cols())
	} else {
		b.cfg.charge(ctx, len(reply))
		unpackPatch(buf, ld, off, reply, sub.Rows(), sub.Cols())
	}
	b.scratch.give(reply)
	return nil
}

// --- scatter / gather -----------------------------------------------------------

// scatter and gather split their subscripts into requests of at most
// maxDataBytes, as sendPatches splits a put; gather merges the replies.
func (b *mplBackend) scatter(ctx exec.Context, a *Array, owner int, idx []int32, vals []float64) error {
	per := b.maxDataBytes() / scatterRecord
	for k0 := 0; k0 < len(vals); k0 += per {
		part := vals[k0:min(k0+per, len(vals))]
		msg := b.newRequest(gaHdr{op: gaScatter, handle: uint16(a.handle), count: uint32(len(part))}, len(part)*scatterRecord)
		packSubscripts(msg[gaHdrSize:], idx[2*k0:2*(k0+len(part))], part)
		if err := b.send(ctx, owner, msg); err != nil {
			return err
		}
	}
	return nil
}

func (b *mplBackend) gather(ctx exec.Context, a *Array, owner int, idx []int32, out []float64) error {
	per := b.maxDataBytes() / gatherRecord
	for k0 := 0; k0 < len(out); k0 += per {
		part := out[k0:min(k0+per, len(out))]
		msg := b.newRequest(gaHdr{op: gaGatherReq, handle: uint16(a.handle), count: uint32(len(part))}, len(part)*gatherRecord)
		packSubscripts(msg[gaHdrSize:], idx[2*k0:2*(k0+len(part))], nil)
		if err := b.send(ctx, owner, msg); err != nil {
			return err
		}
		reply, err := b.recvReply(ctx, owner, len(part)*8)
		if err != nil {
			return err
		}
		b.cfg.charge(ctx, len(reply))
		unpackRow(part, 0, reply, len(part))
		b.scratch.give(reply)
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
	if err := b.request(ctx, c.owner, h); err != nil {
		return 0, err
	}
	reply, err := b.recvReply(ctx, c.owner, 8)
	if err != nil {
		return 0, err
	}
	v := int64(binary.BigEndian.Uint64(reply))
	b.scratch.give(reply)
	return v, nil
}

func (b *mplBackend) newMutexes(ctx exec.Context, m *MutexSet) error {
	return b.t.Barrier(ctx)
}

func (b *mplBackend) lock(ctx exec.Context, m *MutexSet, i int) error {
	h := gaHdr{op: gaLock, handle: uint16(m.id), count: uint32(i)}
	if err := b.request(ctx, m.mutexOwner(i), h); err != nil {
		return err
	}
	// The grant arrives when the server hands us the mutex (immediately,
	// or after the current holder's unlock).
	grant, err := b.recvReply(ctx, m.mutexOwner(i), 1)
	if err != nil {
		return err
	}
	b.scratch.give(grant)
	return nil
}

func (b *mplBackend) unlock(ctx exec.Context, m *MutexSet, i int) error {
	h := gaHdr{op: gaUnlock, handle: uint16(m.id), count: uint32(i)}
	return b.request(ctx, m.mutexOwner(i), h)
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
		if err := b.request(ctx, r, gaHdr{op: gaFencePing}); err != nil {
			return err
		}
		pong, err := b.recvReply(ctx, r, 1)
		if err != nil {
			return err
		}
		b.scratch.give(pong)
		b.touched[r] = false
	}
	return nil
}

func (b *mplBackend) barrier(ctx exec.Context) error { return b.t.Barrier(ctx) }

func (b *mplBackend) block(a *Array) (Patch, []byte) {
	in := b.info(a.handle)
	return in.local, in.block
}

// --- the request server --------------------------------------------------------------

// serve is the rcvncall handler (§5.2): it runs in the modelled interrupt
// context, applies one request (array requests through apply), replies if
// needed, and re-posts itself.
// Because the re-post happens at the end, handler executions are strictly
// sequential in arrival order — which is also what makes accumulate atomic
// on the baseline (the role lockrnc played in the original).
func (b *mplBackend) serve(ctx exec.Context, st mpi.Status) {
	h := decodeGaHdr(b.serveBuf)
	src := st.Source

	switch h.op {
	case gaReadInc:
		id := int(h.handle)
		if b.counters[id] == nil {
			v := int64(0)
			b.counters[id] = &v
		}
		inc := int64(h.sub.RLo)<<32 | int64(uint32(int32(h.sub.RHi)))
		old := *b.counters[id]
		*b.counters[id] += inc
		reply := b.scratch.borrow(8)
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
			b.grant(ctx, src)
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
			b.grant(ctx, next)
		} else {
			ms.held = false
		}

	case gaFencePing:
		b.grant(ctx, src)

	default:
		in := b.info(int(h.handle))
		var reply []byte
		if b.cfg.apply(ctx, &h, b.serveBuf[gaHdrSize:st.Len], in.block, in.local, func(n int) []byte {
			reply = b.scratch.borrow(n)
			return reply
		}) {
			b.reply(ctx, src, reply)
		}
	}

	// Re-post the service receive: the next request becomes eligible
	// only now, serializing handlers.
	if err := b.t.Rcvncall(ctx, mpi.AnySource, tagGAReq, b.serveBuf, b.serve); err != nil {
		panic(fmt.Sprintf("ga: rank %d: rcvncall repost: %v", b.self(), err))
	}
}

// reply sends a reply built in a borrowed buffer and gives the buffer back.
func (b *mplBackend) reply(ctx exec.Context, dst int, data []byte) {
	if err := b.t.Send(ctx, dst, tagGARep, data); err != nil {
		panic(fmt.Sprintf("ga: rank %d: reply to %d: %v", b.self(), dst, err))
	}
	b.scratch.give(data)
}

// grant sends the one-byte reply of a lock grant or a fence ping.
func (b *mplBackend) grant(ctx exec.Context, dst int) {
	one := b.scratch.borrow(1)
	one[0] = 1
	b.reply(ctx, dst, one)
}
