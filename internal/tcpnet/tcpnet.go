// Package tcpnet is the real-network transport: a full mesh of TCP
// connections carrying length-prefixed packets, implementing
// fabric.Transport. It lets the LAPI and MPI libraries run as actual
// distributed programs (one process per task, or several tasks in one
// process for local experimentation).
//
// TCP gives reliable in-order delivery — a strict superset of the
// guarantees the protocols need (they tolerate reordering). Latency
// fidelity to the SP switch is intentionally out of scope: the cost models
// are zeroed on this transport (lapi.ZeroCost / mpi.ZeroCost) and real CPU
// and network time is spent instead.
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"golapi/internal/exec"
	"golapi/internal/fabric"
)

// DefaultMaxPacket is the default packet budget presented to protocols.
// Larger than the SP switch's 1 KB: TCP has no hardware packet size, and
// bigger packets amortize per-frame overhead.
const DefaultMaxPacket = 64 * 1024

// Frame buffers are pooled in three size classes so the read and write hot
// paths allocate nothing in steady state. The small class is the fast path
// for the ack/counter control frames that dominate packet counts; the big
// class matches DefaultMaxPacket. The pool is package-level and shared by
// every endpoint in the process: buffers sent between in-process ranks
// recirculate instead of ping-ponging through the garbage collector.
const (
	classSmall = 256
	classMid   = 4096
	classBig   = DefaultMaxPacket
	poolDepth  = 256 // max retained buffers per class
)

type bufPool struct {
	mu      sync.Mutex
	classes [3][][]byte
}

var pool bufPool

// classOf maps a requested length to a class index, or -1 when the request
// is bigger than the largest class.
func classOf(n int) int {
	switch {
	case n <= classSmall:
		return 0
	case n <= classMid:
		return 1
	case n <= classBig:
		return 2
	}
	return -1
}

// classCap is the buffer capacity of each class, which is also how put
// recognizes a poolable buffer.
var classCap = [3]int{classSmall, classMid, classBig}

// get returns a buffer of length n with unspecified contents.
func (p *bufPool) get(n int) []byte {
	ci := classOf(n)
	if ci < 0 {
		return make([]byte, n)
	}
	p.mu.Lock()
	if s := p.classes[ci]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		p.classes[ci] = s[:len(s)-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, classCap[ci])
}

// put recycles b if it came from the pool. Foreign buffers (caller-built
// slices handed to Send) are recognized by capacity and left to the GC.
func (p *bufPool) put(b []byte) {
	for ci, c := range classCap {
		if cap(b) != c {
			continue
		}
		b = b[:0]
		p.mu.Lock()
		if len(p.classes[ci]) < poolDepth {
			p.classes[ci] = append(p.classes[ci], b)
		}
		p.mu.Unlock()
		return
	}
}

// Endpoint is one task's attachment to the TCP mesh.
type Endpoint struct {
	rt        *exec.RealRuntime
	self, n   int
	maxPacket int

	// dispatchFn is the dispatch method value, bound once so the read loop
	// does not allocate a closure per frame.
	dispatchFn func(src int, data []byte)

	mu         sync.Mutex
	deliver    func(src int, data []byte)
	pending    []pendingPkt // frames that arrived before SetDeliver
	conns      []*conn      // by peer rank; conns[self] == nil
	closed     bool
	directDone func(src int, token uint64)
	posted     map[postKey]*region
	regionFree []*region // retired region records, reused by RecvInto
	wg         sync.WaitGroup
}

type pendingPkt struct {
	src  int
	data []byte
}

// Direct-lane wire format: a frame whose 4-byte length prefix has the high
// bit set carries (8-byte token, 4-byte offset, payload) and lands straight
// in the region pre-posted via RecvInto — the payload bytes never touch the
// frame pool on either side. The length counts subheader + payload, so a
// direct frame may exceed MaxPacket (writev and ReadFull handle any size).
const (
	directFlag      = 1 << 31
	directSubheader = 12
)

// postKey identifies a pre-posted landing region: the sending peer plus the
// protocol's transfer token.
type postKey struct {
	src   int
	token uint64
}

// region is one pre-posted landing buffer. recvd tracks direct bytes landed
// so far; the region retires (and the done upcall fires) at len(buf).
type region struct {
	buf   []byte
	recvd int
}

// conn is one peer connection with an outbound writer goroutine, so sends
// never block the caller's runtime lock.
type conn struct {
	c   net.Conn
	out chan outFrame
}

type outFrame struct {
	data []byte
	sent func()
	// direct marks a zero-copy frame: data is BORROWED from the caller
	// (never returned to the pool) and goes on the wire behind a
	// directFlag length prefix and (token, 0) subheader.
	direct bool
	token  uint64
}

var _ fabric.Transport = (*Endpoint)(nil)

// Dial builds the mesh for task self of n, where addrs[i] is task i's
// listen address. Each endpoint accepts connections from lower ranks and
// dials higher ranks, then handshakes with a 4-byte rank exchange. All
// endpoints must be constructed concurrently (their Dial calls
// rendezvous). Bring-up is bounded: a higher rank gives up dialing after
// the dial-retry window, a lower rank that does not connect and say hello
// within bringUpBudget fails the accept, and either way Dial returns an
// error instead of waiting for a rank that is not coming.
func Dial(rt *exec.RealRuntime, self, n int, addrs []string, maxPacket int) (*Endpoint, error) {
	return dialWith(rt, self, n, addrs, maxPacket, bringUpBudget)
}

// dialWith is Dial with the bring-up budget exposed for tests: how long
// this rank waits for its lower ranks to connect and say hello before the
// mesh fails.
func dialWith(rt *exec.RealRuntime, self, n int, addrs []string, maxPacket int, budget time.Duration) (*Endpoint, error) {
	if maxPacket <= 0 {
		maxPacket = DefaultMaxPacket
	}
	e := &Endpoint{
		rt:        rt,
		self:      self,
		n:         n,
		maxPacket: maxPacket,
		conns:     make([]*conn, n),
		posted:    make(map[postKey]*region),
	}
	e.dispatchFn = e.dispatch

	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("tcpnet: rank %d listen: %w", self, err)
	}
	defer ln.Close()
	// A lower rank that failed never connects: bound the accepts and the
	// hello reads so this rank fails too instead of waiting for ever.
	deadline := wallDeadline(budget)
	if err := ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
		return nil, fmt.Errorf("tcpnet: rank %d listen: %w", self, err)
	}

	errs := make(chan error, n)
	var wg sync.WaitGroup

	// Accept from lower ranks.
	for i := 0; i < self; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := ln.Accept()
			if err != nil {
				errs <- err
				return
			}
			peer, err := readHello(c, n, deadline)
			if err != nil {
				c.Close()
				errs <- err
				return
			}
			e.mu.Lock()
			e.conns[peer] = newConn(c)
			e.mu.Unlock()
		}()
	}
	// Dial higher ranks.
	for i := self + 1; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialRetry(addrs[i])
			if err != nil {
				errs <- err
				return
			}
			var hello [4]byte
			binary.BigEndian.PutUint32(hello[:], uint32(self))
			if _, err := c.Write(hello[:]); err != nil {
				errs <- err
				return
			}
			e.mu.Lock()
			e.conns[i] = newConn(c)
			e.mu.Unlock()
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		for _, cn := range e.conns {
			if cn != nil {
				cn.c.Close()
			}
		}
		return nil, fmt.Errorf("tcpnet: rank %d mesh: %w", self, err)
	default:
	}

	// Start reader and writer loops.
	for peer, cn := range e.conns {
		if cn == nil {
			continue
		}
		e.wg.Add(2)
		go e.readLoop(peer, cn)
		go e.writeLoop(cn)
	}
	return e, nil
}

// readHello reads a lower rank's 4-byte hello, waiting no later than
// deadline, and returns the rank it names.
func readHello(c net.Conn, n int, deadline time.Time) (int, error) {
	var hello [4]byte
	if err := c.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return 0, err
	}
	peer := int(binary.BigEndian.Uint32(hello[:]))
	if peer < 0 || peer >= n {
		return 0, fmt.Errorf("tcpnet: bad hello rank %d", peer)
	}
	// readLoop blocks on this connection for as long as the mesh lives.
	return peer, c.SetReadDeadline(time.Time{})
}

// Dial-retry policy during mesh bring-up. Peers start their listeners
// concurrently, so early refusals are expected; backoff doubles from
// dialRetryBase to dialRetryCap (exponential, capped) so a slow peer is
// waited for without hammering the port, and dialRetryAttempts bounds the
// total wait (~3.3 s of backoff with the defaults) so a peer that never
// comes up turns into an error instead of an infinite retry loop.
const (
	dialRetryAttempts = 24
	dialRetryBase     = 1 * time.Millisecond
	dialRetryCap      = 200 * time.Millisecond
)

// bringUpBudget is how long an accepting rank waits for its lower ranks:
// two of their dial-retry windows, so a live peer whose first dials were
// refused still connects in time, and one that failed fails this rank
// within seconds.
var bringUpBudget = 2 * retryWindow(dialRetryAttempts, dialRetryBase, dialRetryCap)

// Mesh bring-up is the one place the transport reads the wall clock: it
// runs on raw goroutines before any activity exists, and the TCP transport
// never runs simulated. The ignore on the first helper's line also covers
// the second's.
func wallSleep(d time.Duration)              { time.Sleep(d) } //lapivet:ignore simdeterminism bring-up backoff and deadlines are wall-clock; the TCP transport never runs simulated
func wallDeadline(d time.Duration) time.Time { return time.Now().Add(d) }

// retryWindow is the total backoff dialRetryWith sleeps before giving up.
func retryWindow(attempts int, base, cap time.Duration) time.Duration {
	var total time.Duration
	for i, b := 0, base; i < attempts-1; i++ {
		total += b
		b = min(2*b, cap)
	}
	return total
}

func dialRetry(addr string) (net.Conn, error) {
	return dialRetryWith(addr, dialRetryAttempts, dialRetryBase, dialRetryCap)
}

// dialRetryWith is dialRetry with the policy knobs exposed for tests.
func dialRetryWith(addr string, attempts int, base, cap time.Duration) (net.Conn, error) {
	var lastErr error
	backoff := base
	for i := 0; i < attempts; i++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if i == attempts-1 {
			break // don't sleep after the final attempt
		}
		wallSleep(backoff)
		backoff *= 2
		if backoff > cap {
			backoff = cap
		}
	}
	return nil, fmt.Errorf("tcpnet: dial %s: gave up after %d attempts: %w", addr, attempts, lastErr)
}

func newConn(c net.Conn) *conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &conn{c: c, out: make(chan outFrame, 1024)}
}

// Self implements fabric.Transport.
func (e *Endpoint) Self() int { return e.self }

// N implements fabric.Transport.
func (e *Endpoint) N() int { return e.n }

// MaxPacket implements fabric.Transport.
func (e *Endpoint) MaxPacket() int { return e.maxPacket }

// Alloc implements fabric.Transport: a pooled buffer for an outbound
// packet, recycled by the write loop after the frame hits the wire.
func (e *Endpoint) Alloc(n int) []byte { return pool.get(n) }

// Release implements fabric.Transport: returns a delivered frame to the
// pool. The caller must not touch pkt afterwards.
func (e *Endpoint) Release(pkt []byte) { pool.put(pkt) }

// Contract implements fabric.Transport: both directions are pooled.
func (e *Endpoint) Contract() fabric.Contract {
	return fabric.Contract{PooledDelivery: true, PooledSend: true}
}

// SetDirectDone implements fabric.Transport.
func (e *Endpoint) SetDirectDone(fn func(src int, token uint64)) {
	e.mu.Lock()
	e.directDone = fn
	e.mu.Unlock()
}

// RecvInto implements fabric.Transport: posts buf as the landing region for
// direct frames from (src, token). The protocol's control handshake orders
// this before the matching SendDirect, so a frame never races its region.
func (e *Endpoint) RecvInto(src int, token uint64, buf []byte) {
	fabric.CheckRank(src, e.n)
	e.mu.Lock()
	r := e.newRegionLocked(buf)
	e.posted[postKey{src: src, token: token}] = r
	e.mu.Unlock()
}

// newRegionLocked takes a region record from the freelist (e.mu held).
func (e *Endpoint) newRegionLocked(buf []byte) *region {
	if n := len(e.regionFree); n > 0 {
		r := e.regionFree[n-1]
		e.regionFree[n-1] = nil
		e.regionFree = e.regionFree[:n-1]
		r.buf, r.recvd = buf, 0
		return r
	}
	return &region{buf: buf}
}

// SendDirect implements fabric.Transport: the payload rides the peer's
// writer as a single borrowed frame — writev gathers it straight from the
// caller's slice, and the write loop never returns it to the pool.
func (e *Endpoint) SendDirect(ctx exec.Context, dst int, token uint64, payload []byte, sent func()) {
	fabric.CheckRank(dst, e.n)
	if dst == e.self {
		// Loopback: land the bytes in the posted region directly. One copy
		// (there is no wire to elide it on) on a path protocols rarely take.
		e.rt.After(0, func() {
			e.mu.Lock()
			k := postKey{src: e.self, token: token}
			r := e.posted[k]
			var done func(src int, token uint64)
			if r != nil {
				copy(r.buf, payload)
				delete(e.posted, k)
				r.buf = nil
				e.regionFree = append(e.regionFree, r)
				done = e.directDone
			}
			e.mu.Unlock()
			if sent != nil {
				sent()
			}
			if done != nil {
				done(e.self, token)
			}
		})
		return
	}
	e.mu.Lock()
	cn := e.conns[dst]
	closed := e.closed
	e.mu.Unlock()
	if closed || cn == nil {
		return // drops after close, like a downed link
	}
	cn.out <- outFrame{data: payload, sent: sent, direct: true, token: token}
}

// SetDeliver implements fabric.Transport, flushing any frames that raced
// ahead of task construction.
func (e *Endpoint) SetDeliver(fn func(src int, data []byte)) {
	e.mu.Lock()
	pending := e.pending
	e.pending = nil
	e.deliver = fn
	e.mu.Unlock()
	for _, p := range pending {
		e.rt.Post(func() { fn(p.src, p.data) })
	}
}

// Send implements fabric.Transport. The frame is queued on the peer's
// writer; sent fires (serialized on the runtime) once it has been written
// to the socket.
func (e *Endpoint) Send(ctx exec.Context, dst int, data []byte, sent func()) {
	fabric.CheckRank(dst, e.n)
	if len(data) > e.maxPacket {
		panic(fmt.Sprintf("tcpnet: packet of %d bytes exceeds MaxPacket=%d", len(data), e.maxPacket))
	}
	if dst == e.self {
		// Loopback without touching the network and without copying: Send
		// owns data, and the receiver returns it to the pool via Release.
		// Deliver asynchronously to preserve Send's non-blocking contract.
		e.rt.After(0, func() {
			if sent != nil {
				sent()
			}
			e.dispatch(e.self, data)
		})
		return
	}
	e.mu.Lock()
	cn := e.conns[dst]
	closed := e.closed
	e.mu.Unlock()
	if closed || cn == nil {
		return // drops after close, like a downed link
	}
	cn.out <- outFrame{data: data, sent: sent}
}

// writeBatch is the most frames one writev gathers. A pooled frame
// contributes two iovec entries (length prefix + payload); a direct frame
// contributes three (prefix + subheader + borrowed payload).
const writeBatch = 16

func (e *Endpoint) writeLoop(cn *conn) {
	defer e.wg.Done()
	// Closing the socket here — after the outbound queue has drained —
	// guarantees frames queued before Close (e.g. a final barrier
	// release) are flushed, and unblocks the peer-facing read loop.
	defer cn.c.Close()
	var (
		lens   [writeBatch][4]byte
		subs   [writeBatch][directSubheader]byte
		frames [writeBatch]outFrame
		iovBuf [3 * writeBatch][]byte
		iov    net.Buffers // declared here: WriteTo takes its address, so an in-loop variable would heap-escape per batch
	)
	for f := range cn.out {
		// Gather whatever else is already queued, then emit the batch as a
		// single writev: one syscall per batch instead of two per frame,
		// and no cross-frame coalescing latency.
		frames[0] = f
		nf := 1
	gather:
		for nf < writeBatch {
			select {
			case f2, ok := <-cn.out:
				if !ok {
					break gather // closed: flush this batch, outer loop exits
				}
				frames[nf] = f2
				nf++
			default:
				break gather // queue empty: never delay a frame to batch
			}
		}
		// WriteTo consumes the Buffers slice it is handed, so build each
		// batch over a fixed backing array rather than reusing the slice
		// header (reuse after consumption would reallocate every batch).
		iov = iovBuf[:0]
		for i := 0; i < nf; i++ {
			if frames[i].direct {
				binary.BigEndian.PutUint32(lens[i][:], directFlag|uint32(directSubheader+len(frames[i].data)))
				binary.BigEndian.PutUint64(subs[i][0:8], frames[i].token)
				binary.BigEndian.PutUint32(subs[i][8:12], 0)
				iov = append(iov, lens[i][:], subs[i][:], frames[i].data)
			} else {
				binary.BigEndian.PutUint32(lens[i][:], uint32(len(frames[i].data)))
				iov = append(iov, lens[i][:], frames[i].data)
			}
		}
		nv := len(iov)
		if _, err := iov.WriteTo(cn.c); err != nil {
			// The batch dies with the connection, but pooled frame buffers
			// must still go back (the senders handed ownership over). Direct
			// payloads are borrowed, never pooled: leave them to the caller.
			for i := 0; i < nf; i++ {
				if !frames[i].direct {
					pool.put(frames[i].data)
				}
				frames[i] = outFrame{}
			}
			return
		}
		clear(iovBuf[:nv])
		for i := 0; i < nf; i++ {
			if !frames[i].direct {
				pool.put(frames[i].data)
			}
			if frames[i].sent != nil {
				e.rt.Post(frames[i].sent)
			}
			frames[i] = outFrame{}
		}
	}
}

func (e *Endpoint) readLoop(peer int, cn *conn) {
	defer e.wg.Done()
	var lenBuf [4]byte
	var sub [directSubheader]byte // hoisted: ReadFull's interface call would heap-escape a per-call array
	for {
		if _, err := io.ReadFull(cn.c, lenBuf[:]); err != nil {
			return
		}
		raw := binary.BigEndian.Uint32(lenBuf[:])
		if raw&directFlag != 0 {
			if !e.readDirect(peer, cn, sub[:], int(raw&^directFlag)) {
				return
			}
			continue
		}
		n := raw
		if int(n) > e.maxPacket {
			return // corrupt stream; drop the connection
		}
		data := pool.get(int(n))
		if _, err := io.ReadFull(cn.c, data); err != nil {
			pool.put(data)
			return
		}
		// The receiver owns data until it calls Release (Contract).
		e.rt.PostPacket(e.dispatchFn, peer, data)
	}
}

// readDirect lands one direct frame straight into its pre-posted region:
// subheader, then a ReadFull whose destination IS the user buffer — the
// payload never touches the frame pool. Returns false to drop the
// connection (missing region or out-of-bounds placement means a corrupt or
// misbehaving peer; the causal RTS/CTS handshake rules those out for
// well-formed traffic).
func (e *Endpoint) readDirect(peer int, cn *conn, sub []byte, n int) bool {
	if n < directSubheader {
		return false
	}
	if _, err := io.ReadFull(cn.c, sub); err != nil {
		return false
	}
	token := binary.BigEndian.Uint64(sub[0:8])
	off := int(binary.BigEndian.Uint32(sub[8:12]))
	plen := n - directSubheader
	k := postKey{src: peer, token: token}
	e.mu.Lock()
	r := e.posted[k]
	var buf []byte
	if r != nil {
		// Snapshot the landing buffer while holding mu: the loopback
		// SendDirect timer nils and recycles r.buf under the same lock, so
		// the field must not be re-read after the unlock.
		buf = r.buf
	}
	e.mu.Unlock()
	if r == nil || off < 0 || off+plen > len(buf) {
		return false
	}
	if _, err := io.ReadFull(cn.c, buf[off:off+plen]); err != nil {
		return false
	}
	e.mu.Lock()
	r.recvd += plen
	complete := r.recvd >= len(buf)
	var done func(src int, token uint64)
	if complete {
		delete(e.posted, k)
		r.buf = nil
		e.regionFree = append(e.regionFree, r)
		done = e.directDone
	}
	e.mu.Unlock()
	if complete && done != nil {
		// Serialized on the runtime; the mutex hand-off orders the payload
		// writes above before any reader that observes the completion.
		e.rt.PostDone(done, peer, token)
	}
	return true
}

// dispatch hands a frame to the deliver callback, or stashes it if the
// callback is not installed yet. Runs serialized on the runtime.
func (e *Endpoint) dispatch(src int, data []byte) {
	e.mu.Lock()
	fn := e.deliver
	if fn == nil {
		e.pending = append(e.pending, pendingPkt{src: src, data: data})
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	fn(src, data)
}

// Close implements fabric.Transport: tears down the mesh.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := append([]*conn(nil), e.conns...)
	e.mu.Unlock()
	// Closing the queue lets each writer drain its backlog and then close
	// its socket; nothing already queued is lost.
	for _, cn := range conns {
		if cn != nil {
			close(cn.out)
		}
	}
	return nil
}

// Drain blocks until all connection loops have exited: the outbound
// queues have been flushed onto the wire and every socket is closed. Call
// it after Close, before process exit, so queued frames (e.g. a final
// barrier release to a peer) are not lost.
func (e *Endpoint) Drain() { e.wg.Wait() }

// LocalAddrs returns n distinct loopback addresses with OS-assigned free
// ports, for single-machine clusters.
func LocalAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}
