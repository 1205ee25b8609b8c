package gateway

// The session layer: one client connection = one reader goroutine, one
// dispatcher activity on the session's home rank, one writer goroutine.
//
//	reader ──PostArg──▶ dispatcher (serialized, may block on counters)
//	                        │ out chan (cap > window ≥ queued frames: never blocks)
//	                        ▼
//	                     writer ──▶ conn
//
// The reader owns framing and credit enforcement; the dispatcher owns
// protocol execution and response construction; the writer owns the
// socket and buffer release. Frame buffers (request payloads, response
// frames) come from the rank endpoint's pooled Alloc and are Released by
// whoever consumes them, with srv.frames counting the outstanding ones.
//
// Lifecycle: the reader always exits first (socket error, protocol
// violation, or server close severing the conn). Its parting Post marks
// the session closed; the dispatcher finishes the queue, closes out, and
// the writer closes the conn on its way out. Requests queued when the
// client vanishes are still executed — cheap, and it keeps the
// counter/buffer accounting on a single path.

import (
	"io"
	"net"
	"sync"
	"sync/atomic"

	"golapi/internal/exec"
	"golapi/internal/gateway/proto"
)

// request carries one parsed request through the session. Recycled via a
// per-session freelist so the steady-state hot path allocates nothing.
type request struct {
	h       proto.ReqHeader
	payload []byte // pooled; nil when the op carries none
	// protoErr marks the reader's parting error frame: respond
	// StatusProtocol with this request's seq.
	protoErr bool
	// create/open rendezvous state (set by the registry):
	done   bool
	status proto.Status
	value  uint64
	prev   int64 // Rmw landing slot
}

type session struct {
	srv  *Server
	rs   *rankState
	conn net.Conn
	out  chan []byte // response frames to the writer

	window      int32
	outstanding atomic.Int32 // requests posted, responses not yet taken off out by the writer

	enqueueFn func(arg any) // bound once: rt.PostArg(s.enqueueFn, req)

	freeMu sync.Mutex
	free   []*request

	// hello is reader-private: Hello must be the session's first frame.
	hello bool

	// serialized state (home-rank lock):
	cond   exec.Cond
	q      []*request
	qHead  int
	closed bool // reader gone; drain and exit
}

func startSession(srv *Server, rs *rankState, conn net.Conn) {
	s := &session{
		srv:    srv,
		rs:     rs,
		conn:   conn,
		out:    make(chan []byte, srv.cfg.Window+2),
		window: int32(srv.cfg.Window),
		cond:   rs.rt.NewCond(),
	}
	s.enqueueFn = s.enqueue
	srv.sessions.Add(1)
	srv.sessWG.Add(2)
	go s.readLoop()
	go s.writeLoop()
	rs.rt.Go("gate-sess", s.dispatch)
}

func (s *session) getReq() *request {
	s.freeMu.Lock()
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free = s.free[:n-1]
		s.freeMu.Unlock()
		*r = request{}
		return r
	}
	s.freeMu.Unlock()
	return &request{}
}

func (s *session) putReq(r *request) {
	s.freeMu.Lock()
	if len(s.free) < int(s.window)+2 {
		s.free = append(s.free, r)
	}
	s.freeMu.Unlock()
}

// enqueue runs under the rank lock via PostArg.
func (s *session) enqueue(arg any) {
	s.q = append(s.q, arg.(*request))
	s.cond.Broadcast()
}

func (s *session) markClosed() {
	s.rs.rt.Post(func() {
		s.closed = true
		s.cond.Broadcast()
	})
}

// readLoop frames requests off the socket. It exits on the first socket
// error or protocol violation; well-framed garbage (bad shapes, unknown
// handles) is the dispatcher's problem and keeps the session alive.
func (s *session) readLoop() {
	defer s.srv.sessWG.Done()
	defer s.markClosed()
	var hdr [proto.HeaderSize]byte
	for {
		if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
			return // client gone (or server closing); no error frame possible
		}
		h, err := proto.ParseReqHeader(hdr[:])
		if err != nil {
			s.postProtoErr(h.Seq)
			return
		}
		plan := &proto.Plans[h.Op]
		if plan.Name == "" {
			// Unknown opcode: the plen field can't be trusted to resync the
			// stream, so this is fatal.
			s.postProtoErr(h.Seq)
			return
		}
		if !s.hello && h.Op != proto.OpHello {
			s.postProtoErr(h.Seq)
			return
		}
		if h.Op == proto.OpHello {
			s.hello = true // reader-private before first enqueue reaches dispatcher
		}
		if s.outstanding.Add(1) > s.window {
			// Client overran its credit grant.
			s.outstanding.Add(-1)
			s.postProtoErr(h.Seq)
			return
		}
		req := s.getReq()
		req.h = h
		if h.Plen > 0 {
			buf := s.rs.ep.Alloc(int(h.Plen))
			s.srv.frames.Add(1)
			if _, err := io.ReadFull(s.conn, buf); err != nil {
				// Payload shorter than declared: stream is dead.
				s.rs.ep.Release(buf)
				s.srv.frames.Add(-1)
				s.outstanding.Add(-1)
				s.putReq(req)
				return
			}
			req.payload = buf
		}
		if !plan.Check(&h) {
			// Well-framed but wrong shape for the opcode: answer
			// StatusBadRequest and keep going. The payload was consumed
			// above, so the stream stays in sync.
			req.status = proto.StatusBadRequest
		}
		s.rs.rt.PostArg(s.enqueueFn, req)
	}
}

// postProtoErr queues the reader's parting StatusProtocol frame. The
// caller returns (closing the session) immediately after.
func (s *session) postProtoErr(seq uint32) {
	if s.outstanding.Add(1) > s.window {
		s.outstanding.Add(-1)
		return // no credit left for the error frame; just close
	}
	req := s.getReq()
	req.h.Seq = seq
	req.protoErr = true
	s.rs.rt.PostArg(s.enqueueFn, req)
}

// dispatch is the session's activity on its home rank: execute requests
// in order, build responses, wind down when the reader is gone.
func (s *session) dispatch(ctx exec.Context) {
	// Borrowed for the session's lifetime: org fires when origin buffers
	// are reusable, cmpl when remote completion has been acknowledged.
	org := s.rs.borrowCounter()
	cmpl := s.rs.borrowCounter()
	for {
		if s.qHead >= len(s.q) {
			if s.closed {
				break
			}
			// Reset the queue so it never grows past the credit window.
			s.q = s.q[:0]
			s.qHead = 0
			ctx.Wait(s.cond)
			continue
		}
		req := s.q[s.qHead]
		s.q[s.qHead] = nil
		s.qHead++
		s.exec(ctx, req, org, cmpl)
	}
	s.rs.returnCounter(org)
	s.rs.returnCounter(cmpl)
	close(s.out)
	s.srv.sessions.Add(-1)
}

// respond finishes req: releases its payload, builds the response frame,
// and hands it to the writer. plen is the response payload length; the
// returned buffer already contains plen payload bytes when fill wrote
// them (Get fills before calling respond via execGet's direct path).
func (s *session) respond(req *request, st proto.Status, value uint64, frame []byte) {
	if req.payload != nil {
		s.rs.ep.Release(req.payload)
		s.srv.frames.Add(-1)
		req.payload = nil
	}
	if frame == nil {
		frame = s.rs.ep.Alloc(proto.HeaderSize)
		s.srv.frames.Add(1)
	}
	rh := proto.RespHeader{
		Op:      req.h.Op,
		Seq:     req.h.Seq,
		Status:  st,
		Value:   value,
		Credits: uint32(s.window),
		Plen:    uint32(len(frame) - proto.HeaderSize),
	}
	proto.PutRespHeader(frame, &rh)
	s.rs.served.Add(1)
	s.srv.served.Add(1)
	s.putReq(req)
	// Never blocks: cap(out) > window >= outstanding >= frames queued in
	// out (the writer returns a frame's credit only after dequeuing it).
	s.out <- frame
}

// writeLoop owns the socket's write side and the final release of every
// response frame. The credit goes back before the write: a client that
// pipelines at exactly the granted window sends its next request the
// moment it reads this response, and the reader must already see the slot
// free. out still never overfills — the frame being written is off the
// channel. On write failure it keeps draining so buffer and credit
// accounting still balance.
func (s *session) writeLoop() {
	defer s.srv.sessWG.Done()
	defer s.srv.dropConn(s.conn)
	defer s.conn.Close()
	failed := false
	for frame := range s.out {
		s.outstanding.Add(-1)
		if !failed {
			if _, err := s.conn.Write(frame); err != nil {
				failed = true
			}
		}
		s.rs.ep.Release(frame)
		s.srv.frames.Add(-1)
	}
}
