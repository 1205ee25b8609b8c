package gateway

// The session layer: one client connection is one goroutine, which reads a
// request, runs it to completion and writes the answer itself.
//
//	conn ──bufio──▶ serve ──rt.Do(run)──▶ exec under the home rank's lock
//	                  ▲                     (may Wait on counters; respond
//	                  │                      builds the response frame)
//	                  └── write frame, Release ◀──┘
//
// serve owns framing, the socket and the release of every response frame;
// run executes one request on the home rank's serialization domain
// (exec.RealRuntime.Do: the same lock and Context a spawned activity gets,
// on serve's own stack), and respond leaves the frame for serve to write
// once the lock is dropped. A Create is the exception: it is collective
// across every rank, so serve runs it outside the lock (execCreate). So
// a session's requests execute one at a time in arrival order, and the
// server holds at most one request per session: the credit window every
// response carries is the client's pipelining grant, and requests sent
// beyond it wait in the socket, where TCP flow control stops the client. Frame buffers (request payloads, response
// frames) come from the rank endpoint's pooled Alloc and are Released by
// whoever consumes them, with srv.frames counting the outstanding ones.
//
// Lifecycle: serve exits on the first socket error (client gone, or
// Server.Close severing the conn) or after answering a framing violation.
// A request already read is executed and answered first, so the counter
// and buffer accounting has a single path.

import (
	"bufio"
	"io"
	"net"

	"golapi/internal/exec"
	"golapi/internal/gateway/proto"
)

// request is the one request a session has in flight.
type request struct {
	h       proto.ReqHeader
	payload []byte // pooled; nil when the op carries none
	// protoErr marks a framing violation: respond StatusProtocol with this
	// request's seq, then close the session.
	protoErr bool
}

type session struct {
	srv   *Server
	rs    *rankState
	conn  net.Conn
	br    *bufio.Reader
	runFn func(exec.Context) // s.run, bound once: rt.Do(s.runFn)

	// serve-private: the header being read (a field, so it does not
	// escape per request) and whether Hello, which must come first, has.
	hdr   [proto.HeaderSize]byte
	hello bool

	req   request
	frame []byte // req's response, built by respond
}

func startSession(srv *Server, rs *rankState, conn net.Conn) {
	s := &session{
		srv:  srv,
		rs:   rs,
		conn: conn,
		br:   bufio.NewReader(conn),
	}
	s.runFn = s.run
	srv.sessions.Add(1)
	srv.sessWG.Add(1)
	go s.serve()
}

// serve is the session: read, run, answer, until the stream dies or a
// framing violation has been answered.
func (s *session) serve() {
	defer s.srv.sessWG.Done()
	defer s.srv.sessions.Add(-1)
	defer s.srv.dropConn(s.conn)
	defer s.conn.Close()
	for s.read() {
		if s.req.h.Op == proto.OpCreate && !s.req.protoErr {
			s.execCreate() // collective: must not hold the rank lock
		} else {
			s.rs.rt.Do(s.runFn)
		}
		_, err := s.conn.Write(s.frame)
		s.rs.ep.Release(s.frame)
		s.srv.frames.Add(-1)
		s.frame = nil
		if err != nil || s.req.protoErr {
			return
		}
	}
}

// read frames the next request into s.req. It returns false when the
// stream is dead (client gone, server closing, payload shorter than
// declared); no answer is possible then. A framing violation — bad header,
// unknown opcode (its plen cannot be trusted to resync the stream), or
// anything before Hello — is marked protoErr and answered before the
// session closes. Well-framed garbage (bad shapes, unknown handles) is
// exec's to answer and keeps the session alive.
func (s *session) read() bool {
	if _, err := io.ReadFull(s.br, s.hdr[:]); err != nil {
		return false
	}
	h, err := proto.ParseReqHeader(s.hdr[:])
	s.req.payload = nil
	s.req.protoErr = err != nil || proto.Plans[h.Op].Name == "" || (!s.hello && h.Op != proto.OpHello)
	if s.req.protoErr {
		s.req.h = proto.ReqHeader{Seq: h.Seq}
		return true
	}
	s.req.h = h
	if h.Op == proto.OpHello {
		s.hello = true
	}
	if h.Plen > 0 {
		buf := s.rs.ep.Alloc(int(h.Plen))
		s.srv.frames.Add(1)
		if _, err := io.ReadFull(s.br, buf); err != nil {
			s.rs.ep.Release(buf)
			s.srv.frames.Add(-1)
			return false
		}
		s.req.payload = buf
	}
	return true
}

// run executes s.req under the home rank's lock.
func (s *session) run(ctx exec.Context) { s.exec(ctx, &s.req) }

// respond finishes req: releases its payload and builds the response
// frame in s.frame for serve to write. frame, when non-nil, already holds
// the response payload after the header (execGet lands data there).
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
		Credits: uint32(s.srv.cfg.Window),
		Plen:    uint32(len(frame) - proto.HeaderSize),
	}
	proto.PutRespHeader(frame, &rh)
	s.rs.served.Add(1)
	s.srv.served.Add(1)
	s.frame = frame
}
