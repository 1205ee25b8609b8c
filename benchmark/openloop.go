package main

// The open-loop load generator behind gate_open_mix. Requests are due at
// times drawn from the seed (Poisson arrivals), and every latency is
// counted from the time the request was due — not from when it was
// actually written — so a server stall is charged to every request it
// delayed (no coordinated omission). How late the generator itself ran is
// reported separately.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"golapi/internal/gateway/proto"
)

const (
	// openInflight caps requests in flight per session. The gateway grants
	// a window of 32, but pipelining at exactly the granted window gets a
	// compliant session killed: session.writeLoop returns the credit after
	// conn.Write, so the client's next batch can reach the reader first
	// (README, "Defects found"). 16 keeps clear of that edge.
	openInflight = 16

	// refillPoll is how often the sender looks at a full session again.
	refillPoll = 40 * time.Microsecond

	openRows, openCols = 64, 16384
	openSeg            = 16 // elements per Put/Get segment
)

// arrival is one scheduled request.
type arrival struct {
	at   time.Duration // due time, from the start of the step
	op   uint8
	sess int
	row  int
	col  int
	val  float64 // Put: first element of the payload (the rest follow from it)
}

// makeSchedule draws the arrivals of one step into buf (which it may grow):
// a pure function of its other arguments. Arrivals are Poisson at rate per second over dur, 40% Put,
// 40% Get, 20% ReadInc; session s touches only rows r with r%sessions==s,
// so sessions never write the same row and each row's final content is
// decided by one session's request order.
func makeSchedule(buf []arrival, seed uint64, rate float64, dur time.Duration, sessions int) []arrival {
	rng := splitmix(seed)
	out := buf[:0] // reused step after step: the generator's garbage would pace its collector, and that the server's CPU
	t := 0.0
	for {
		t += -math.Log(rng.float01()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		a := arrival{at: at, sess: rng.intn(sessions)}
		switch u := rng.intn(10); {
		case u < 4:
			a.op = proto.OpPut
		case u < 8:
			a.op = proto.OpGet
		default:
			a.op = proto.OpReadInc
		}
		a.row = a.sess + sessions*rng.intn(openRows/sessions)
		a.col = rng.intn((openCols-openSeg)/openSeg+1) * openSeg
		a.val = float64(rng.intn(1 << 20))
		out = append(out, a)
	}
}

// inflight is one request between send and response.
type inflight struct {
	due    time.Time
	sentAt time.Time
	op     uint8
	seq    uint32
	expect [openSeg]float64 // Get: what the segment must hold
}

// opStats is what the receiver accumulates during a step.
type opStats struct {
	fromDue  map[uint8][]float64 // latency from the due time, µs, per opcode
	fromSend []float64           // latency from the actual write, µs
	late     []float64           // actual write minus due time, µs
	failures int64
	incSum   int64 // sum of the values ReadInc returned
	incs     int64 // ReadIncs acknowledged
}

// olSession is one pipelined gateway session: the sender goroutine writes
// requests, a receiver goroutine reads responses in order.
type olSession struct {
	c      net.Conn
	bw     *bufio.Writer
	br     *bufio.Reader
	home   int
	seq    uint32
	ah, ch uint32

	// Shared by the sender and the receiver, under mu: the ring of
	// requests in flight (slot i%openInflight holds request i), how many
	// were sent and answered, the step's statistics, and where the
	// receiver records spans.
	mu    sync.Mutex
	ring  [openInflight]inflight
	sent  uint64
	recvd uint64
	st    opStats
	tr    *tracer
	span  int64
	dead  bool // the receiver is gone: the session is lost

	// Sender-owned.
	backlog []int // indices of due arrivals not yet written
	head    int
	shadow  map[int][]float64 // row -> content this session has written
	lastCol map[int]int       // row -> column of its most recent Put
	wbuf    []byte

	wg sync.WaitGroup
}

// dialSession connects, performs the Hello exchange and starts the
// receiver.
func dialSession(addr string, ah, ch uint32) (*olSession, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &olSession{
		c: c, bw: bufio.NewWriterSize(c, 16<<10), br: bufio.NewReaderSize(c, 16<<10),
		ah: ah, ch: ch,
		shadow: map[int][]float64{}, lastCol: map[int]int{},
		wbuf: make([]byte, proto.HeaderSize+openSeg*8),
	}
	var hdr [proto.HeaderSize]byte
	proto.PutReqHeader(hdr[:], &proto.ReqHeader{Op: proto.OpHello, Seq: 0})
	if _, err := c.Write(hdr[:]); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		c.Close()
		return nil, err
	}
	rh, err := proto.ParseRespHeader(hdr[:])
	if err != nil || rh.Status != proto.StatusOK || rh.Op != proto.OpHello {
		c.Close()
		return nil, fmt.Errorf("hello: %v %v", rh.Status, err)
	}
	s.home = int(rh.Value)
	if int(rh.Credits) <= openInflight {
		c.Close()
		return nil, fmt.Errorf("hello: window %d leaves no margin over %d in flight", rh.Credits, openInflight)
	}
	s.wg.Add(1)
	go s.receive()
	return s, nil
}

// beginStep clears the statistics and points the receiver at the step's
// span.
func (s *olSession) beginStep(tr *tracer, span int64) {
	s.mu.Lock()
	if s.st.fromDue == nil {
		s.st.fromDue = map[uint8][]float64{}
	}
	for op, v := range s.st.fromDue {
		s.st.fromDue[op] = v[:0]
	}
	s.st = opStats{fromDue: s.st.fromDue, fromSend: s.st.fromSend[:0], late: s.st.late[:0]}
	s.tr, s.span = tr, span
	s.mu.Unlock()
	s.backlog, s.head = s.backlog[:0], 0
}

// endStep returns the step's statistics and how many requests are still
// unanswered.
func (s *olSession) endStep() (opStats, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st, int(s.sent - s.recvd)
}

// close severs the connection and waits for the receiver to exit.
func (s *olSession) close() {
	s.c.Close()
	s.wg.Wait()
}

// giveUp closes a session whose requests went unanswered and writes them
// off, so that they are counted as lost once and not again by every later
// step (the sender skips a dead session).
func (s *olSession) giveUp() {
	s.close()
	s.mu.Lock()
	s.recvd = s.sent
	s.mu.Unlock()
}

// room reports how many requests are in flight and whether the session is
// still alive.
func (s *olSession) room() (inFlight int, alive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.sent - s.recvd), !s.dead
}

// row returns the session's shadow of one of its rows.
func (s *olSession) rowShadow(row int) []float64 {
	r := s.shadow[row]
	if r == nil {
		r = make([]float64, openCols)
		s.shadow[row] = r
	}
	return r
}

// send writes one request into the session's buffer (the caller flushes).
func (s *olSession) send(a *arrival, due time.Time) error {
	s.seq++
	slot := inflight{due: due, op: a.op, seq: s.seq}
	h := proto.ReqHeader{Op: a.op, Seq: s.seq, Handle: s.ah,
		Row: uint32(a.row), Col: uint32(a.col), Count: openSeg}
	n := proto.HeaderSize
	switch a.op {
	case proto.OpPut:
		h.Plen = openSeg * 8
		seg := s.rowShadow(a.row)[a.col : a.col+openSeg]
		for i := range seg {
			seg[i] = a.val + float64(i)
			binary.BigEndian.PutUint64(s.wbuf[n+i*8:], math.Float64bits(seg[i]))
		}
		s.lastCol[a.row] = a.col
		n += openSeg * 8
	case proto.OpGet:
		// Requests of one session execute in order, and only this session
		// writes this row: the response must equal the shadow as of now.
		copy(slot.expect[:], s.rowShadow(a.row)[a.col:a.col+openSeg])
	case proto.OpReadInc:
		h.Handle, h.Row, h.Col, h.Count, h.Plen = s.ch, 0, 0, 0, 8
		binary.BigEndian.PutUint64(s.wbuf[n:], 1)
		n += 8
	}
	proto.PutReqHeader(s.wbuf, &h)
	slot.sentAt = now()
	s.mu.Lock()
	s.ring[s.sent%openInflight] = slot
	s.sent++
	s.mu.Unlock()
	_, err := s.bw.Write(s.wbuf[:n])
	return err
}

// receive reads responses until the connection closes. Every response must
// echo the seq and opcode of the oldest request in flight and carry
// StatusOK; a Get must return the shadowed content.
func (s *olSession) receive() {
	defer s.wg.Done()
	defer s.markDead()
	var hdr [proto.HeaderSize]byte
	var payload [openSeg * 8]byte
	for {
		if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
			return
		}
		at := now()
		rh, err := proto.ParseRespHeader(hdr[:])
		if err != nil || int(rh.Plen) > len(payload) {
			return
		}
		if _, err := io.ReadFull(s.br, payload[:rh.Plen]); err != nil {
			return
		}
		if !s.account(&rh, payload[:rh.Plen], at) {
			return
		}
	}
}

func (s *olSession) markDead() {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
}

// account matches one response against the oldest request in flight and
// records it; false means the response matches nothing.
func (s *olSession) account(rh *proto.RespHeader, payload []byte, at time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sent == s.recvd {
		return false // a response nothing asked for
	}
	slot := &s.ring[s.recvd%openInflight]
	ok := rh.Seq == slot.seq && rh.Op == slot.op && rh.Status == proto.StatusOK
	switch {
	case !ok:
	case slot.op == proto.OpGet:
		ok = len(payload) == openSeg*8
		for i := 0; ok && i < openSeg; i++ {
			ok = math.Float64frombits(binary.BigEndian.Uint64(payload[i*8:])) == slot.expect[i]
		}
	case slot.op == proto.OpReadInc:
		s.st.incSum += int64(rh.Value)
		s.st.incs++
	}
	if !ok {
		s.st.failures++
	}
	s.st.fromDue[slot.op] = append(s.st.fromDue[slot.op], float64(at.Sub(slot.due).Nanoseconds())/1e3)
	s.st.fromSend = append(s.st.fromSend, float64(at.Sub(slot.sentAt).Nanoseconds())/1e3)
	s.st.late = append(s.st.late, float64(slot.sentAt.Sub(slot.due).Nanoseconds())/1e3)
	s.tr.op(proto.Plans[slot.op].Name, "gateway", s.span, int64(slot.seq), slot.due, at)
	s.recvd++
	return true
}

// stepResult is one step of offered load.
type stepResult struct {
	offered   float64 // req/s asked for
	scheduled int     // arrivals due within the step
	completed int     // responses received
	backlog   int     // arrivals due but never written when the step ended
	lost      int     // written, never answered (dead session or drain timeout)
	failures  int64
	wall      time.Duration
	all       []float64 // latency from due time, µs, every opcode, ascending
	perOp     map[uint8][]float64
	fromSend  []float64
	late      []float64
	incSum    int64
	incs      int64
}

// reset empties r for the next step, keeping its buffers.
func (r *stepResult) reset(offered float64) {
	perOp := r.perOp
	if perOp == nil {
		perOp = map[uint8][]float64{}
	}
	for op, v := range perOp {
		perOp[op] = v[:0]
	}
	*r = stepResult{offered: offered, perOp: perOp, all: r.all[:0], fromSend: r.fromSend[:0], late: r.late[:0]}
}

func (r *stepResult) achieved() float64 { return float64(r.completed) / r.wall.Seconds() }

// ok applies the ladder's pass rule to a step.
func (r *stepResult) ok() bool {
	return percentile(r.all, 99) <= 2000 && r.achieved() >= 0.98*r.offered &&
		r.backlog <= 32 && r.failures == 0 && r.lost == 0
}

// runStep plays a schedule against the sessions from one sender goroutine
// (the caller's), filling res (whose buffers it reuses), with at most inflightCap requests in flight per session.
// An arrival whose session is full waits in that session's backlog without
// holding back the other session. When the step's time is up the backlog
// is dropped (and counted), and the requests in flight are drained.
func runStep(res *stepResult, sessions []*olSession, sched []arrival, dur time.Duration, offered float64, inflightCap int, tr *tracer, span int64) *stepResult {
	for _, s := range sessions {
		s.beginStep(tr, span)
	}
	res.reset(offered)
	lockPacer()
	defer unlockPacer()
	start := now()
	next := 0
	for {
		t := since(start)
		if t >= dur {
			break
		}
		for next < len(sched) && sched[next].at <= t {
			s := sessions[sched[next].sess]
			s.backlog = append(s.backlog, next)
			next++
		}
		progressed := false
		for _, s := range sessions {
			wrote := false
			for s.head < len(s.backlog) {
				if n, alive := s.room(); n >= inflightCap || !alive {
					break
				}
				a := &sched[s.backlog[s.head]]
				s.head++
				s.send(a, start.Add(a.at)) // a write error surfaces as a dead session and lost requests
				wrote = true
			}
			if wrote {
				s.bw.Flush()
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Nothing to write now. Wake for the next due arrival — or, when
		// arrivals are waiting on a full session, soon enough to refill it.
		wait := dur - t
		if next < len(sched) {
			wait = sched[next].at - t
		}
		for _, s := range sessions {
			if s.head < len(s.backlog) && wait > refillPoll {
				wait = refillPoll
			}
		}
		if wait > pacerOvershoot {
			sleepPrecise(wait - pacerOvershoot)
		} else {
			runtime.Gosched()
		}
	}
	res.scheduled = next
	for _, s := range sessions {
		res.backlog += len(s.backlog) - s.head
	}
	// Drain what is in flight; a session that does not drain is given up.
	deadline := now().Add(2 * time.Second)
	for _, s := range sessions {
		for {
			n, alive := s.room()
			if n == 0 || !alive || !now().Before(deadline) {
				break
			}
			sleepPrecise(50 * time.Microsecond)
		}
	}
	res.wall = since(start)
	for _, s := range sessions {
		st, unanswered := s.endStep()
		if unanswered > 0 {
			s.giveUp() // later steps must not mistake its late answers for theirs
		}
		res.lost += unanswered
		res.failures += st.failures
		res.incSum += st.incSum
		res.incs += st.incs
		for op, v := range st.fromDue {
			res.perOp[op] = append(res.perOp[op], v...)
			res.all = append(res.all, v...)
		}
		res.fromSend = append(res.fromSend, st.fromSend...)
		res.late = append(res.late, st.late...)
	}
	res.completed = len(res.all)
	sortFloats(res.all, res.fromSend, res.late)
	for _, v := range res.perOp {
		sortFloats(v)
	}
	return res
}
