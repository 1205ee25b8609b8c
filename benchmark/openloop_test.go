package main

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"golapi/internal/gateway/proto"
)

func TestScheduleIsAPureFunction(t *testing.T) {
	a := makeSchedule(nil, 7, 20000, 200*time.Millisecond, 2)
	b := makeSchedule(nil, 7, 20000, 200*time.Millisecond, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and rate, different schedules")
	}
	if c := makeSchedule(nil, 8, 20000, 200*time.Millisecond, 2); reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	// 20000/s over 0.2 s: 4000 arrivals, give or take Poisson noise.
	if n := len(a); n < 3700 || n > 4300 {
		t.Errorf("%d arrivals, want about 4000", n)
	}
	ops := map[uint8]int{}
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatal("arrivals out of order")
		}
		if x.at >= 200*time.Millisecond {
			t.Fatal("arrival beyond the step")
		}
		if x.row%2 != x.sess {
			t.Fatalf("session %d was given row %d: sessions must write disjoint rows", x.sess, x.row)
		}
		if x.col < 0 || x.col+openSeg > openCols {
			t.Fatalf("segment at column %d leaves the array", x.col)
		}
		ops[x.op]++
	}
	share := func(op uint8) float64 { return float64(ops[op]) / float64(len(a)) }
	if p, g, r := share(proto.OpPut), share(proto.OpGet), share(proto.OpReadInc); math.Abs(p-0.4) > 0.05 || math.Abs(g-0.4) > 0.05 || math.Abs(r-0.2) > 0.05 {
		t.Errorf("mix %.2f/%.2f/%.2f, want 0.40/0.40/0.20", p, g, r)
	}
}

// stubGateway speaks enough of the wire protocol for the generator: one
// array, one counter, responses in request order. It can stall once, and
// it records the most requests it ever held unanswered on one session.
type stubGateway struct {
	ln         net.Listener
	wg         sync.WaitGroup
	stallAfter int           // stall before answering this request (0 = never)
	stall      time.Duration // how long
	hangUpAt   int           // sever a session on reading its n-th request after the hello (0 = never)

	mu          sync.Mutex
	conns       []net.Conn
	array       map[[2]uint32][]float64 // (row, col) -> segment
	counter     int64
	served      int
	maxInFlight int
}

type stubReq struct {
	h       proto.ReqHeader
	payload []byte
}

func newStubGateway(t *testing.T, stallAfter int, stall time.Duration) *stubGateway {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &stubGateway{ln: ln, stallAfter: stallAfter, stall: stall, array: map[[2]uint32][]float64{}}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			g.mu.Lock()
			g.conns = append(g.conns, c)
			g.mu.Unlock()
			g.wg.Add(1)
			go g.serve(c)
		}
	}()
	return g
}

// close stops accepting, severs every session and waits for the serving
// goroutines.
func (g *stubGateway) close() {
	g.ln.Close()
	g.mu.Lock()
	for _, c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	g.wg.Wait()
}

// serve reads requests as fast as they come (so a stall in answering shows
// as requests piling up, as in the real gateway) and answers them in order.
func (g *stubGateway) serve(c net.Conn) {
	defer g.wg.Done()
	defer c.Close()
	reqs := make(chan stubReq, 64) // beyond any in-flight cap under test
	var inFlight int
	var mu sync.Mutex
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		var out [proto.HeaderSize + openSeg*8]byte
		for r := range reqs {
			g.mu.Lock()
			g.served++
			stall := g.stallAfter > 0 && g.served == g.stallAfter
			g.mu.Unlock()
			if stall {
				time.Sleep(g.stall)
			}
			rh := proto.RespHeader{Op: r.h.Op, Seq: r.h.Seq, Status: proto.StatusOK, Credits: 32}
			n := proto.HeaderSize
			g.mu.Lock()
			key := [2]uint32{r.h.Row, r.h.Col}
			switch r.h.Op {
			case proto.OpPut:
				seg := make([]float64, openSeg)
				for i := range seg {
					seg[i] = math.Float64frombits(binary.BigEndian.Uint64(r.payload[i*8:]))
				}
				g.array[key] = seg
			case proto.OpGet:
				rh.Plen = openSeg * 8
				seg := g.array[key]
				for i := 0; i < openSeg; i++ {
					var v float64
					if seg != nil {
						v = seg[i]
					}
					binary.BigEndian.PutUint64(out[n+i*8:], math.Float64bits(v))
				}
				n += openSeg * 8
			case proto.OpReadInc:
				rh.Value = uint64(g.counter)
				g.counter += int64(binary.BigEndian.Uint64(r.payload))
			}
			g.mu.Unlock()
			proto.PutRespHeader(out[:], &rh)
			mu.Lock()
			inFlight--
			mu.Unlock()
			if _, err := c.Write(out[:n]); err != nil {
				return
			}
		}
	}()
	defer close(reqs)
	var hdr [proto.HeaderSize]byte
	for read := 0; ; read++ {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		h, err := proto.ParseReqHeader(hdr[:])
		if err != nil || (g.hangUpAt > 0 && read == g.hangUpAt) {
			return
		}
		payload := make([]byte, h.Plen)
		if _, err := io.ReadFull(c, payload); err != nil {
			return
		}
		mu.Lock()
		inFlight++
		n := inFlight
		mu.Unlock()
		if h.Op != proto.OpHello {
			g.mu.Lock()
			if n > g.maxInFlight {
				g.maxInFlight = n
			}
			g.mu.Unlock()
		}
		reqs <- stubReq{h, payload}
	}
}

// The stub keys segments by (row, col) and the generator picks columns on
// openSeg boundaries, so a Get sees exactly the last Put of its segment —
// unless that segment was written at another column overlap, which the
// aligned columns rule out.
func stubSessions(t *testing.T, g *stubGateway, n int) []*olSession {
	var out []*olSession
	for i := 0; i < n; i++ {
		s, err := dialSession(g.ln.Addr().String(), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.close)
		out = append(out, s)
	}
	return out
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const (
		rate  = 2000.0
		dur   = 300 * time.Millisecond
		stall = 50 * time.Millisecond
	)
	g := newStubGateway(t, 100, stall) // the 100th request (incl. 1 hello) waits 50 ms
	defer g.close()
	sessions := stubSessions(t, g, 1)
	sched := makeSchedule(nil, 3, rate, dur, 1)
	r := runStep(new(stepResult), sessions, sched, dur, rate, openInflight, nil, 0)

	if r.failures != 0 || r.lost != 0 {
		t.Fatalf("%d failures, %d lost", r.failures, r.lost)
	}
	if r.completed != len(sched) {
		t.Fatalf("%d of %d arrivals completed (backlog %d)", r.completed, len(sched), r.backlog)
	}
	// About rate*stall = 100 requests fell due during the stall; each waited
	// out what was left of it. A generator that stopped the clock while it
	// could not send (coordinated omission) would show only the 16 in
	// flight as slow.
	slow := 0
	for _, us := range r.all {
		if us > 10000 {
			slow++
		}
	}
	if slow < 60 {
		t.Errorf("%d requests saw more than 10 ms; with latencies charged from the due time about %.0f must", slow, rate*(stall-10*time.Millisecond).Seconds())
	}
	if max := r.all[len(r.all)-1]; max < 45000 || max > 120000 {
		t.Errorf("worst latency %.0f us, want about the 50 ms stall", max)
	}
	// The service time — measured from the actual write — hides the stall
	// for everything that queued in the generator: that is the omission.
	slowFromSend := 0
	for _, us := range r.fromSend {
		if us > 10000 {
			slowFromSend++
		}
	}
	if slowFromSend >= slow {
		t.Errorf("from the write, %d requests look slow; from the due time, %d: the due-time figure must be the larger", slowFromSend, slow)
	}
	// The generator's own lag is reported, not hidden: requests held back
	// by the in-flight cap were written late by up to the stall.
	if late := percentile(r.late, 99); late < 20000 {
		t.Errorf("late p99 %.0f us: the generator ran up to %v late and must say so", late, stall)
	}
	if g.maxInFlight > openInflight {
		t.Errorf("the server held %d requests unanswered on one session, the cap is %d", g.maxInFlight, openInflight)
	}
	if g.maxInFlight < openInflight/2 {
		t.Errorf("only %d in flight during a 50 ms stall at %v/s: the pipeline is not being used", g.maxInFlight, rate)
	}
}

func TestOpenLoopOracleAndCap(t *testing.T) {
	g := newStubGateway(t, 0, 0)
	defer g.close()
	sessions := stubSessions(t, g, 2)
	const dur = 200 * time.Millisecond
	// Far more offered than the cap lets through: the step must end with a
	// backlog, never with more than the cap in flight, and with every
	// answer accounted for.
	sched := makeSchedule(nil, 11, 400000, dur, 2)
	r := runStep(new(stepResult), sessions, sched, dur, 400000, openInflight, nil, 0)
	if r.failures != 0 || r.lost != 0 {
		t.Fatalf("%d failures, %d lost", r.failures, r.lost)
	}
	if g.maxInFlight > openInflight {
		t.Errorf("%d in flight on one session, the cap is %d", g.maxInFlight, openInflight)
	}
	if r.backlog == 0 || r.ok() {
		t.Errorf("an overloaded step must end with a backlog and fail the ladder's rule (backlog %d)", r.backlog)
	}
	if r.completed+r.backlog != r.scheduled {
		t.Errorf("%d completed + %d backlog != %d scheduled", r.completed, r.backlog, r.scheduled)
	}
	// ReadInc is exactly-once: the previous values are 0..n-1.
	if r.incSum != r.incs*(r.incs-1)/2 {
		t.Errorf("%d ReadIncs returned previous values summing to %d", r.incs, r.incSum)
	}
	g.mu.Lock()
	counter := g.counter
	g.mu.Unlock()
	if counter != r.incs {
		t.Errorf("server counter %d, %d ReadIncs acknowledged", counter, r.incs)
	}

	// A wrong answer is a failure: corrupt the shadow of a written row.
	for row, col := range sessions[0].lastCol {
		sessions[0].shadow[row][col]++
		a := arrival{op: proto.OpGet, sess: 0, row: row, col: col}
		r := runStep(new(stepResult), sessions[:1], []arrival{a}, 20*time.Millisecond, 50, openInflight, nil, 0)
		if r.failures != 1 {
			t.Errorf("a Get that returns other than the shadow must count as a failure, got %d", r.failures)
		}
		break
	}
}

func TestOpenLoopCountsADeadSessionOnce(t *testing.T) {
	g := newStubGateway(t, 0, 0)
	g.hangUpAt = 5
	defer g.close()
	sessions := stubSessions(t, g, 1)
	const dur = 50 * time.Millisecond
	sched := makeSchedule(nil, 5, 2000, dur, 1)
	first := runStep(new(stepResult), sessions, sched, dur, 2000, openInflight, nil, 0)
	if first.lost == 0 {
		t.Fatalf("the server hung up on the fifth request and nothing was lost (%d completed)", first.completed)
	}
	// The session is gone: a later step can send nothing on it, and must
	// not count the requests the first step lost a second time.
	second := runStep(new(stepResult), sessions, sched, dur, 2000, openInflight, nil, 0)
	if second.lost != 0 || second.completed != 0 {
		t.Errorf("a step on a dead session lost %d and completed %d requests, want 0 and 0", second.lost, second.completed)
	}
	if second.backlog != second.scheduled {
		t.Errorf("%d of %d arrivals left in the backlog; none can have been written", second.backlog, second.scheduled)
	}
}
