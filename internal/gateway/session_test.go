package gateway_test

// Session-shape tests: a session is one goroutine that runs its requests
// to completion in arrival order.

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
)

// pipelined is one request of a pipelined burst and what its response
// must show.
type pipelined struct {
	h       proto.ReqHeader
	payload []byte
	want    []float64 // Get: the values the Put (or Acc) before it left
}

func f64s(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// TestPipelinedSessionOrder sends a full credit window of mixed requests
// on one raw connection before reading any response: Put → Get pairs on
// a segment of each rank (one local to the session's home rank, one
// remote), an Acc across the rank boundary followed by a Get, and
// ReadIncs. Responses must come back in Seq order, every Get must see
// the write before it, and the ReadIncs must return consecutive values.
func TestPipelinedSessionOrder(t *testing.T) {
	srv := startGateway(t, 2)
	ctl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// 8x64 over two ranks: columns 0..31 and 32..63 live on different
	// ranks (TestEndToEnd's Acc at column 28 straddles the boundary).
	ah, st, err := ctl.CreateArray("order.A", 8, 64)
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create: %v %v", st, err)
	}
	ch, st, err := ctl.CreateCounter("order.n")
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create counter: %v %v", st, err)
	}
	ctl.Close()

	conn := rawConn(t, srv.Addr(), true)
	defer conn.Close()
	window := gateway.DefaultConfig().Window

	var reqs []pipelined
	add := func(p pipelined) {
		p.h.Seq = uint32(len(reqs) + 2)
		p.h.Plen = uint32(len(p.payload))
		reqs = append(reqs, p)
	}
	const seg = 4
	for k := 0; k < 4; k++ {
		for _, col := range []uint32{0, 40} {
			vals := make([]float64, seg)
			for i := range vals {
				vals[i] = float64(100*k+int(col)+i) + 0.5
			}
			add(pipelined{h: proto.ReqHeader{Op: proto.OpPut, Handle: ah, Row: 1, Col: col, Count: seg}, payload: f64s(vals)})
			add(pipelined{h: proto.ReqHeader{Op: proto.OpGet, Handle: ah, Row: 1, Col: col, Count: seg}, want: vals})
		}
	}
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	alpha := f64s([]float64{2})
	add(pipelined{h: proto.ReqHeader{Op: proto.OpAcc, Handle: ah, Row: 2, Col: 28, Count: 8}, payload: append(alpha, f64s(ones)...)})
	add(pipelined{h: proto.ReqHeader{Op: proto.OpGet, Handle: ah, Row: 2, Col: 28, Count: 8}, want: []float64{2, 2, 2, 2, 2, 2, 2, 2}})
	firstInc := len(reqs)
	for len(reqs) < window {
		delta := make([]byte, 8)
		binary.BigEndian.PutUint64(delta, 1)
		add(pipelined{h: proto.ReqHeader{Op: proto.OpReadInc, Handle: ch}, payload: delta})
	}

	var burst []byte
	for i := range reqs {
		var hdr [proto.HeaderSize]byte
		proto.PutReqHeader(hdr[:], &reqs[i].h)
		burst = append(append(burst, hdr[:]...), reqs[i].payload...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var prevInc int64
	for i, r := range reqs {
		var hdr [proto.HeaderSize]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		rh, err := proto.ParseRespHeader(hdr[:])
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		data := make([]byte, rh.Plen)
		if _, err := io.ReadFull(conn, data); err != nil {
			t.Fatalf("response %d payload: %v", i, err)
		}
		if rh.Seq != r.h.Seq || rh.Op != r.h.Op {
			t.Fatalf("response %d: seq %d op %d, want seq %d op %d", i, rh.Seq, rh.Op, r.h.Seq, r.h.Op)
		}
		if rh.Status != proto.StatusOK {
			t.Fatalf("response %d (op %d): status %v", i, rh.Op, rh.Status)
		}
		switch {
		case r.want != nil:
			if len(data) != 8*len(r.want) {
				t.Fatalf("get %d: %d payload bytes, want %d", i, len(data), 8*len(r.want))
			}
			for j, w := range r.want {
				if got := math.Float64frombits(binary.BigEndian.Uint64(data[8*j:])); got != w {
					t.Fatalf("get %d (row %d col %d)[%d] = %v, want %v: it did not see the write before it",
						i, r.h.Row, r.h.Col, j, got, w)
				}
			}
		case r.h.Op == proto.OpReadInc:
			v := int64(rh.Value)
			if i > firstInc && v != prevInc+1 {
				t.Fatalf("readinc %d returned %d after %d, want consecutive values", i, v, prevInc)
			}
			prevInc = v
		}
	}
}

// TestSessionGoroutines pins the session's shape: an idle session costs
// the server one goroutine, and a hung-up session costs nothing once it
// has wound down.
func TestSessionGoroutines(t *testing.T) {
	srv := startGateway(t, 2)
	baseline := runtime.NumGoroutine()
	const sessions, slack = 16, 4
	conns := make([]net.Conn, sessions)
	for i := range conns {
		conns[i] = rawConn(t, srv.Addr(), true) // Hello answered: the session is up
	}
	if n := srv.Sessions(); n != sessions {
		t.Fatalf("%d live sessions, want %d", n, sessions)
	}
	if g := runtime.NumGoroutine(); g > baseline+sessions+slack {
		t.Fatalf("%d idle sessions run %d goroutines over a baseline of %d, want at most one each (+%d)",
			sessions, g-baseline, baseline, slack)
	}
	for _, c := range conns {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("after hang-up: sessions=%d goroutines=%d (baseline %d)",
				srv.Sessions(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
