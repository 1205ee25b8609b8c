package gateway_test

// Session-churn test (run under -race in `make check`): waves of clients
// connect, issue mixed traffic, and vanish mid-flight without reading
// their responses. The gateway must shed every session completely: no
// goroutine leaks, no pooled-frame leaks, no wedged dispatchers.

import (
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
)

// rudeClient connects, sends a burst of pipelined requests, and hangs up
// without reading a single response.
func rudeClient(t *testing.T, addr string, ah, ch uint32, burst int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, proto.HeaderSize+8+8*8)
	h := proto.ReqHeader{Op: proto.OpHello, Seq: 1}
	proto.PutReqHeader(buf, &h)
	if _, err := conn.Write(buf[:proto.HeaderSize]); err != nil {
		return // gateway already saw us off; fine
	}
	for i := 0; i < burst; i++ {
		h = proto.ReqHeader{Seq: uint32(i + 2), Handle: ah, Row: uint32(i % 8), Col: uint32(i % 16), Count: 8}
		switch i % 3 {
		case 0:
			h.Op = proto.OpPut
			h.Plen = 64
			proto.PutReqHeader(buf, &h)
			for j := 0; j < 8; j++ {
				binary.BigEndian.PutUint64(buf[proto.HeaderSize+j*8:], math.Float64bits(float64(i)))
			}
			conn.Write(buf[:proto.HeaderSize+64])
		case 1:
			h.Op = proto.OpGet
			proto.PutReqHeader(buf, &h)
			conn.Write(buf[:proto.HeaderSize])
		default:
			h.Op = proto.OpReadInc
			h.Handle = ch
			h.Row, h.Col, h.Count = 0, 0, 0
			h.Plen = 8
			proto.PutReqHeader(buf, &h)
			binary.BigEndian.PutUint64(buf[proto.HeaderSize:], 1)
			conn.Write(buf[:proto.HeaderSize+8])
		}
	}
	// defer closes the conn with responses still in flight.
}

// rudeLargeClient is rudeClient at rendezvous scale: pipelined 32 KB Puts
// and same-sized Gets (whose responses it never reads), then an abrupt
// hangup — possibly mid-frame. Large requests ride the RTS/CTS direct
// lane between ranks, so this exercises session teardown with zero-copy
// transfers still in flight.
func rudeLargeClient(t *testing.T, addr string, ah uint32, seg0, burst int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const count = 4096 // elements: 32 KB payload, the mesh's RndvLimit
	buf := make([]byte, proto.HeaderSize+count*8)
	h := proto.ReqHeader{Op: proto.OpHello, Seq: 1}
	proto.PutReqHeader(buf, &h)
	if _, err := conn.Write(buf[:proto.HeaderSize]); err != nil {
		return
	}
	for i := 0; i < burst; i++ {
		// Request i owns segment seg0+i, two to a row: no two requests
		// of any session touch the same bytes, since concurrent Puts to
		// overlapping ranges are undefined (DESIGN.md §11).
		seg := seg0 + i
		h = proto.ReqHeader{Seq: uint32(i + 2), Handle: ah, Row: uint32(seg / 2), Col: uint32(seg%2) * count, Count: count}
		if i%2 == 0 {
			h.Op = proto.OpPut
			h.Plen = count * 8
			proto.PutReqHeader(buf, &h)
			for j := 0; j < count; j++ {
				binary.BigEndian.PutUint64(buf[proto.HeaderSize+j*8:], math.Float64bits(float64(i+j)))
			}
			conn.Write(buf)
		} else {
			h.Op = proto.OpGet
			proto.PutReqHeader(buf, &h)
			conn.Write(buf[:proto.HeaderSize])
		}
	}
}

func TestSessionChurn(t *testing.T) {
	srv := startGateway(t, 2)

	// Set the shared objects up with one polite client.
	ctl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ah, st, err := ctl.CreateArray("churn.A", 8, 32)
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create: %v %v", st, err)
	}
	ch, st, err := ctl.CreateCounter("churn.n")
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create counter: %v %v", st, err)
	}
	ctl.Close()

	baseline := runtime.NumGoroutine()
	const waves, perWave, burst = 5, 12, 20
	for w := 0; w < waves; w++ {
		done := make(chan struct{}, perWave)
		for i := 0; i < perWave; i++ {
			go func() {
				defer func() { done <- struct{}{} }()
				rudeClient(t, srv.Addr(), ah, ch, burst)
			}()
		}
		for i := 0; i < perWave; i++ {
			<-done
		}
	}

	// Sessions wind down asynchronously after the disconnects; poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Sessions() == 0 && srv.InflightFrames() == 0 &&
			runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway did not quiesce: sessions=%d frames=%d goroutines=%d (baseline %d)",
				srv.Sessions(), srv.InflightFrames(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The mesh must still serve polite clients after all that abuse.
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]float64, 8)
	if st, err := c.Get(ah, 0, 0, out); err != nil || st != proto.StatusOK {
		t.Fatalf("get after churn: %v %v", st, err)
	}
	if _, st, err := c.ReadInc(ch, 1); err != nil || st != proto.StatusOK {
		t.Fatalf("readinc after churn: %v %v", st, err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.InflightFrames() != 0 {
		t.Fatalf("%d pooled frames held after close", srv.InflightFrames())
	}
}

// TestSessionChurnLargePayloads is the churn wave at rendezvous scale:
// clients blast pipelined 32 KB Puts/Gets — large enough that the mesh
// runs them over RTS/CTS direct placement — and vanish without reading
// responses. The gateway must shed every session with zero-copy transfers
// mid-flight: no wedged dispatchers, no pooled-frame leaks, and correct
// service afterwards.
func TestSessionChurnLargePayloads(t *testing.T) {
	srv := startGateway(t, 2)

	ctl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const waves, perWave, burst = 3, 6, 8
	// One 4096-element segment per request of every (wave, client), two
	// segments to a row.
	ah, st, err := ctl.CreateArray("churn.B", waves*perWave*burst/2, 8192)
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create: %v %v", st, err)
	}
	ctl.Close()

	baseline := runtime.NumGoroutine()
	for w := 0; w < waves; w++ {
		done := make(chan struct{}, perWave)
		for i := 0; i < perWave; i++ {
			seg0 := (w*perWave + i) * burst
			go func() {
				defer func() { done <- struct{}{} }()
				rudeLargeClient(t, srv.Addr(), ah, seg0, burst)
			}()
		}
		for i := 0; i < perWave; i++ {
			<-done
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Sessions() == 0 && srv.InflightFrames() == 0 &&
			runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway did not quiesce after large-payload churn: sessions=%d frames=%d goroutines=%d (baseline %d)",
				srv.Sessions(), srv.InflightFrames(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if srv.RndvMsgs() == 0 {
		t.Fatalf("large-payload churn ran entirely eager — rendezvous limit not wired into the mesh")
	}

	// A polite client must still get exact data through the same path.
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	if st, err := c.Put(ah, 1, 4096, vals); err != nil || st != proto.StatusOK {
		t.Fatalf("put after churn: %v %v", st, err)
	}
	out := make([]float64, 4096)
	if st, err := c.Get(ah, 1, 4096, out); err != nil || st != proto.StatusOK {
		t.Fatalf("get after churn: %v %v", st, err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("large round-trip after churn corrupted at %d: got %g want %g", i, out[i], vals[i])
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.InflightFrames() != 0 {
		t.Fatalf("%d pooled frames held after close", srv.InflightFrames())
	}
}
