package main

// The two rungs below lapi, measured only in traced runs: a raw loopback
// TCP socket (the floor) and tcpnet (framing, pooled buffers, the writer
// goroutine, the runtime-lock delivery).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"golapi/internal/exec"
	"golapi/internal/tcpnet"
)

// sockRung is a connected loopback TCP pair with an echo goroutine behind
// it: the client writes a length-prefixed payload, the server answers with
// an 8-byte acknowledgement — the bytes a Put moves, with no library.
type sockRung struct {
	c    net.Conn
	wg   sync.WaitGroup
	wbuf []byte
	ack  [8]byte
}

func newSockRung(maxPayload int) (*sockRung, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	r := &sockRung{wbuf: make([]byte, 4+maxPayload)}
	accepted := make(chan net.Conn, 1)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		sc, err := ln.Accept()
		accepted <- sc
		if err != nil {
			return
		}
		defer sc.Close()
		sockServe(sc, maxPayload)
	}()
	if r.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close() // unblocks Accept
		r.wg.Wait()
		return nil, err
	}
	if sc := <-accepted; sc == nil {
		r.c.Close()
		r.wg.Wait()
		return nil, fmt.Errorf("socket rung: accept failed")
	}
	return r, nil
}

// sockServe answers every length-prefixed message with 8 bytes until the
// peer closes.
func sockServe(c net.Conn, maxPayload int) {
	buf := make([]byte, maxPayload)
	var hdr [4]byte
	var ack [8]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > len(buf) {
			return
		}
		if _, err := io.ReadFull(c, buf[:n]); err != nil {
			return
		}
		if _, err := c.Write(ack[:]); err != nil {
			return
		}
	}
}

func (r *sockRung) roundTrip(payload []byte) error {
	binary.BigEndian.PutUint32(r.wbuf, uint32(len(payload)))
	copy(r.wbuf[4:], payload)
	if _, err := r.c.Write(r.wbuf[:4+len(payload)]); err != nil {
		return err
	}
	_, err := io.ReadFull(r.c, r.ack[:])
	return err
}

func (r *sockRung) close() {
	r.c.Close()
	r.wg.Wait()
}

// tcpnetRung is two Dialed endpoints, each on its own runtime, with rank 1
// acknowledging whatever rank 0 sends: Alloc+Send one way, an 8-byte
// Alloc+Send back, Release on both deliveries. Above MaxPacket the payload
// rides SendDirect into a region rank 1 pre-posted with RecvInto.
type tcpnetRung struct {
	eps  [2]*tcpnet.Endpoint
	acks chan struct{} // one token per acknowledgement delivered at rank 0

	landing   []byte // direct-lane landing buffer
	nextToken uint64

	// Written by rank 1's upcalls, read and armed by the harness.
	mu      sync.Mutex
	last    []byte // copy of the most recent payload delivered
	directs int    // direct transfers still to land in this stream
}

func newTCPNetRung() (*tcpnetRung, error) {
	addrs, err := tcpnet.LocalAddrs(2)
	if err != nil {
		return nil, err
	}
	r := &tcpnetRung{acks: make(chan struct{}, 1), landing: make([]byte, streamBytes)}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() { // Dial calls rendezvous, so both must run at once
			defer wg.Done()
			r.eps[i], errs[i] = tcpnet.Dial(exec.NewRealRuntime(), i, 2, addrs, 0)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			r.close()
			return nil, e
		}
	}
	a, b := r.eps[0], r.eps[1]
	sendAck := func() {
		ack := b.Alloc(8)
		b.Send(nil, 0, ack, nil)
	}
	b.SetDeliver(func(_ int, data []byte) {
		r.mu.Lock()
		r.last = append(r.last[:0], data...)
		r.mu.Unlock()
		b.Release(data)
		sendAck()
	})
	b.SetDirectDone(func(int, uint64) {
		r.mu.Lock()
		r.directs--
		done := r.directs == 0
		r.mu.Unlock()
		if done {
			sendAck()
		}
	})
	a.SetDeliver(func(_ int, data []byte) {
		a.Release(data)
		r.acks <- struct{}{} // never blocks: one round trip in flight
	})
	return r, nil
}

func (r *tcpnetRung) roundTrip(payload []byte) error {
	a := r.eps[0]
	if len(payload) > a.MaxPacket() {
		return fmt.Errorf("tcpnet rung: %d bytes exceed MaxPacket", len(payload))
	}
	buf := a.Alloc(len(payload))
	copy(buf, payload)
	a.Send(nil, 1, buf, nil)
	<-r.acks
	return nil
}

// echoed reports whether the last payload rank 1 received equals want.
func (r *tcpnetRung) echoed(want []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return bytes.Equal(r.last, want)
}

// stream moves src as streamPuts direct transfers and waits for the single
// acknowledgement rank 1 sends once all have landed. Posting the landing
// regions from here stands in for the control handshake a protocol above
// tcpnet would run.
func (r *tcpnetRung) stream(src []byte) error {
	a, b := r.eps[0], r.eps[1]
	part := len(src) / streamPuts
	r.mu.Lock()
	r.directs = streamPuts
	r.mu.Unlock()
	for i := 0; i < streamPuts; i++ {
		r.nextToken++
		b.RecvInto(0, r.nextToken, r.landing[i*part:(i+1)*part])
		a.SendDirect(nil, 1, r.nextToken, src[i*part:(i+1)*part], nil)
	}
	<-r.acks
	if !bytes.Equal(r.landing[:len(src)], src) {
		return fmt.Errorf("tcpnet rung: streamed bytes differ at the peer")
	}
	return nil
}

func (r *tcpnetRung) close() {
	for _, ep := range r.eps {
		if ep != nil {
			ep.Close()
		}
	}
	for _, ep := range r.eps {
		if ep != nil {
			ep.Drain()
		}
	}
}
