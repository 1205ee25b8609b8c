// Package client is the Go client for the lapigate wire protocol: a
// synchronous request/response Conn for programs, plus a pipelined load
// generator (loadgen.go) for driving thousands of concurrent sessions.
//
// The package deliberately does not import internal/exec: it is the
// "outside world" half of the system and runs on wall-clock time.
package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"

	"golapi/internal/gateway/proto"
)

// Conn is a synchronous client session: one outstanding request at a
// time. Safe for a single goroutine; open one Conn per goroutine.
// Request and response buffers are reused across calls, so steady-state
// operations do not allocate.
type Conn struct {
	c      net.Conn
	br     *bufio.Reader
	seq    uint32
	window uint32
	home   int
	wbuf   []byte
	rbuf   []byte
}

// Dial connects and performs the Hello exchange.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{c: nc, br: bufio.NewReaderSize(nc, 4096)}
	rh, err := c.roundTrip(&proto.ReqHeader{Op: proto.OpHello}, nil, nil)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	if rh.Status != proto.StatusOK {
		nc.Close()
		return nil, fmt.Errorf("client: hello rejected: %v", rh.Status)
	}
	c.window = rh.Credits
	c.home = int(rh.Value)
	return c, nil
}

// Window returns the credit window granted by the gateway.
func (c *Conn) Window() int { return int(c.window) }

// HomeRank returns the mesh rank this session was bound to.
func (c *Conn) HomeRank() int { return c.home }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// grow returns a buffer of at least n bytes, reusing prior capacity.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// roundTrip sends one frame and reads its response. respData, when
// non-nil, receives the response payload (it must be exactly Plen long —
// callers know the expected shape); otherwise any payload is discarded.
func (c *Conn) roundTrip(h *proto.ReqHeader, payload []byte, respData []byte) (proto.RespHeader, error) {
	c.seq++
	h.Seq = c.seq
	h.Plen = uint32(len(payload))
	c.wbuf = grow(c.wbuf, proto.HeaderSize+len(payload))
	proto.PutReqHeader(c.wbuf, h)
	copy(c.wbuf[proto.HeaderSize:], payload)
	if _, err := c.c.Write(c.wbuf); err != nil {
		return proto.RespHeader{}, err
	}
	c.rbuf = grow(c.rbuf, proto.HeaderSize)
	if _, err := readFull(c.br, c.rbuf[:proto.HeaderSize]); err != nil {
		return proto.RespHeader{}, err
	}
	rh, err := proto.ParseRespHeader(c.rbuf[:proto.HeaderSize])
	if err != nil {
		return rh, err
	}
	if rh.Seq != h.Seq || rh.Op != h.Op {
		return rh, fmt.Errorf("client: response (op %d, seq %d) does not match request (op %d, seq %d)",
			rh.Op, rh.Seq, h.Op, h.Seq)
	}
	if rh.Plen > 0 {
		if respData != nil && len(respData) == int(rh.Plen) {
			_, err = readFull(c.br, respData)
		} else {
			c.rbuf = grow(c.rbuf, int(rh.Plen))
			_, err = readFull(c.br, c.rbuf[:rh.Plen])
		}
		if err != nil {
			return rh, err
		}
	}
	return rh, nil
}

// readFull is io.ReadFull without the io import creeping into the hot
// path's escape analysis (bufio.Reader.Read never returns 0, nil).
func readFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// CreateArray creates (or idempotently opens) a named rows×cols array of
// float64s and returns its handle. Each new name is one ga.World.Create on
// every rank, and GA never destroys an array: once a gateway has created
// 65 536 arrays, GA refuses the next one, and lapigate answers every new
// array name with StatusBusy. Opening an existing name still succeeds.
func (c *Conn) CreateArray(name string, rows, cols int) (uint32, proto.Status, error) {
	return c.create(proto.KindArray, name, rows, cols)
}

// CreateCounter creates (or idempotently opens) a named shared counter.
func (c *Conn) CreateCounter(name string) (uint32, proto.Status, error) {
	return c.create(proto.KindCounter, name, 0, 0)
}

func (c *Conn) create(kind uint8, name string, rows, cols int) (uint32, proto.Status, error) {
	if len(name) == 0 || len(name) > proto.MaxName {
		return 0, proto.StatusBadRequest, fmt.Errorf("client: name must be 1..%d bytes", proto.MaxName)
	}
	payload := make([]byte, 9+len(name))
	payload[0] = kind
	binary.BigEndian.PutUint32(payload[1:5], uint32(rows))
	binary.BigEndian.PutUint32(payload[5:9], uint32(cols))
	copy(payload[9:], name)
	rh, err := c.roundTrip(&proto.ReqHeader{Op: proto.OpCreate}, payload, nil)
	if err != nil {
		return 0, 0, err
	}
	return uint32(rh.Value), rh.Status, nil
}

// Open resolves a name to (handle, kind).
func (c *Conn) Open(name string) (uint32, uint8, proto.Status, error) {
	rh, err := c.roundTrip(&proto.ReqHeader{Op: proto.OpOpen}, []byte(name), nil)
	if err != nil {
		return 0, 0, 0, err
	}
	return uint32(rh.Value), uint8(rh.Value >> 32), rh.Status, nil
}

// Put writes vals to the row segment [col, col+len(vals)) of row.
func (c *Conn) Put(handle uint32, row, col int, vals []float64) (proto.Status, error) {
	c.wbuf = grow(c.wbuf, proto.HeaderSize+len(vals)*8)
	data := c.wbuf[proto.HeaderSize:]
	for i, v := range vals {
		binary.BigEndian.PutUint64(data[i*8:], math.Float64bits(v))
	}
	return c.rowOp(proto.OpPut, handle, row, col, len(vals), uint32(len(vals)*8))
}

// Acc atomically adds alpha*vals to the row segment.
func (c *Conn) Acc(handle uint32, row, col int, alpha float64, vals []float64) (proto.Status, error) {
	c.wbuf = grow(c.wbuf, proto.HeaderSize+8+len(vals)*8)
	data := c.wbuf[proto.HeaderSize:]
	binary.BigEndian.PutUint64(data[0:8], math.Float64bits(alpha))
	for i, v := range vals {
		binary.BigEndian.PutUint64(data[8+i*8:], math.Float64bits(v))
	}
	return c.rowOp(proto.OpAcc, handle, row, col, len(vals), uint32(8+len(vals)*8))
}

// rowOp sends a pre-staged payload (already in wbuf past the header).
func (c *Conn) rowOp(op uint8, handle uint32, row, col, count int, plen uint32) (proto.Status, error) {
	c.seq++
	h := proto.ReqHeader{
		Op: op, Seq: c.seq, Handle: handle,
		Row: uint32(row), Col: uint32(col), Count: uint32(count), Plen: plen,
	}
	c.wbuf = c.wbuf[:proto.HeaderSize+int(plen)]
	proto.PutReqHeader(c.wbuf, &h)
	if _, err := c.c.Write(c.wbuf); err != nil {
		return 0, err
	}
	rh, err := c.readResp(op, c.seq, nil)
	if err != nil {
		return 0, err
	}
	return rh.Status, nil
}

// Get reads len(out) elements of row starting at col.
func (c *Conn) Get(handle uint32, row, col int, out []float64) (proto.Status, error) {
	c.seq++
	h := proto.ReqHeader{
		Op: proto.OpGet, Seq: c.seq, Handle: handle,
		Row: uint32(row), Col: uint32(col), Count: uint32(len(out)),
	}
	c.wbuf = grow(c.wbuf, proto.HeaderSize)
	proto.PutReqHeader(c.wbuf, &h)
	if _, err := c.c.Write(c.wbuf[:proto.HeaderSize]); err != nil {
		return 0, err
	}
	c.rbuf = grow(c.rbuf, proto.HeaderSize+len(out)*8)
	rh, err := c.readResp(proto.OpGet, c.seq, c.rbuf[proto.HeaderSize:])
	if err != nil {
		return 0, err
	}
	if rh.Status == proto.StatusOK {
		if int(rh.Plen) != len(out)*8 {
			return rh.Status, fmt.Errorf("client: get returned %d bytes, want %d", rh.Plen, len(out)*8)
		}
		data := c.rbuf[proto.HeaderSize:]
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*8:]))
		}
	}
	return rh.Status, nil
}

// ReadInc atomically adds delta to a shared counter and returns the
// previous value.
func (c *Conn) ReadInc(handle uint32, delta int64) (int64, proto.Status, error) {
	c.seq++
	h := proto.ReqHeader{Op: proto.OpReadInc, Seq: c.seq, Handle: handle, Plen: 8}
	c.wbuf = grow(c.wbuf, proto.HeaderSize+8)
	proto.PutReqHeader(c.wbuf, &h)
	binary.BigEndian.PutUint64(c.wbuf[proto.HeaderSize:], uint64(delta))
	if _, err := c.c.Write(c.wbuf); err != nil {
		return 0, 0, err
	}
	rh, err := c.readResp(proto.OpReadInc, c.seq, nil)
	if err != nil {
		return 0, 0, err
	}
	return int64(rh.Value), rh.Status, nil
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	rh, err := c.roundTrip(&proto.ReqHeader{Op: proto.OpPing}, nil, nil)
	if err != nil {
		return err
	}
	if rh.Status != proto.StatusOK {
		return fmt.Errorf("client: ping: %v", rh.Status)
	}
	return nil
}

// Stats returns the gateway's served-request count.
func (c *Conn) Stats() (uint64, error) {
	rh, err := c.roundTrip(&proto.ReqHeader{Op: proto.OpStats}, nil, nil)
	if err != nil {
		return 0, err
	}
	if rh.Status != proto.StatusOK {
		return 0, fmt.Errorf("client: stats: %v", rh.Status)
	}
	return rh.Value, nil
}

// readResp reads one response header (verifying the echo) and its payload
// into respData when it matches the declared length.
func (c *Conn) readResp(op uint8, seq uint32, respData []byte) (proto.RespHeader, error) {
	var hdr [proto.HeaderSize]byte
	if _, err := readFull(c.br, hdr[:]); err != nil {
		return proto.RespHeader{}, err
	}
	rh, err := proto.ParseRespHeader(hdr[:])
	if err != nil {
		return rh, err
	}
	if rh.Seq != seq || rh.Op != op {
		return rh, fmt.Errorf("client: response (op %d, seq %d) does not match request (op %d, seq %d)",
			rh.Op, rh.Seq, op, seq)
	}
	if rh.Plen > 0 {
		if respData != nil && len(respData) >= int(rh.Plen) {
			_, err = readFull(c.br, respData[:rh.Plen])
		} else {
			c.rbuf = grow(c.rbuf, int(rh.Plen))
			_, err = readFull(c.br, c.rbuf[:rh.Plen])
		}
	}
	return rh, err
}
