package client

// The closed-loop load generator: N concurrent sessions, each pipelining
// batches of requests up to its credit window. It is a soak gate — every
// request answered, none in error, throughput — not a latency instrument:
// with every session's window in flight a response's delay is the queue
// the generator itself built. benchmark/'s open loop measures latency.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"golapi/internal/gateway/proto"
)

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	Addr     string
	Sessions int
	// Requests is the total request count, divided among sessions.
	Requests int
	// Pipeline is the per-session depth (clamped to the granted window).
	Pipeline int
	// Rows, Cols shape the benchmark array; Seg is elements per put/get.
	Rows, Cols, Seg int
	// Seed scrambles each worker's access pattern.
	Seed uint64
}

// Result is a load run's outcome.
type Result struct {
	Sessions int
	Requests int64
	Errors   int64
	Elapsed  time.Duration
	ReqPs    float64
}

// Run connects cfg.Sessions sessions, creates the shared benchmark array
// and counter, drives the request mix (40% put / 40% get / 20% read-inc),
// and aggregates the outcome counts and throughput.
func Run(cfg LoadConfig) (Result, error) {
	if cfg.Sessions <= 0 || cfg.Requests <= 0 {
		return Result{}, fmt.Errorf("loadgen: Sessions and Requests must be positive")
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 16
	}
	if cfg.Rows <= 0 || cfg.Cols <= 0 || cfg.Seg <= 0 || cfg.Seg > cfg.Cols {
		return Result{}, fmt.Errorf("loadgen: bad array shape %dx%d seg %d", cfg.Rows, cfg.Cols, cfg.Seg)
	}

	// Control session: create the shared objects (create-or-open, so
	// concurrent runs against a live gateway are fine).
	ctl, err := Dial(cfg.Addr)
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: dial: %w", err)
	}
	defer ctl.Close()
	ah, st, err := ctl.CreateArray("loadgen.A", cfg.Rows, cfg.Cols)
	if err != nil || st != proto.StatusOK {
		return Result{}, fmt.Errorf("loadgen: create array: %v %v", st, err)
	}
	ch, st, err := ctl.CreateCounter("loadgen.n")
	if err != nil || st != proto.StatusOK {
		return Result{}, fmt.Errorf("loadgen: create counter: %v %v", st, err)
	}

	workers := make([]*worker, cfg.Sessions)
	for i := range workers {
		n := cfg.Requests / cfg.Sessions
		if i < cfg.Requests%cfg.Sessions {
			n++
		}
		w, err := newWorker(cfg, i, n, ah, ch)
		if err != nil {
			for _, p := range workers[:i] {
				p.close()
			}
			return Result{}, fmt.Errorf("loadgen: session %d: %w", i, err)
		}
		workers[i] = w
	}

	var wg sync.WaitGroup
	var errs atomic.Int64
	start := make(chan struct{})
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.close()
			<-start
			errs.Add(w.run())
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	var done int64
	for _, w := range workers {
		done += int64(w.recvd)
	}
	res := Result{
		Sessions: cfg.Sessions,
		Requests: done,
		Errors:   errs.Load(),
		Elapsed:  elapsed,
	}
	if elapsed > 0 {
		res.ReqPs = float64(done) / elapsed.Seconds()
	}
	return res, nil
}

// worker is one pipelined session.
type worker struct {
	cfg    LoadConfig
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	n      int // requests to issue
	recvd  int
	window int
	ah, ch uint32
	rng    uint64
	seq    uint32
	wbuf   []byte
}

func newWorker(cfg LoadConfig, idx, n int, ah, ch uint32) (*worker, error) {
	conn, err := Dial(cfg.Addr)
	if err != nil {
		return nil, err
	}
	depth := cfg.Pipeline
	if w := conn.Window(); depth > w {
		depth = w
	}
	w := &worker{
		cfg:    cfg,
		c:      conn.c,
		br:     conn.br,
		bw:     bufio.NewWriterSize(conn.c, 4096),
		n:      n,
		window: depth,
		ah:     ah,
		ch:     ch,
		rng:    cfg.Seed*2654435761 + uint64(idx)*0x9E3779B97F4A7C15 + 1,
		wbuf:   make([]byte, proto.HeaderSize+8+cfg.Seg*8),
	}
	return w, nil
}

func (w *worker) close() { w.c.Close() }

func (w *worker) next() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

// run issues w.n requests in pipelined batches. Returns the number of
// non-OK responses.
func (w *worker) run() int64 {
	var errs int64
	sent := 0
	var hdr [proto.HeaderSize]byte
	for w.recvd < w.n {
		batch := w.window
		if left := w.n - sent; batch > left {
			batch = left
		}
		for i := 0; i < batch; i++ {
			if err := w.send(sent); err != nil {
				return errs + int64(w.n-w.recvd)
			}
			sent++
		}
		if err := w.bw.Flush(); err != nil {
			return errs + int64(w.n-w.recvd)
		}
		for i := 0; i < batch; i++ {
			rh, err := w.readResp(hdr[:])
			if err != nil {
				return errs + int64(w.n-w.recvd)
			}
			if rh.Status != proto.StatusOK {
				errs++
			}
			w.recvd++
		}
	}
	return errs
}

// send stages request k of the mix into the write buffer.
func (w *worker) send(k int) error {
	cfg := &w.cfg
	r := w.next()
	row := int(r % uint64(cfg.Rows))
	col := int((r >> 20) % uint64(cfg.Cols-cfg.Seg+1))
	w.seq++
	h := proto.ReqHeader{Seq: w.seq, Handle: w.ah,
		Row: uint32(row), Col: uint32(col), Count: uint32(cfg.Seg)}
	switch k % 5 {
	case 0, 1: // put
		h.Op = proto.OpPut
		h.Plen = uint32(cfg.Seg * 8)
		proto.PutReqHeader(w.wbuf, &h)
		data := w.wbuf[proto.HeaderSize:]
		for i := 0; i < cfg.Seg; i++ {
			binary.BigEndian.PutUint64(data[i*8:], math.Float64bits(float64(r%1000)))
		}
		_, err := w.bw.Write(w.wbuf[:proto.HeaderSize+cfg.Seg*8])
		return err
	case 2, 3: // get
		h.Op = proto.OpGet
		proto.PutReqHeader(w.wbuf, &h)
		_, err := w.bw.Write(w.wbuf[:proto.HeaderSize])
		return err
	default: // read-inc
		h.Op = proto.OpReadInc
		h.Handle = w.ch
		h.Row, h.Col, h.Count = 0, 0, 0
		h.Plen = 8
		proto.PutReqHeader(w.wbuf, &h)
		binary.BigEndian.PutUint64(w.wbuf[proto.HeaderSize:], 1)
		_, err := w.bw.Write(w.wbuf[:proto.HeaderSize+8])
		return err
	}
}

// readResp consumes one response (header + payload) off the session.
func (w *worker) readResp(hdr []byte) (proto.RespHeader, error) {
	if _, err := readFull(w.br, hdr); err != nil {
		return proto.RespHeader{}, err
	}
	rh, err := proto.ParseRespHeader(hdr)
	if err != nil {
		return rh, err
	}
	for skip := int(rh.Plen); skip > 0; {
		n := skip
		if n > len(w.wbuf) {
			n = len(w.wbuf)
		}
		// Discard into the staging buffer; its contents are rebuilt per send.
		m, err := w.br.Read(w.wbuf[:n])
		if err != nil {
			return rh, err
		}
		skip -= m
	}
	return rh, nil
}
