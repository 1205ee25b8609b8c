// Package gateway implements lapigate: a front-end TCP server that
// multiplexes many external client sessions onto an in-process LAPI mesh,
// exposing a KV / Global-Arrays surface (create/open/put/get/acc/read-inc
// on named arrays and counters) over the compact binary protocol in
// gateway/proto.
//
// This is the layering the paper argues for, turned into a serving stack:
// clients speak a small request/response protocol to the gateway; the
// gateway translates each array opcode into one of internal/ga's row
// operations, which are one-sided LAPI operations (Put, Get, and an Amsend
// of GA's own accumulate request) with completion tracked by counters, and
// a read-and-increment into a LAPI Rmw on the counter's word. Bring-up is
// ga.NewLAPIWorld, whose closing barrier has every rank up before any client
// is served, and the shutdown sum is one lapi.ExchangeWord.
//
// Concurrency model. The mesh is a cluster.TCPJob: one exec.RealRuntime
// (serialization domain) per rank. Everything that touches rank state —
// session requests, the control plane's rank activities, AM handlers —
// runs serialized on that rank's runtime, so protocol code keeps the
// single-threaded view LAPI guarantees. The pieces around the mesh (one
// goroutine per client session and the accept loop) are plain goroutines
// that enter a rank's domain only through RealRuntime.Do — a session runs
// each request to completion on its own goroutine under the rank lock —
// or, for the collective steps (bring-up, Create, Close's sum),
// through everyRank, which runs one short activity per rank and joins
// them. Each of those activities ends with its step, so nothing of the
// control plane stays parked between steps.
//
// Frame buffers on the hot path come from the mesh endpoints' pooled
// Alloc/Release (the fabric.Transport contract), so a steady-state request
// costs no heap growth and `lapivet buflifetime` can track ownership.
package gateway

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/stats"
)

// Config parameterizes a gateway.
type Config struct {
	// Ranks is the size of the backing LAPI mesh.
	Ranks int
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Window is the per-session credit window: the number of requests a
	// client may pipeline, sent before their responses are read. It is
	// granted in every response header. The server holds one request per
	// session at a time and reads the next after answering it, so requests
	// beyond the window are not an error: they wait in the socket, and
	// TCP flow control stops the client.
	Window int
	// MaxArrayElems bounds rows*cols of a single created array.
	MaxArrayElems int
}

// DefaultConfig returns a config sized for local serving.
func DefaultConfig() Config {
	return Config{
		Ranks:         2,
		Addr:          "127.0.0.1:0",
		Window:        32,
		MaxArrayElems: 1 << 22,
	}
}

// Server is a running gateway: a LAPI mesh, a listener, and the session
// machinery between them.
type Server struct {
	cfg   Config
	job   *cluster.TCPJob
	ranks []*rankState
	ln    net.Listener

	cat      atomic.Pointer[catalog]
	createMu sync.Mutex // held for a whole create; see create

	nextRank atomic.Uint32
	sessions atomic.Int64 // live sessions
	served   atomic.Int64 // requests answered, server-wide
	frames   atomic.Int64 // pooled frame buffers currently held
	closing  atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	sessWG   sync.WaitGroup // session goroutines
	acceptWG sync.WaitGroup // accept loop

	// meshServed is the sum of per-rank served counts, exchanged across
	// the mesh; valid after Close.
	meshServed atomic.Int64
}

// New builds the mesh, brings every rank's GA world up, and starts
// accepting clients.
func New(cfg Config) (*Server, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("gateway: Ranks must be positive, got %d", cfg.Ranks)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("gateway: Window must be positive, got %d", cfg.Window)
	}
	if cfg.MaxArrayElems <= 0 {
		cfg.MaxArrayElems = DefaultConfig().MaxArrayElems
	}
	// A gateway payload tops out at proto.MaxPayload (~64 KB), below the
	// TCP transport's auto crossover (2×MaxPacket = 128 KB) — so pin the
	// rendezvous limit at 32 KB: the upper half of the request size range
	// rides the zero-copy direct lane instead of being chunked through
	// pooled buffers.
	lcfg := lapi.ZeroCost()
	lcfg.RndvLimit = 32 << 10
	job, err := cluster.NewTCPLAPI(cfg.Ranks, lcfg)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:   cfg,
		job:   job,
		ranks: make([]*rankState, cfg.Ranks),
		conns: make(map[net.Conn]struct{}),
	}
	srv.cat.Store(&catalog{byName: map[string]uint32{}})
	for i := range srv.ranks {
		srv.ranks[i] = &rankState{srv: srv, idx: i, rt: job.Runtime(i), ep: job.Endpoint(i), t: job.Tasks[i]}
	}
	errs := make([]error, cfg.Ranks)
	srv.everyRank("gate-up", func(ctx exec.Context, rs *rankState) {
		rs.w, errs[rs.idx] = ga.NewLAPIWorld(ctx, rs.t, gaConfig())
	})
	for _, err := range errs {
		if err != nil {
			srv.shutdownMesh()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		srv.shutdownMesh()
		return nil, err
	}
	srv.ln = ln
	srv.acceptWG.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

// Addr returns the listener's address.
func (srv *Server) Addr() string { return srv.ln.Addr().String() }

// Sessions returns the number of live client sessions.
func (srv *Server) Sessions() int64 { return srv.sessions.Load() }

// Served returns the number of requests answered so far.
func (srv *Server) Served() int64 { return srv.served.Load() }

// InflightFrames returns the number of pooled frame buffers the gateway
// currently holds (allocated and not yet released). Zero when idle; the
// churn test uses it to prove abrupt disconnects leak nothing.
func (srv *Server) InflightFrames() int64 { return srv.frames.Load() }

// MeshServed returns the sum of per-rank served counts, exchanged across
// the mesh at shutdown. Valid after Close.
func (srv *Server) MeshServed() int64 { return srv.meshServed.Load() }

// RndvMsgs sums, across the mesh, the messages that took the rendezvous
// path (RTS/CTS handshake + zero-copy direct placement) instead of being
// chunked through pooled buffers. Tests use it to prove large gateway
// transfers actually engage the protocol.
func (srv *Server) RndvMsgs() int64 {
	var n int64
	for _, t := range srv.job.Tasks {
		n += t.Counters.Get(stats.RndvMsgs)
	}
	return n
}

func (srv *Server) acceptLoop() {
	defer srv.acceptWG.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed
		}
		srv.connMu.Lock()
		srv.conns[conn] = struct{}{}
		srv.connMu.Unlock()
		rank := int(srv.nextRank.Add(1)-1) % len(srv.ranks)
		startSession(srv, srv.ranks[rank], conn)
	}
}

func (srv *Server) dropConn(conn net.Conn) {
	srv.connMu.Lock()
	delete(srv.conns, conn)
	srv.connMu.Unlock()
}

// Close drains the gateway: stop accepting, sever clients, wait for every
// session to wind down, sum the per-rank counts over the mesh, and shut the
// mesh down.
func (srv *Server) Close() error {
	if srv.closing.Swap(true) {
		return nil
	}
	// Once the accept loop has returned, every session's conn is in conns.
	srv.ln.Close()
	srv.acceptWG.Wait()
	srv.connMu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.connMu.Unlock()
	// Each session answers the request in hand (a create included), then
	// its next read or write fails and it exits.
	srv.sessWG.Wait()
	srv.everyRank("gate-close", func(ctx exec.Context, rs *rankState) {
		words, err := rs.t.ExchangeWord(ctx, uint64(rs.served.Load()))
		if err == nil && rs.idx == 0 {
			var sum int64
			for _, w := range words {
				sum += int64(w)
			}
			srv.meshServed.Store(sum)
		}
	})
	srv.shutdownMesh()
	return nil
}

// shutdownMesh closes the tasks and drains the runtimes.
func (srv *Server) shutdownMesh() {
	srv.job.Shutdown()
	for _, rs := range srv.ranks {
		rs.rt.Drain()
	}
}

// gaConfig is the zero-cost GA configuration of the gateway's worlds: the
// mesh runs on real wall-clock runtimes, so every modeled cost must be zero
// or it would be slept for real.
func gaConfig() ga.Config {
	return ga.Config{
		MemcpyBandwidth:   0, // free
		AMChunkBytes:      900,
		DirectSwitchBytes: 512 * 1024,
		RequestOverhead:   0,
	}
}
