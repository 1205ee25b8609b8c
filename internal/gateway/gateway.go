// Package gateway implements lapigate: a front-end TCP server that
// multiplexes many external client sessions onto an in-process LAPI mesh,
// exposing a KV / Global-Arrays surface (create/open/put/get/acc/read-inc
// on named arrays and counters) over the compact binary protocol in
// gateway/proto.
//
// This is the layering the paper argues for, turned into a serving stack:
// clients speak a small request/response protocol to the gateway; the
// gateway translates each opcode into one-sided LAPI operations (Put, Get,
// Rmw, Amsend) with completion tracked by counters, against arrays whose
// allocation, distribution, and address exchange come from internal/ga and
// whose control plane (startup barrier, create broadcast, shutdown
// aggregation) comes from internal/collective.
//
// Concurrency model. The mesh is a cluster.TCPJob: one exec.RealRuntime
// (serialization domain) per rank. Everything that touches rank state —
// session requests, the per-rank control activity, AM handlers — runs
// serialized on that rank's runtime, so protocol code keeps the
// single-threaded view LAPI guarantees. The pieces around the mesh (one
// goroutine per client session, the accept loop, the registry goroutine)
// are plain goroutines that enter a rank's domain only via
// RealRuntime.Do/Post — a session runs each request to completion on its
// own goroutine under the rank lock — and are reached from it only via
// buffered channels sized so serialized code never blocks on them.
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
	"golapi/internal/collective"
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
	// CreateBacklog bounds queued create requests before StatusBusy.
	CreateBacklog int
}

// DefaultConfig returns a config sized for local serving.
func DefaultConfig() Config {
	return Config{
		Ranks:         2,
		Addr:          "127.0.0.1:0",
		Window:        32,
		MaxArrayElems: 1 << 22,
		CreateBacklog: 64,
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
	createCh chan *createReq

	nextRank atomic.Uint32
	sessions atomic.Int64 // live sessions
	served   atomic.Int64 // requests answered, server-wide
	frames   atomic.Int64 // pooled frame buffers currently held
	closing  atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	sessWG sync.WaitGroup // session goroutines
	srvWG  sync.WaitGroup // accept loop + registry

	// meshServed is the collective allreduce of per-rank served counts,
	// valid after Close.
	meshServed int64
}

// New builds the mesh, brings every rank's GA world and collective
// communicator up, and starts accepting clients.
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
	if cfg.CreateBacklog <= 0 {
		cfg.CreateBacklog = DefaultConfig().CreateBacklog
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
		cfg:      cfg,
		job:      job,
		ranks:    make([]*rankState, cfg.Ranks),
		createCh: make(chan *createReq, cfg.CreateBacklog),
		conns:    make(map[net.Conn]struct{}),
	}
	srv.cat.Store(&catalog{byName: map[string]uint32{}})
	for i := 0; i < cfg.Ranks; i++ {
		srv.ranks[i] = newRankState(srv, i, job.Runtime(i), job.Endpoint(i), job.Tasks[i])
	}
	// Bring the ranks up: each control activity registers the acc handler,
	// creates the GA world and the collective communicator, then serves
	// control commands. Registration order is identical on every rank.
	initErr := make([]error, cfg.Ranks)
	var initWG sync.WaitGroup
	initWG.Add(cfg.Ranks)
	for _, rs := range srv.ranks {
		rs := rs
		rs.rt.Go("gate-ctl", func(ctx exec.Context) {
			rs.control(ctx, &initWG, &initErr[rs.idx])
		})
	}
	initWG.Wait()
	for _, err := range initErr {
		if err != nil {
			srv.shutdownMesh(false)
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		srv.shutdownMesh(false)
		return nil, err
	}
	srv.ln = ln
	srv.srvWG.Add(2)
	go srv.acceptLoop()
	go srv.registry()
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

// MeshServed returns the collective sum of per-rank served counts,
// aggregated with an Allreduce at shutdown. Valid after Close.
func (srv *Server) MeshServed() int64 { return srv.meshServed }

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
	defer srv.srvWG.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if srv.closing.Load() {
			conn.Close()
			continue
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
// session to wind down, aggregate per-rank counts with a collective
// allreduce, and shut the mesh down.
func (srv *Server) Close() error {
	if srv.closing.Swap(true) {
		return nil
	}
	srv.ln.Close()
	srv.connMu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.connMu.Unlock()
	// Each session answers the request in hand, then its next read (or
	// write) fails and it exits. When sessWG clears, no session can be
	// waiting on the registry anymore.
	srv.sessWG.Wait()
	close(srv.createCh)
	srv.srvWG.Wait()
	srv.meshServed = srv.shutdownMesh(true)
	return nil
}

// shutdownMesh stops the control activities (collectively aggregating
// served counts when aggregate is set), closes the tasks, and drains the
// runtimes. Returns the aggregate.
func (srv *Server) shutdownMesh(aggregate bool) int64 {
	res := make(chan ctlRes, len(srv.ranks))
	for _, rs := range srv.ranks {
		rs := rs
		cmd := ctlCmd{kind: cmdShutdown, res: res}
		if !aggregate {
			cmd.kind = cmdQuit
		}
		rs.rt.Post(func() { rs.post(cmd) })
	}
	var total int64
	for range srv.ranks {
		r := <-res
		if r.rank == 0 {
			total = r.sum
		}
	}
	srv.job.Shutdown()
	for _, rs := range srv.ranks {
		rs.rt.Drain()
	}
	return total
}

// gaConfig is the zero-cost GA configuration for the gateway's control
// plane: the mesh runs on real wall-clock runtimes, so every modeled cost
// must be zero or it would be slept for real.
func gaConfig() ga.Config {
	return ga.Config{
		MemcpyBandwidth:   0, // free
		AMChunkBytes:      900,
		DirectSwitchBytes: 512 * 1024,
		RequestOverhead:   0,
	}
}

func commConfig() collective.Config {
	return collective.Config{MaxBytes: 4096, RingThreshold: 65536}
}
