// Package ga implements the Global Arrays toolkit of §5: a portable
// shared-memory programming model over dense 2-D double-precision arrays,
// block-distributed across the tasks of a job. Operations (put, get,
// accumulate, scatter, gather, read-and-increment, locks, sync) are
// one-sided and unilateral, like the LAPI operations they are built on.
//
// Two interchangeable backends implement the communication protocols:
//
//   - the LAPI backend (§5.3), with the paper's hybrid protocols: direct
//     remote memory copy for contiguous (1-D) requests, pipelined active
//     messages with pack/unpack for small and medium non-contiguous (2-D)
//     requests, and a switch to per-row direct transfers for very large 2-D
//     patches (≈0.5 MB);
//
//   - the MPL backend (§5.2), the paper's baseline: request messages served
//     by an interrupt-driven rcvncall handler, with the extra sender-side
//     copy MPL's in-order progress rules force (header and data must travel
//     in one message) and a packed reply for gets.
//
// The two differ only in how a request travels. At the owner, both hand a
// put, accumulate, scatter, get or gather to the one Config.apply
// (request.go), which also holds the request header and subscript codec
// they share.
//
// Arrays use inclusive element ranges [RLo,RHi]x[CLo,CHi] in row-major
// order, and user buffers are []float64 with an explicit leading dimension,
// mirroring the GA 2-dimensional API.
package ga

import (
	"fmt"
	"math"
	"time"

	"golapi/internal/exec"
	"golapi/internal/progress"
)

// Patch is an inclusive rectangular section of a global array, GA-style.
type Patch struct {
	RLo, RHi, CLo, CHi int
}

// Rows returns the number of rows in the patch.
func (p Patch) Rows() int { return p.RHi - p.RLo + 1 }

// Cols returns the number of columns in the patch.
func (p Patch) Cols() int { return p.CHi - p.CLo + 1 }

// Elems returns the number of elements in the patch.
func (p Patch) Elems() int { return p.Rows() * p.Cols() }

// Empty reports whether the patch contains no elements.
func (p Patch) Empty() bool { return p.RHi < p.RLo || p.CHi < p.CLo }

// Contiguous reports whether the patch is contiguous in row-major storage
// as a request: a single row segment. This is the paper's "1-D request".
func (p Patch) Contiguous() bool { return p.RLo == p.RHi }

func (p Patch) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d]", p.RLo, p.RHi, p.CLo, p.CHi)
}

// intersect returns the overlap of two patches (possibly empty).
func (p Patch) intersect(q Patch) Patch {
	r := Patch{
		RLo: max(p.RLo, q.RLo), RHi: min(p.RHi, q.RHi),
		CLo: max(p.CLo, q.CLo), CHi: min(p.CHi, q.CHi),
	}
	return r
}

// Config holds the GA protocol knobs (§5.3: "the thresholds used for
// switching between different protocols are selected empirically").
type Config struct {
	// MemcpyBandwidth prices GA's pack/unpack copies (bytes/sec).
	MemcpyBandwidth float64
	// AMChunkBytes is the target payload of one pipelined active message
	// for medium non-contiguous requests (§5.3.1's ≈900 bytes).
	AMChunkBytes int
	// DirectSwitchBytes: a non-contiguous request at least this large
	// switches from the AM protocol to per-row direct Put/Get (§5.4's
	// ≈0.5 MB "LAPI_Put protocol" switch).
	DirectSwitchBytes int
	// MaxRequestBytes is the MPL server's preallocated receive buffer;
	// larger requests are split (§5.3.1's buffer management concern).
	MaxRequestBytes int
	// RequestOverhead is the GA-layer software cost charged once per
	// user-level operation (array index arithmetic, protocol selection,
	// request decomposition) — the gap between raw LAPI latency and the
	// §5.4 GA latencies.
	RequestOverhead time.Duration
	// UseVectorOps, on the LAPI backend, routes non-contiguous put/get
	// through the strided PutStrided/GetStrided interface instead of the
	// AM protocol — the paper's §6 future-work extension ("providing a
	// non-contiguous interface to LAPI_Put and LAPI_Get ... removing the
	// overhead associated with multiple requests or the copy overhead in
	// the AM-based implementations"). Off by default: the paper's LAPI
	// had no such interface. Ignored by the MPL backend.
	UseVectorOps bool
}

// DefaultConfig mirrors the paper's empirically chosen thresholds.
func DefaultConfig() Config {
	return Config{
		MemcpyBandwidth:   800e6,
		AMChunkBytes:      900,
		DirectSwitchBytes: 512 * 1024,
		MaxRequestBytes:   1 << 20,
		RequestOverhead:   20 * time.Microsecond,
	}
}

// charge sleeps for the modelled time of copying n bytes.
func (c Config) charge(ctx exec.Context, n int) {
	progress.ChargeCopy(ctx, n, c.MemcpyBandwidth)
}

// backend is the communication substrate behind a World. Both backends
// implement the same one-sided operation set against their library.
type backend interface {
	self() int
	n() int
	// createArray performs the collective allocation for array a (local
	// block allocation plus any address exchange).
	createArray(ctx exec.Context, a *Array) error
	put(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld int, off int) error
	get(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld int, off int) error
	acc(ctx exec.Context, a *Array, owner int, sub Patch, buf []float64, ld int, off int, alpha float64) error
	scatter(ctx exec.Context, a *Array, owner int, idx []int32, vals []float64) error
	gather(ctx exec.Context, a *Array, owner int, idx []int32, out []float64) error
	readInc(ctx exec.Context, c *SharedCounter, inc int64) (int64, error)
	lock(ctx exec.Context, m *MutexSet, i int) error
	unlock(ctx exec.Context, m *MutexSet, i int) error
	// fence waits until all operations this task initiated are complete
	// at their targets (§5.3.2's generalized counters).
	fence(ctx exec.Context) error
	barrier(ctx exec.Context) error
	// block returns this task's patch of a and its storage: big-endian
	// float64s, row-major, the patch's column count as leading dimension.
	block(a *Array) (Patch, []byte)
	newCounter(ctx exec.Context, c *SharedCounter) error
	newMutexes(ctx exec.Context, m *MutexSet) error
	// release gives back what the backend holds for the life of the job
	// (World.Close).
	release()
}

// World is a task's handle to the GA runtime (one per task, SPMD).
type World struct {
	cfg Config
	b   backend

	arrays    []*Array
	counters  int // SharedCounters created (SPMD ids)
	mutexSets int
	stage     *Array // lazily created 1 x N row for reductions
}

// Self returns this task's rank.
func (w *World) Self() int { return w.b.self() }

// N returns the job size.
func (w *World) N() int { return w.b.n() }

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Array is a dense rows x cols float64 global array, block-distributed
// over an r x c process grid.
type Array struct {
	w          *World
	handle     int
	rows, cols int
	gridR      int // process grid rows
	gridC      int // process grid cols
	blockR     int // block rows (ceil division)
	blockC     int // block cols
}

// Create collectively allocates a rows x cols global array. Every task must
// call Create in the same order with the same dimensions. Arrays are never
// destroyed, and every GA request names its array in a 16-bit header
// field, so a world holds at most 65 536 arrays: the 65 537th Create
// returns an error (TestCreateRefusesA17BitHandle).
func (w *World) Create(ctx exec.Context, rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("ga: Create(%d,%d): dimensions must be positive", rows, cols)
	}
	if len(w.arrays) > math.MaxUint16 {
		return nil, fmt.Errorf("ga: Create: a request names its array in 16 bits, and %d exist", len(w.arrays))
	}
	gr, gc := processGrid(w.N())
	a := &Array{
		w:      w,
		handle: len(w.arrays),
		rows:   rows,
		cols:   cols,
		gridR:  gr,
		gridC:  gc,
		blockR: ceilDiv(rows, gr),
		blockC: ceilDiv(cols, gc),
	}
	w.arrays = append(w.arrays, a)
	if err := w.b.createArray(ctx, a); err != nil {
		return nil, err
	}
	return a, nil
}

// processGrid factors n into the most square r x c grid with r*c == n.
func processGrid(n int) (r, c int) {
	r = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			r = d
		}
	}
	return r, n / r
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Dims returns the global dimensions.
func (a *Array) Dims() (rows, cols int) { return a.rows, a.cols }

// Handle returns the array's SPMD-wide identifier.
func (a *Array) Handle() int { return a.handle }

// Distribution returns the patch owned by rank (possibly empty at the
// grid's ragged edge) — GA's full locality information (§5.1).
func (a *Array) Distribution(rank int) Patch {
	gr, gc := rank/a.gridC, rank%a.gridC
	p := Patch{
		RLo: gr * a.blockR, RHi: min((gr+1)*a.blockR, a.rows) - 1,
		CLo: gc * a.blockC, CHi: min((gc+1)*a.blockC, a.cols) - 1,
	}
	return p
}

// Owner returns the rank owning element (i, j).
func (a *Array) Owner(i, j int) int {
	return (i/a.blockR)*a.gridC + j/a.blockC
}

// checkPatch validates patch bounds against the array.
func (a *Array) checkPatch(p Patch) error {
	if p.Empty() {
		return fmt.Errorf("ga: empty patch %v", p)
	}
	if p.RLo < 0 || p.CLo < 0 || p.RHi >= a.rows || p.CHi >= a.cols {
		return fmt.Errorf("ga: patch %v outside %dx%d array", p, a.rows, a.cols)
	}
	return nil
}

// subRequest is one per-owner piece of a decomposed request.
type subRequest struct {
	owner int
	sub   Patch
}

// decompose appends the per-owner subpatches of a patch to subs. With a
// block distribution a rectangular patch intersects each owner in at most
// one rectangle. Callers pass a small stack array, so a request touching
// few owners allocates nothing.
func (a *Array) decompose(p Patch, subs []subRequest) []subRequest {
	for gr := p.RLo / a.blockR; gr <= p.RHi/a.blockR && gr < a.gridR; gr++ {
		for gc := p.CLo / a.blockC; gc <= p.CHi/a.blockC && gc < a.gridC; gc++ {
			owner := gr*a.gridC + gc
			sub := p.intersect(a.Distribution(owner))
			if !sub.Empty() {
				subs = append(subs, subRequest{owner: owner, sub: sub})
			}
		}
	}
	return subs
}

// bufOffset returns the index in a request buffer (with leading dimension
// ld, describing patch p) of subpatch sub's top-left element.
func bufOffset(p, sub Patch, ld int) int {
	return (sub.RLo-p.RLo)*ld + (sub.CLo - p.CLo)
}

// Put copies buf (row-major, leading dimension ld) into the array section
// p. One-sided and non-blocking in the GA sense: it returns when buf is
// reusable; completion at the target is covered by Fence/Sync.
func (a *Array) Put(ctx exec.Context, p Patch, buf []float64, ld int) error {
	if err := a.checkRequest(p, buf, ld); err != nil {
		return err
	}
	a.w.chargeRequest(ctx)
	var subs [4]subRequest
	for _, s := range a.decompose(p, subs[:0]) {
		if err := a.w.b.put(ctx, a, s.owner, s.sub, buf, ld, bufOffset(p, s.sub, ld)); err != nil {
			return err
		}
	}
	return nil
}

// Get copies the array section p into buf (row-major, leading dimension
// ld). Blocking: the data is present when Get returns (§5.4).
func (a *Array) Get(ctx exec.Context, p Patch, buf []float64, ld int) error {
	if err := a.checkRequest(p, buf, ld); err != nil {
		return err
	}
	a.w.chargeRequest(ctx)
	var subs [4]subRequest
	for _, s := range a.decompose(p, subs[:0]) {
		if err := a.w.b.get(ctx, a, s.owner, s.sub, buf, ld, bufOffset(p, s.sub, ld)); err != nil {
			return err
		}
	}
	return nil
}

// Acc atomically accumulates alpha*buf into the array section p (the
// commutative DAXPY-like reduction of §5.1); concurrent Accs to
// overlapping sections are safe and order-free.
func (a *Array) Acc(ctx exec.Context, p Patch, buf []float64, ld int, alpha float64) error {
	if err := a.checkRequest(p, buf, ld); err != nil {
		return err
	}
	a.w.chargeRequest(ctx)
	var subs [4]subRequest
	for _, s := range a.decompose(p, subs[:0]) {
		if err := a.w.b.acc(ctx, a, s.owner, s.sub, buf, ld, bufOffset(p, s.sub, ld), alpha); err != nil {
			return err
		}
	}
	return nil
}

func (a *Array) checkRequest(p Patch, buf []float64, ld int) error {
	if err := a.checkPatch(p); err != nil {
		return err
	}
	if ld < p.Cols() {
		return fmt.Errorf("ga: leading dimension %d < patch width %d", ld, p.Cols())
	}
	need := (p.Rows()-1)*ld + p.Cols()
	if len(buf) < need {
		return fmt.Errorf("ga: buffer of %d elements too small for patch %v with ld %d (need %d)", len(buf), p, ld, need)
	}
	return nil
}

// Scatter writes vals[k] to element (rows[k], cols[k]) for every k —
// irregular one-sided updates (§5.1).
func (a *Array) Scatter(ctx exec.Context, rows, cols []int, vals []float64) error {
	groups, err := a.groupSubscripts(rows, cols)
	if err != nil {
		return err
	}
	if len(vals) != len(rows) {
		return fmt.Errorf("ga: Scatter: %d values for %d subscripts", len(vals), len(rows))
	}
	for owner, g := range groups {
		if len(g.ks) == 0 {
			continue
		}
		v := make([]float64, len(g.ks))
		for i, k := range g.ks {
			v[i] = vals[k]
		}
		if err := a.w.b.scatter(ctx, a, owner, g.idx, v); err != nil {
			return err
		}
	}
	return nil
}

// Gather reads element (rows[k], cols[k]) into out[k] for every k.
// Blocking, like Get.
func (a *Array) Gather(ctx exec.Context, rows, cols []int, out []float64) error {
	groups, err := a.groupSubscripts(rows, cols)
	if err != nil {
		return err
	}
	if len(out) != len(rows) {
		return fmt.Errorf("ga: Gather: %d outputs for %d subscripts", len(out), len(rows))
	}
	for owner, g := range groups {
		if len(g.ks) == 0 {
			continue
		}
		vals := make([]float64, len(g.ks))
		if err := a.w.b.gather(ctx, a, owner, g.idx, vals); err != nil {
			return err
		}
		for i, k := range g.ks {
			out[k] = vals[i]
		}
	}
	return nil
}

type subscriptGroup struct {
	idx []int32 // flattened local (i,j) pairs: i0,j0,i1,j1,...
	ks  []int   // positions in the caller's arrays
}

// groupSubscripts splits subscripts by owner rank, so that Scatter and
// Gather send their per-owner requests in rank order.
func (a *Array) groupSubscripts(rows, cols []int) ([]subscriptGroup, error) {
	if len(rows) != len(cols) {
		return nil, fmt.Errorf("ga: %d row subscripts vs %d col subscripts", len(rows), len(cols))
	}
	groups := make([]subscriptGroup, a.w.N())
	for k := range rows {
		i, j := rows[k], cols[k]
		if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
			return nil, fmt.Errorf("ga: subscript (%d,%d) outside %dx%d array", i, j, a.rows, a.cols)
		}
		g := &groups[a.Owner(i, j)]
		g.idx = append(g.idx, int32(i), int32(j))
		g.ks = append(g.ks, k)
	}
	return groups, nil
}

// At reads local element (i, j) of the array (global indices; must be owned
// by this task). GA's Access-style local view.
func (a *Array) At(i, j int) float64 { return getF64(a.elem(i, j)) }

// SetLocal writes local element (i, j) (global indices; must be owned by
// this task).
func (a *Array) SetLocal(i, j int, v float64) { putF64(a.elem(i, j), v) }

// elem returns the storage of local element (i, j).
func (a *Array) elem(i, j int) []byte {
	if a.Owner(i, j) != a.w.Self() {
		panic(fmt.Sprintf("ga: element (%d,%d) owned by rank %d, not %d", i, j, a.Owner(i, j), a.w.Self()))
	}
	local, blk := a.w.b.block(a)
	return blk[blockIndex(local, i, j):]
}

// chargeRequest applies the per-operation GA software overhead.
func (w *World) chargeRequest(ctx exec.Context) {
	if w.cfg.RequestOverhead > 0 {
		ctx.Sleep(w.cfg.RequestOverhead)
	}
}

// Fence blocks until all operations this task initiated have completed at
// their targets (§5.3.2).
func (w *World) Fence(ctx exec.Context) error { return w.b.fence(ctx) }

// Sync is GA's barrier: a fence plus a global barrier. On return, all
// operations issued by all tasks before their Sync are complete.
func (w *World) Sync(ctx exec.Context) error {
	if err := w.b.fence(ctx); err != nil {
		return err
	}
	return w.b.barrier(ctx)
}

// Close releases the resources the world holds for the life of its job (on
// the MPL backend, the request server's receive buffer, which goes back to
// a free list for the next job). Call it once the job has run to completion
// — after cluster.Job.Run has returned — and not before: until then a
// peer's request can still land in the buffer. The world must not be used
// afterwards. A world that is never closed is simply collected.
func (w *World) Close() { w.b.release() }

// SharedCounter is an atomically updatable global integer (GA's
// read-and-increment, the dynamic load-balancing primitive of §5.1). It is
// hosted on one rank, round-robin by creation order.
type SharedCounter struct {
	w     *World
	id    int
	owner int
	// backend-specific location.
	loc uint64
}

// CreateCounter collectively creates a shared counter initialized to zero.
func (w *World) CreateCounter(ctx exec.Context) (*SharedCounter, error) {
	c := &SharedCounter{w: w, id: w.counters, owner: w.counters % w.N()}
	w.counters++
	if err := w.b.newCounter(ctx, c); err != nil {
		return nil, err
	}
	return c, nil
}

// ReadInc atomically adds inc to the counter and returns the PREVIOUS
// value.
func (c *SharedCounter) ReadInc(ctx exec.Context, inc int64) (int64, error) {
	return c.w.b.readInc(ctx, c, inc)
}

// MutexSet is a collectively created set of global mutexes (§5.1's lock
// operations), distributed round-robin across ranks.
type MutexSet struct {
	w    *World
	id   int
	n    int
	locs []uint64 // backend-specific per-mutex locations
}

// CreateMutexes collectively creates n global mutexes.
func (w *World) CreateMutexes(ctx exec.Context, n int) (*MutexSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ga: CreateMutexes(%d)", n)
	}
	m := &MutexSet{w: w, id: w.mutexSets, n: n}
	w.mutexSets++
	if err := w.b.newMutexes(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Lock acquires mutex i, blocking until available.
func (m *MutexSet) Lock(ctx exec.Context, i int) error {
	if i < 0 || i >= m.n {
		return fmt.Errorf("ga: Lock(%d): %d mutexes", i, m.n)
	}
	return m.w.b.lock(ctx, m, i)
}

// Unlock releases mutex i.
func (m *MutexSet) Unlock(ctx exec.Context, i int) error {
	if i < 0 || i >= m.n {
		return fmt.Errorf("ga: Unlock(%d): %d mutexes", i, m.n)
	}
	return m.w.b.unlock(ctx, m, i)
}

// mutexOwner returns the rank hosting mutex i of set m.
func (m *MutexSet) mutexOwner(i int) int { return (m.id + i) % m.w.N() }
