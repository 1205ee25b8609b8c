package bench

import (
	"fmt"
	"math"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/mpl"
	"golapi/internal/parallel"
	"golapi/internal/switchnet"
)

// runGA executes main on an n-task GA world over the chosen backend
// ("LAPI" or "MPL"), on the default calibrated fabric.
func runGA(backend string, n int, main func(ctx exec.Context, w *ga.World)) error {
	// The worlds are closed once the job has run to completion, never by
	// their own tasks: a task that is done may still be serving peers.
	worlds := make([]*ga.World, 0, n)
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()
	switch backend {
	case "LAPI":
		c, err := cluster.NewSimDefault(n)
		if err != nil {
			return err
		}
		return c.Run(func(ctx exec.Context, t *lapi.Task) {
			w, err := ga.NewLAPIWorld(ctx, t, ga.DefaultConfig())
			if err != nil {
				panic(err)
			}
			worlds = append(worlds, w)
			main(ctx, w)
		})
	case "MPL":
		mcfg := mpi.DefaultConfig()
		mcfg.EagerLimit = mcfg.MaxEagerLimit // MPL's large buffer pool (§5.4)
		c, err := cluster.NewSimMPL(n, switchnet.DefaultConfig(), mcfg)
		if err != nil {
			return err
		}
		return c.Run(func(ctx exec.Context, t *mpl.Task) {
			w, err := ga.NewMPLWorld(ctx, t, ga.DefaultConfig())
			if err != nil {
				panic(err)
			}
			worlds = append(worlds, w)
			main(ctx, w)
		})
	default:
		return fmt.Errorf("bench: unknown backend %q", backend)
	}
}

// GALatency reproduces the §5.4 single-element (8-byte) latency table:
// "the latency measured for transfer of a single element of a
// double-precision array is 94.2 µs in GA get and 49.6 µs for put in the
// LAPI implementation; in the MPL implementation, the corresponding
// numbers are 221 µs for GA get and 54.6 µs for put."
type GALatency struct {
	LAPIGet, LAPIPut time.Duration
	MPLGet, MPLPut   time.Duration
}

// MeasureGALatency runs the 4-node single-element benchmark on both
// backends (two independent simulations, fanned out on px's workers).
func MeasureGALatency(px *parallel.Executor) (GALatency, error) {
	var out GALatency
	jobs := []func() error{
		func() (err error) { out.LAPIGet, out.LAPIPut, err = gaElementLatency("LAPI"); return },
		func() (err error) { out.MPLGet, out.MPLPut, err = gaElementLatency("MPL"); return },
	}
	err := parallel.ForEach(px, len(jobs), func(i int) error { return jobs[i]() })
	return out, err
}

func gaElementLatency(backend string) (get, put time.Duration, err error) {
	const reps = 30 // multiple of 3: targets round-robin over 3 peers
	err = runGA(backend, 4, func(ctx exec.Context, w *ga.World) {
		a, errC := w.Create(ctx, 64, 64)
		if errC != nil {
			panic(errC)
		}
		w.Sync(ctx)
		if w.Self() == 0 {
			buf := []float64{42.5}
			start := ctx.Now()
			for i := 0; i < reps; i++ {
				tgt := 1 + i%3
				d := a.Distribution(tgt)
				p := ga.Patch{RLo: d.RLo, RHi: d.RLo, CLo: d.CLo, CHi: d.CLo}
				a.Put(ctx, p, buf, 1)
			}
			put = (ctx.Now() - start) / reps
			start = ctx.Now()
			for i := 0; i < reps; i++ {
				tgt := 1 + i%3
				d := a.Distribution(tgt)
				p := ga.Patch{RLo: d.RLo, RHi: d.RLo, CLo: d.CLo, CHi: d.CLo}
				a.Get(ctx, p, buf, 1)
			}
			get = (ctx.Now() - start) / reps
		}
		w.Sync(ctx)
	})
	return get, put, err
}

// GABandwidthPoint is one x-position of Figures 3 and 4: GA transfer
// bandwidth (MB/s) for 1-D (contiguous) and square 2-D (strided) array
// sections under both implementations.
type GABandwidthPoint struct {
	Bytes  int
	LAPI1D float64
	LAPI2D float64
	MPL1D  float64
	MPL2D  float64
}

// Figure34Sizes returns the request sizes for Figures 3/4: powers of four
// from 8 bytes to 2 MB, so the 2-D patches are exact squares
// (1x1 ... 512x512 doubles).
func Figure34Sizes() []int {
	var sizes []int
	for s := 8; s <= 2<<20; s *= 4 {
		sizes = append(sizes, s)
	}
	return sizes
}

// MeasureFigure3 reproduces Figure 3 (GA put bandwidth).
func MeasureFigure3(px *parallel.Executor, sizes []int) ([]GABandwidthPoint, error) {
	return measureGABandwidth(px, sizes, "put")
}

// MeasureFigure4 reproduces Figure 4 (GA get bandwidth).
func MeasureFigure4(px *parallel.Executor, sizes []int) ([]GABandwidthPoint, error) {
	return measureGABandwidth(px, sizes, "get")
}

// measureGABandwidth sweeps sizes × the four (backend, dimensionality)
// series; each cell is an independent 4-node simulation and runs as one
// sweep point on px's workers.
func measureGABandwidth(px *parallel.Executor, sizes []int, op string) ([]GABandwidthPoint, error) {
	series := []struct {
		backend string
		twoD    bool
		out     func(*GABandwidthPoint) *float64
	}{
		{"LAPI", false, func(p *GABandwidthPoint) *float64 { return &p.LAPI1D }},
		{"LAPI", true, func(p *GABandwidthPoint) *float64 { return &p.LAPI2D }},
		{"MPL", false, func(p *GABandwidthPoint) *float64 { return &p.MPL1D }},
		{"MPL", true, func(p *GABandwidthPoint) *float64 { return &p.MPL2D }},
	}
	points := make([]GABandwidthPoint, len(sizes))
	for i, s := range sizes {
		points[i].Bytes = s
	}
	err := parallel.ForEach(px, len(sizes)*len(series), func(j int) error {
		i, k := j/len(series), j%len(series)
		bw, err := gaBandwidth(series[k].backend, op, sizes[i], series[k].twoD)
		if err != nil {
			return err
		}
		*series[k].out(&points[i]) = bw
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// gaBandwidth times a series of GA put or get operations of the given
// request size on 4 nodes, "every request issued by node 0 accesses other
// nodes in a round-robin fashion" (§5.4). 1-D requests are a single row
// inside the target's block; 2-D requests are the square side x side patch
// of the target's block.
func gaBandwidth(backend, op string, bytes int, twoD bool) (float64, error) {
	elems := bytes / 8
	side := int(math.Sqrt(float64(elems)))
	reps := bwReps(bytes)
	if reps > 60 {
		reps = 60 // GA ops are heavier to simulate; the series stays long enough
	}
	reps = (reps / 3) * 3
	if reps < 3 {
		reps = 3
	}
	var elapsed time.Duration
	actualBytes := bytes
	err := runGA(backend, 4, func(ctx exec.Context, w *ga.World) {
		// Blocks are side x side for 2-D or 2 x elems for 1-D; grid is
		// 2x2 for 4 tasks.
		var a *ga.Array
		var err error
		if twoD {
			a, err = w.Create(ctx, 2*side, 2*side)
		} else {
			a, err = w.Create(ctx, 4, 2*elems)
		}
		if err != nil {
			panic(err)
		}
		w.Sync(ctx)
		if w.Self() == 0 {
			patchFor := func(tgt int) ga.Patch {
				d := a.Distribution(tgt)
				if twoD {
					return d // the whole side x side block
				}
				return ga.Patch{RLo: d.RLo, RHi: d.RLo, CLo: d.CLo, CHi: d.CLo + elems - 1}
			}
			p0 := patchFor(1)
			actualBytes = p0.Elems() * 8
			buf := make([]float64, p0.Elems())
			// Warm-up.
			runOne(ctx, a, op, patchFor(1), buf)
			start := ctx.Now()
			for i := 0; i < reps; i++ {
				runOne(ctx, a, op, patchFor(1+i%3), buf)
			}
			elapsed = ctx.Now() - start
		}
		w.Sync(ctx)
	})
	if err != nil {
		return 0, err
	}
	return mbps(actualBytes, reps, elapsed), nil
}

func runOne(ctx exec.Context, a *ga.Array, op string, p ga.Patch, buf []float64) {
	var err error
	if op == "put" {
		err = a.Put(ctx, p, buf, p.Cols())
	} else {
		err = a.Get(ctx, p, buf, p.Cols())
	}
	if err != nil {
		panic(err)
	}
}

// AppResult is the §5.4 application-level comparison: total virtual time of
// an SCF-style blocked contraction under each GA backend (paper: LAPI
// versions improve 10-50% over MPL).
type AppResult struct {
	LAPITime    time.Duration
	MPLTime     time.Duration
	Improvement float64 // percent reduction vs MPL
}

// MeasureApplication runs the SCF-like kernel on both backends (fanned
// out on px's workers). The kernel is a dynamically load-balanced blocked
// matrix contraction: tasks draw (i,j) block tickets with ReadInc, get
// the needed A and B blocks, do the local block product (charged at
// P2SC-era flop rates), and accumulate into C — the GA operation mix
// (§5.1) of the electronic-structure codes.
func MeasureApplication(px *parallel.Executor) (AppResult, error) {
	var out AppResult
	jobs := []func() error{
		func() (err error) { out.LAPITime, err = scfKernel("LAPI"); return },
		func() (err error) { out.MPLTime, err = scfKernel("MPL"); return },
	}
	if err := parallel.ForEach(px, len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return out, err
	}
	out.Improvement = 100 * (1 - out.LAPITime.Seconds()/out.MPLTime.Seconds())
	return out, nil
}

func scfKernel(backend string) (time.Duration, error) {
	const (
		blocks    = 6  // block grid: 6x6 tickets
		blockSize = 32 // 32x32 doubles per block
		n         = blocks * blockSize
		flopRate  = 480e6 // P2SC-era sustained flop/s
	)
	var elapsed time.Duration
	err := runGA(backend, 4, func(ctx exec.Context, w *ga.World) {
		A, err := w.Create(ctx, n, n)
		if err != nil {
			panic(err)
		}
		B, _ := w.Create(ctx, n, n)
		C, _ := w.Create(ctx, n, n)
		tickets, err := w.CreateCounter(ctx)
		if err != nil {
			panic(err)
		}
		// Initialize local pieces of A and B.
		for _, arr := range []*ga.Array{A, B} {
			d := arr.Distribution(w.Self())
			for i := d.RLo; i <= d.RHi; i++ {
				for j := d.CLo; j <= d.CHi; j++ {
					arr.SetLocal(i, j, float64((i+j)%7)+0.5)
				}
			}
		}
		w.Sync(ctx)
		start := ctx.Now()

		blockPatch := func(bi, bj int) ga.Patch {
			return ga.Patch{
				RLo: bi * blockSize, RHi: (bi+1)*blockSize - 1,
				CLo: bj * blockSize, CHi: (bj+1)*blockSize - 1,
			}
		}
		aBuf := make([]float64, blockSize*blockSize)
		bBuf := make([]float64, blockSize*blockSize)
		cBuf := make([]float64, blockSize*blockSize)
		for {
			tk, err := tickets.ReadInc(ctx, 1)
			if err != nil {
				panic(err)
			}
			if tk >= blocks*blocks {
				break
			}
			bi, bj := int(tk)/blocks, int(tk)%blocks
			for k := range cBuf {
				cBuf[k] = 0
			}
			for bk := 0; bk < blocks; bk++ {
				if err := A.Get(ctx, blockPatch(bi, bk), aBuf, blockSize); err != nil {
					panic(err)
				}
				if err := B.Get(ctx, blockPatch(bk, bj), bBuf, blockSize); err != nil {
					panic(err)
				}
				// Local block product, charged at the modelled
				// flop rate (2*N^3 flops).
				for i := 0; i < blockSize; i++ {
					for kk := 0; kk < blockSize; kk++ {
						aik := aBuf[i*blockSize+kk]
						for j := 0; j < blockSize; j++ {
							cBuf[i*blockSize+j] += aik * bBuf[kk*blockSize+j]
						}
					}
				}
				flops := 2 * blockSize * blockSize * blockSize
				ctx.Sleep(time.Duration(float64(flops) / flopRate * float64(time.Second)))
			}
			if err := C.Acc(ctx, blockPatch(bi, bj), cBuf, blockSize, 1.0); err != nil {
				panic(err)
			}
		}
		w.Sync(ctx)
		if w.Self() == 0 {
			elapsed = ctx.Now() - start
		}
	})
	return elapsed, err
}

// FormatGALatency renders the §5.4 latency comparison.
func FormatGALatency(l GALatency) string {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	s := "GA single-element (8-byte) latency, 4 nodes (§5.4)\n"
	s += fmt.Sprintf("%-12s %12s %12s\n", "operation", "LAPI [µs]", "MPL [µs]")
	s += fmt.Sprintf("%-12s %12.1f %12.1f\n", "GA get", us(l.LAPIGet), us(l.MPLGet))
	s += fmt.Sprintf("%-12s %12.1f %12.1f\n", "GA put", us(l.LAPIPut), us(l.MPLPut))
	return s
}

// FormatFigure34 renders a GA bandwidth figure as columns.
func FormatFigure34(title string, points []GABandwidthPoint) string {
	s := title + " [MB/s]\n"
	s += fmt.Sprintf("%-10s %10s %10s %10s %10s\n", "bytes", "LAPI-1D", "LAPI-2D", "MPL-1D", "MPL-2D")
	for _, p := range points {
		s += fmt.Sprintf("%-10d %10.1f %10.1f %10.1f %10.1f\n", p.Bytes, p.LAPI1D, p.LAPI2D, p.MPL1D, p.MPL2D)
	}
	return s
}

// FormatApp renders the application comparison.
func FormatApp(r AppResult) string {
	return fmt.Sprintf("SCF-style application (4 nodes): LAPI %.2f ms, MPL %.2f ms, improvement %.0f%%\n",
		float64(r.LAPITime.Microseconds())/1e3, float64(r.MPLTime.Microseconds())/1e3, r.Improvement)
}

// CSVFigure34 renders a GA bandwidth figure as CSV for plotting.
func CSVFigure34(points []GABandwidthPoint) string {
	s := "bytes,lapi_1d_mbs,lapi_2d_mbs,mpl_1d_mbs,mpl_2d_mbs\n"
	for _, p := range points {
		s += fmt.Sprintf("%d,%.2f,%.2f,%.2f,%.2f\n", p.Bytes, p.LAPI1D, p.LAPI2D, p.MPL1D, p.MPL2D)
	}
	return s
}
