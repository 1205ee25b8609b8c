// Package bench regenerates every table and figure of the paper's
// evaluation (§4 and §5.4) on the simulated SP switch. Each experiment
// builds a fresh simulated cluster, runs the paper's measurement procedure
// in virtual time, and returns the numbers; registry.go names them for
// cmd/lapibench, which prints them in the paper's layout, and bench_test.go
// exposes them as testing.B benchmarks.
package bench

import (
	"fmt"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/mpl"
	"golapi/internal/parallel"
	"golapi/internal/switchnet"
)

// Table2 holds the latency measurements of the paper's Table 2 (4-byte
// messages).
type Table2 struct {
	LAPIPolling     time.Duration // one-way, polling mode (paper: 34 µs)
	MPIPolling      time.Duration // one-way, polling mode (paper: 43 µs)
	LAPIPollingRT   time.Duration // round trip, polling (paper: 60 µs)
	MPIPollingRT    time.Duration // round trip, polling (paper: 86 µs)
	LAPIInterruptRT time.Duration // round trip, interrupt (paper: 89 µs)
	MPLInterruptRT  time.Duration // rcvncall round trip (paper: 200 µs)
}

const latencyReps = 32

// MeasureTable2 reproduces Table 2. The four measurements are independent
// simulations (each builds its own cluster), so they run as sweep points
// on px's workers; px may be nil for a serial run — the numbers are
// virtual time and identical either way.
func MeasureTable2(px *parallel.Executor) (Table2, error) {
	var out Table2
	jobs := []func() error{
		func() (err error) { out.LAPIPolling, out.LAPIPollingRT, err = lapiLatency(lapi.Polling); return },
		func() (err error) { _, out.LAPIInterruptRT, err = lapiLatency(lapi.Interrupt); return },
		func() (err error) { out.MPIPolling, out.MPIPollingRT, err = mpiLatency(); return },
		func() (err error) { out.MPLInterruptRT, err = mplRcvncallRT(); return },
	}
	err := parallel.ForEach(px, len(jobs), func(i int) error { return jobs[i]() })
	return out, err
}

// lapiLatency measures one-way and round-trip latency for 4-byte LAPI puts
// in the given progress mode. The virtual clock is global, so one-way
// latency is measured directly (send timestamp at the origin, counter-fire
// timestamp at the target).
func lapiLatency(mode lapi.Mode) (oneWay, roundTrip time.Duration, err error) {
	lcfg := lapi.DefaultConfig()
	lcfg.Mode = mode
	c, err := cluster.NewSim(2, switchnet.DefaultConfig(), lcfg)
	if err != nil {
		return 0, 0, err
	}
	var sendAt, recvAt [latencyReps]time.Duration
	var rtTotal time.Duration
	payload := []byte{1, 2, 3, 4}

	err = c.Run(func(ctx exec.Context, t *lapi.Task) {
		buf := t.Alloc(8)
		ping := t.NewCounter() // same ids on both ranks (SPMD)
		pong := t.NewCounter()
		ready := t.NewCounter()
		addrs, _ := t.AddressInit(ctx, buf)
		t.Barrier(ctx)

		// Phase 1: one-way pings. The receiver announces readiness (so
		// it is provably parked in Waitcntr before the timed message is
		// sent — no barrier-exit skew), then the virtual global clock
		// gives the true one-way time.
		for i := 0; i < latencyReps; i++ {
			if t.Self() == 0 {
				t.Waitcntr(ctx, ready, 1)
				sendAt[i] = ctx.Now()
				t.Put(ctx, 1, addrs[1], payload, ping.ID(), nil, nil)
			} else {
				t.Put(ctx, 0, addrs[0], payload, ready.ID(), nil, nil)
				t.Waitcntr(ctx, ping, 1)
				recvAt[i] = ctx.Now()
			}
		}
		t.Barrier(ctx)

		// Phase 2: round trips measured at rank 0.
		if t.Self() == 0 {
			start := ctx.Now()
			for i := 0; i < latencyReps; i++ {
				t.Put(ctx, 1, addrs[1], payload, ping.ID(), nil, nil)
				t.Waitcntr(ctx, pong, 1)
			}
			rtTotal = ctx.Now() - start
		} else {
			for i := 0; i < latencyReps; i++ {
				t.Waitcntr(ctx, ping, 1)
				t.Put(ctx, 0, addrs[0], payload, pong.ID(), nil, nil)
			}
		}
		t.Barrier(ctx)
	})
	if err != nil {
		return 0, 0, err
	}
	var ow time.Duration
	for i := 0; i < latencyReps; i++ {
		ow += recvAt[i] - sendAt[i]
	}
	return ow / latencyReps, rtTotal / latencyReps, nil
}

// mpiLatency measures the MPI rows of Table 2 (threaded MPI library in
// polling mode: the receiver is blocked in Recv, which polls).
func mpiLatency() (oneWay, roundTrip time.Duration, err error) {
	mcfg := mpi.DefaultConfig()
	mcfg.Mode = mpi.Polling
	c, err := cluster.NewSimMPI(2, switchnet.DefaultConfig(), mcfg)
	if err != nil {
		return 0, 0, err
	}
	var sendAt, recvAt [latencyReps]time.Duration
	var rtTotal time.Duration
	payload := []byte{1, 2, 3, 4}

	err = c.Run(func(ctx exec.Context, t *mpi.Task) {
		buf := make([]byte, 4)
		t.Barrier(ctx)
		// One-way pings with a readiness handshake (see lapiLatency).
		for i := 0; i < latencyReps; i++ {
			if t.Self() == 0 {
				t.Recv(ctx, 1, 3, nil)
				sendAt[i] = ctx.Now()
				t.Send(ctx, 1, 1, payload)
			} else {
				req, _ := t.Irecv(ctx, 0, 1, buf)
				t.Send(ctx, 0, 3, nil)
				t.Wait(ctx, req)
				recvAt[i] = ctx.Now()
			}
		}
		t.Barrier(ctx)
		if t.Self() == 0 {
			start := ctx.Now()
			for i := 0; i < latencyReps; i++ {
				t.Send(ctx, 1, 1, payload)
				t.Recv(ctx, 1, 2, buf)
			}
			rtTotal = ctx.Now() - start
		} else {
			for i := 0; i < latencyReps; i++ {
				t.Recv(ctx, 0, 1, buf)
				t.Send(ctx, 0, 2, payload)
			}
		}
		t.Barrier(ctx)
	})
	if err != nil {
		return 0, 0, err
	}
	var ow time.Duration
	for i := 0; i < latencyReps; i++ {
		ow += recvAt[i] - sendAt[i]
	}
	return ow / latencyReps, rtTotal / latencyReps, nil
}

// mplRcvncallRT measures Table 2's interrupt round trip for MPL: the target
// replies from an interrupt-driven rcvncall handler (§4: "the round-trip
// interrupt measurement was done using MPL rcvncall mechanism with target
// task sending back message to the origin from the interrupt handler").
func mplRcvncallRT() (time.Duration, error) {
	mcfg := mpi.DefaultConfig()
	c, err := cluster.NewSimMPL(2, switchnet.DefaultConfig(), mcfg)
	if err != nil {
		return 0, err
	}
	var rtTotal time.Duration
	payload := []byte{1, 2, 3, 4}

	err = c.Run(func(ctx exec.Context, t *mpl.Task) {
		if t.Self() == 1 {
			buf := make([]byte, 4)
			served := 0
			var handler mpl.Handler
			handler = func(hctx exec.Context, st mpi.Status) {
				t.Send(hctx, st.Source, 2, buf[:st.Len])
				served++
				if served < latencyReps {
					t.Rcvncall(hctx, mpi.AnySource, 1, buf, handler)
				}
			}
			t.Rcvncall(ctx, mpi.AnySource, 1, buf, handler)
			t.Barrier(ctx)
			return
		}
		rep := make([]byte, 4)
		start := ctx.Now()
		for i := 0; i < latencyReps; i++ {
			t.Send(ctx, 1, 1, payload)
			t.Recv(ctx, 1, 2, rep)
		}
		rtTotal = ctx.Now() - start
		t.Barrier(ctx)
	})
	if err != nil {
		return 0, err
	}
	return rtTotal / latencyReps, nil
}

// Pipeline holds the §4 pipeline-latency measurements: the time for a
// non-blocking call to return control (paper: Put 16 µs, Get 19 µs).
type Pipeline struct {
	Put time.Duration
	Get time.Duration
}

// MeasurePipeline reproduces the §4 pipeline-latency numbers.
func MeasurePipeline() (Pipeline, error) {
	var out Pipeline
	c, err := cluster.NewSimDefault(2)
	if err != nil {
		return out, err
	}
	err = c.Run(func(ctx exec.Context, t *lapi.Task) {
		buf := t.Alloc(8)
		addrs, _ := t.AddressInit(ctx, buf)
		if t.Self() == 0 {
			var putT, getT time.Duration
			dst := make([]byte, 4)
			org := t.NewCounter()
			for i := 0; i < latencyReps; i++ {
				s := ctx.Now()
				t.Put(ctx, 1, addrs[1], []byte{1, 2, 3, 4}, lapi.NoCounter, nil, nil)
				putT += ctx.Now() - s

				s = ctx.Now()
				t.Get(ctx, 1, addrs[1], dst, lapi.NoCounter, org)
				getT += ctx.Now() - s
				t.Waitcntr(ctx, org, 1)
			}
			out.Put = putT / latencyReps
			out.Get = getT / latencyReps
		}
		t.Gfence(ctx)
	})
	return out, err
}

// BandwidthPoint is one x-position of Figure 2: one-way bandwidth in MB/s
// at a given message size for the three configurations the paper plots.
type BandwidthPoint struct {
	Size       int
	LAPI       float64 // LAPI_Put
	MPIDefault float64 // MPI, default MP_EAGER_LIMIT (4 KB)
	MPIEager64 float64 // MPI, MP_EAGER_LIMIT=65536
}

// Figure2Sizes is the paper's sweep: 16 bytes to 2 MB.
func Figure2Sizes() []int {
	var sizes []int
	for s := 16; s <= 2<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// MeasureFigure2 reproduces Figure 2's bandwidth curves. Every (size,
// series) pair is an independent simulation, so the sweep fans out to
// 3·len(sizes) points on px's workers (nil px runs serially); results
// land in their input slots, keeping the output identical to a serial
// sweep.
func MeasureFigure2(px *parallel.Executor, sizes []int) ([]BandwidthPoint, error) {
	return MeasureFigure2Rndv(px, sizes, 0)
}

// MeasureFigure2Rndv is MeasureFigure2 with an explicit eager/rendezvous
// crossover for the LAPI series (0 auto-tunes, negative forces eager —
// the lapibench -force-eager sweep the determinism gate byte-diffs against
// the default below the crossover). The MPI series are unaffected.
func MeasureFigure2Rndv(px *parallel.Executor, sizes []int, rndvLimit int) ([]BandwidthPoint, error) {
	lcfg := lapi.DefaultConfig()
	lcfg.RndvLimit = rndvLimit
	points := make([]BandwidthPoint, len(sizes))
	for i, s := range sizes {
		points[i].Size = s
	}
	err := parallel.ForEach(px, 3*len(sizes), func(j int) error {
		i, series := j/3, j%3
		var err error
		switch series {
		case 0:
			points[i].LAPI, err = lapiBandwidthCfg(sizes[i], lcfg)
		case 1:
			points[i].MPIDefault, err = mpiBandwidth(sizes[i], 4096)
		default:
			points[i].MPIEager64, err = mpiBandwidth(sizes[i], 65536)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// bwReps picks a series length that shrinks as messages grow, like the
// paper's "series of operations with the series length decreasing as the
// request size increases".
func bwReps(size int) int {
	r := (4 << 20) / size
	if r < 4 {
		r = 4
	}
	if r > 512 {
		r = 512
	}
	return r
}

// lapiBandwidth: "the LAPI one-way bandwidth was measured by having one
// task make a LAPI_Put call to the other task and waiting for it to
// complete" (§4).
func lapiBandwidth(size int) (float64, error) {
	return lapiBandwidthCfg(size, lapi.DefaultConfig())
}

// lapiBandwidthCfg is lapiBandwidth with an explicit LAPI config, so
// sweeps can pin the protocol regime (RndvLimit -1 forces eager, 1 forces
// rendezvous) against the auto-tuned default. No package state is
// involved: every call builds a fresh two-task simulation, keeping the
// sweep deterministic under the parallel executor.
func lapiBandwidthCfg(size int, lcfg lapi.Config) (float64, error) {
	c, err := cluster.NewSim(2, switchnet.DefaultConfig(), lcfg)
	if err != nil {
		return 0, err
	}
	reps := bwReps(size)
	var elapsed time.Duration
	err = c.Run(func(ctx exec.Context, t *lapi.Task) {
		buf := t.Alloc(size)
		addrs, _ := t.AddressInit(ctx, buf)
		if t.Self() == 0 {
			data := make([]byte, size)
			cmpl := t.NewCounter()
			// Warm up one transfer, then time the series.
			t.Put(ctx, 1, addrs[1], data, lapi.NoCounter, nil, cmpl)
			t.Waitcntr(ctx, cmpl, 1)
			start := ctx.Now()
			for i := 0; i < reps; i++ {
				t.Put(ctx, 1, addrs[1], data, lapi.NoCounter, nil, cmpl)
				t.Waitcntr(ctx, cmpl, 1)
			}
			elapsed = ctx.Now() - start
		}
		t.Gfence(ctx)
	})
	if err != nil {
		return 0, err
	}
	return mbps(size, reps, elapsed), nil
}

// mpiBandwidth runs the same experiment with message passing: a blocking
// send per transfer, acknowledged by a zero-byte reply so delivery is part
// of the measured time (the counterpart of waiting on LAPI's completion
// counter).
func mpiBandwidth(size, eagerLimit int) (float64, error) {
	mcfg := mpi.DefaultConfig()
	mcfg.EagerLimit = eagerLimit
	c, err := cluster.NewSimMPI(2, switchnet.DefaultConfig(), mcfg)
	if err != nil {
		return 0, err
	}
	reps := bwReps(size)
	var elapsed time.Duration
	err = c.Run(func(ctx exec.Context, t *mpi.Task) {
		if t.Self() == 0 {
			data := make([]byte, size)
			ack := make([]byte, 0)
			t.Send(ctx, 1, 1, data)
			t.Recv(ctx, 1, 2, ack)
			start := ctx.Now()
			for i := 0; i < reps; i++ {
				t.Send(ctx, 1, 1, data)
				t.Recv(ctx, 1, 2, ack)
			}
			elapsed = ctx.Now() - start
		} else {
			buf := make([]byte, size)
			for i := 0; i < reps+1; i++ {
				t.Recv(ctx, 0, 1, buf)
				t.Send(ctx, 0, 2, nil)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return mbps(size, reps, elapsed), nil
}

func mbps(size, reps int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(size) * float64(reps) / elapsed.Seconds() / 1e6
}

// HalfPeakSize returns the interpolated message size at which the series
// reaches half its asymptotic (last-point) bandwidth — the paper's
// half-peak metric (LAPI ≈8 KB, MPI ≈23 KB).
func HalfPeakSize(points []BandwidthPoint, get func(BandwidthPoint) float64) int {
	if len(points) == 0 {
		return 0
	}
	half := get(points[len(points)-1]) / 2
	for _, p := range points {
		if get(p) >= half {
			return p.Size
		}
	}
	return points[len(points)-1].Size
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(t Table2) string {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	s := "Table 2: Latency Measurements (4-byte messages)\n"
	s += fmt.Sprintf("%-24s %10s %14s\n", "Measurement", "LAPI [µs]", "MPI/MPL [µs]")
	s += fmt.Sprintf("%-24s %10.1f %14.1f\n", "polling", us(t.LAPIPolling), us(t.MPIPolling))
	s += fmt.Sprintf("%-24s %10.1f %14.1f\n", "polling round-trip", us(t.LAPIPollingRT), us(t.MPIPollingRT))
	s += fmt.Sprintf("%-24s %10.1f %14.1f\n", "interrupt round-trip", us(t.LAPIInterruptRT), us(t.MPLInterruptRT))
	return s
}

// FormatFigure2 renders the Figure 2 series as columns.
func FormatFigure2(points []BandwidthPoint) string {
	s := "Figure 2: LAPI and MPI one-way bandwidth [MB/s]\n"
	s += fmt.Sprintf("%-10s %10s %14s %14s\n", "size[B]", "LAPI", "MPI(default)", "MPI(eager64K)")
	for _, p := range points {
		s += fmt.Sprintf("%-10d %10.1f %14.1f %14.1f\n", p.Size, p.LAPI, p.MPIDefault, p.MPIEager64)
	}
	s += fmt.Sprintf("half-peak size: LAPI %d B, MPI(eager64K) %d B\n",
		HalfPeakSize(points, func(p BandwidthPoint) float64 { return p.LAPI }),
		HalfPeakSize(points, func(p BandwidthPoint) float64 { return p.MPIEager64 }))
	return s
}

// CSVTable2 renders Table 2 as CSV (the byte-diffable form the
// make-determinism gate compares between serial and parallel sweeps).
func CSVTable2(t Table2) string {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	s := "measurement,lapi_us,mpi_us\n"
	s += fmt.Sprintf("polling,%.3f,%.3f\n", us(t.LAPIPolling), us(t.MPIPolling))
	s += fmt.Sprintf("polling_round_trip,%.3f,%.3f\n", us(t.LAPIPollingRT), us(t.MPIPollingRT))
	s += fmt.Sprintf("interrupt_round_trip,%.3f,%.3f\n", us(t.LAPIInterruptRT), us(t.MPLInterruptRT))
	return s
}

// CSVFigure2 renders the Figure 2 series as CSV for plotting.
func CSVFigure2(points []BandwidthPoint) string {
	s := "size_bytes,lapi_mbs,mpi_default_mbs,mpi_eager64_mbs\n"
	for _, p := range points {
		s += fmt.Sprintf("%d,%.2f,%.2f,%.2f\n", p.Size, p.LAPI, p.MPIDefault, p.MPIEager64)
	}
	return s
}
