package mpi_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/mpi"
	"golapi/internal/stats"
	"golapi/internal/switchnet"
)

func runMPI(t *testing.T, n int, scfg switchnet.Config, mcfg mpi.Config, main func(ctx exec.Context, mt *mpi.Task)) {
	t.Helper()
	c, err := cluster.NewSimMPI(n, scfg, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(main); err != nil {
		t.Fatal(err)
	}
}

func runMPIDefault(t *testing.T, n int, main func(ctx exec.Context, mt *mpi.Task)) {
	t.Helper()
	runMPI(t, n, switchnet.DefaultConfig(), mpi.DefaultConfig(), main)
}

func TestSendRecvEager(t *testing.T) {
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			if err := mt.Send(ctx, 1, 7, []byte("eager payload")); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 64)
			st, err := mt.Recv(ctx, 0, 7, buf)
			if err != nil {
				t.Error(err)
			}
			if st.Source != 0 || st.Tag != 7 || st.Len != 13 {
				t.Errorf("status = %+v", st)
			}
			if string(buf[:st.Len]) != "eager payload" {
				t.Errorf("data = %q", buf[:st.Len])
			}
		}
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	const size = 100_000 // far above the 4K eager limit
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 3)
			}
			if err := mt.Send(ctx, 1, 1, data); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, size)
			st, err := mt.Recv(ctx, 0, 1, buf)
			if err != nil || st.Len != size {
				t.Errorf("st=%+v err=%v", st, err)
			}
			for i := range buf {
				if buf[i] != byte(i*3) {
					t.Errorf("byte %d corrupted", i)
					return
				}
			}
		}
	})
}

func TestInOrderMatchingSameTag(t *testing.T) {
	// Two same-tag messages must match posted receives in send order —
	// even when the fabric reorders packets.
	scfg := switchnet.DefaultConfig()
	scfg.ReorderEvery = 2
	scfg.ReorderDelayPackets = 6
	runMPI(t, 2, scfg, mpi.DefaultConfig(), func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			mt.Send(ctx, 1, 3, []byte("first"))
			mt.Send(ctx, 1, 3, []byte("second"))
		} else {
			a := make([]byte, 16)
			b := make([]byte, 16)
			s1, _ := mt.Recv(ctx, 0, 3, a)
			s2, _ := mt.Recv(ctx, 0, 3, b)
			if string(a[:s1.Len]) != "first" || string(b[:s2.Len]) != "second" {
				t.Errorf("out-of-order matching: %q then %q", a[:s1.Len], b[:s2.Len])
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			mt.Send(ctx, 1, 10, []byte("ten"))
			mt.Send(ctx, 1, 20, []byte("twenty"))
		} else {
			buf := make([]byte, 16)
			// Receive tag 20 first even though tag 10 was sent first.
			st, _ := mt.Recv(ctx, 0, 20, buf)
			if string(buf[:st.Len]) != "twenty" {
				t.Errorf("tag 20 recv got %q", buf[:st.Len])
			}
			st, _ = mt.Recv(ctx, 0, 10, buf)
			if string(buf[:st.Len]) != "ten" {
				t.Errorf("tag 10 recv got %q", buf[:st.Len])
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runMPIDefault(t, 4, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() != 0 {
			mt.Send(ctx, 0, mt.Self(), []byte{byte(mt.Self())})
			return
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			buf := make([]byte, 4)
			st, err := mt.Recv(ctx, mpi.AnySource, mpi.AnyTag, buf)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Tag != st.Source || buf[0] != byte(st.Source) {
				t.Errorf("mismatched status %+v payload %d", st, buf[0])
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			t.Errorf("sources seen: %v", seen)
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		const k = 10
		if mt.Self() == 0 {
			var reqs []*mpi.Request
			for i := 0; i < k; i++ {
				r, err := mt.Isend(ctx, 1, i, []byte{byte(i)})
				if err != nil {
					t.Error(err)
				}
				reqs = append(reqs, r)
			}
			for _, r := range reqs {
				mt.Wait(ctx, r)
			}
		} else {
			bufs := make([][]byte, k)
			var reqs []*mpi.Request
			for i := 0; i < k; i++ {
				bufs[i] = make([]byte, 1)
				r, err := mt.Irecv(ctx, 0, i, bufs[i])
				if err != nil {
					t.Error(err)
				}
				reqs = append(reqs, r)
			}
			for i, r := range reqs {
				mt.Wait(ctx, r)
				if bufs[i][0] != byte(i) {
					t.Errorf("recv %d got %d", i, bufs[i][0])
				}
			}
		}
	})
}

func TestUnexpectedThenPosted(t *testing.T) {
	// Message arrives before the receive is posted: must land in the
	// unexpected queue and complete the later receive (with the extra
	// copy — checked via counters).
	var copies int64
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			mt.Send(ctx, 1, 5, []byte("early bird"))
			mt.Barrier(ctx)
		} else {
			ctx.Sleep(2 * time.Millisecond) // let it arrive unexpected
			buf := make([]byte, 16)
			st, _ := mt.Recv(ctx, 0, 5, buf)
			if string(buf[:st.Len]) != "early bird" {
				t.Errorf("got %q", buf[:st.Len])
			}
			copies = mt.Counters.Get(stats.UnexpectedMsgs)
			mt.Barrier(ctx)
		}
	})
	if copies == 0 {
		t.Error("message was not routed through the unexpected queue")
	}
}

func TestEagerLimitSwitchesProtocol(t *testing.T) {
	mcfg := mpi.DefaultConfig()
	runMPI(t, 2, switchnet.DefaultConfig(), mcfg, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			mt.Send(ctx, 1, 1, make([]byte, 4096)) // at the limit: eager
			mt.Send(ctx, 1, 2, make([]byte, 4097)) // above: rendezvous
			mt.Barrier(ctx)
		} else {
			buf := make([]byte, 8192)
			mt.Recv(ctx, 0, 1, buf)
			mt.Recv(ctx, 0, 2, buf)
			if rts := mt.Counters.Get(stats.RendezvousRTS); rts != 1 {
				t.Errorf("rendezvous count = %d, want 1", rts)
			}
			mt.Barrier(ctx)
		}
	})
}

func TestSetEagerLimitClamped(t *testing.T) {
	runMPIDefault(t, 1, func(ctx exec.Context, mt *mpi.Task) {
		mt.SetEagerLimit(1 << 20)
		if got := mt.Config().EagerLimit; got != 65536 {
			t.Errorf("EagerLimit = %d, want clamp to 65536", got)
		}
		mt.SetEagerLimit(-5)
		if got := mt.Config().EagerLimit; got != 0 {
			t.Errorf("EagerLimit = %d, want 0", got)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	runMPIDefault(t, 5, func(ctx exec.Context, mt *mpi.Task) {
		// Stagger arrivals; all must leave at >= the last arrival time.
		ctx.Sleep(time.Duration(mt.Self()) * 100 * time.Microsecond)
		if err := mt.Barrier(ctx); err != nil {
			t.Error(err)
		}
		if ctx.Now() < 400*time.Microsecond {
			t.Errorf("rank %d left barrier at %v, before last arrival", mt.Self(), ctx.Now())
		}
	})
}

func TestErrorsMPI(t *testing.T) {
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		defer mt.Barrier(ctx)
		if mt.Self() != 0 {
			return
		}
		if _, err := mt.Isend(ctx, 9, 0, nil); err == nil {
			t.Error("Isend to bad rank accepted")
		}
		if _, err := mt.Isend(ctx, 1, -1, nil); err == nil {
			t.Error("negative tag accepted")
		}
		if _, err := mt.Isend(ctx, 1, mpi.MaxTag+1, nil); err == nil {
			t.Error("reserved tag accepted")
		}
		if _, err := mt.Irecv(ctx, 7, 0, nil); err == nil {
			t.Error("Irecv from bad rank accepted")
		}
		if _, err := mt.IrecvCall(ctx, 0, 0, nil, nil); err == nil {
			t.Error("IrecvCall with nil handler accepted")
		}
	})
}

func TestIprobe(t *testing.T) {
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			mt.Send(ctx, 1, 9, []byte("probe me"))
			mt.Barrier(ctx)
		} else {
			ok, _ := mt.Iprobe(ctx, 0, 9)
			for !ok {
				ctx.Sleep(50 * time.Microsecond)
				ok, _ = mt.Iprobe(ctx, 0, 9)
			}
			_, st := mt.Iprobe(ctx, 0, 9)
			if st.Len != 8 {
				t.Errorf("probe len = %d", st.Len)
			}
			buf := make([]byte, 8)
			mt.Recv(ctx, 0, 9, buf)
			if ok, _ := mt.Iprobe(ctx, 0, 9); ok {
				t.Error("probe still true after receive")
			}
			mt.Barrier(ctx)
		}
	})
}

// TestPropEagerRendezvousRoundTrip: any payload survives a ping-pong, with
// any eager limit and reorder setting — the protocols must agree on bytes.
func TestPropEagerRendezvousRoundTrip(t *testing.T) {
	prop := func(data []byte, eager uint16, reorder uint8) bool {
		if len(data) > 1<<15 {
			data = data[:1<<15]
		}
		scfg := switchnet.DefaultConfig()
		scfg.ReorderEvery = int(reorder % 4)
		mcfg := mpi.DefaultConfig()
		mcfg.EagerLimit = int(eager) % 8192
		c, err := cluster.NewSimMPI(2, scfg, mcfg)
		if err != nil {
			return false
		}
		ok := true
		err = c.Run(func(ctx exec.Context, mt *mpi.Task) {
			if mt.Self() == 0 {
				mt.Send(ctx, 1, 0, data)
				back := make([]byte, len(data))
				mt.Recv(ctx, 1, 1, back)
				if !bytes.Equal(back, data) {
					ok = false
				}
			} else {
				buf := make([]byte, len(data))
				st, _ := mt.Recv(ctx, 0, 0, buf)
				mt.Send(ctx, 0, 1, buf[:st.Len])
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationError(t *testing.T) {
	// A message larger than the posted buffer must fail the receive with
	// ErrTruncate while leaving both ranks unwedged (the message drains
	// into a sink). Test both protocols.
	for _, size := range []int{100, 50_000} {
		size := size
		var recvErr error
		runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
			if mt.Self() == 0 {
				if err := mt.Send(ctx, 1, 0, make([]byte, size)); err != nil {
					t.Error(err)
				}
			} else {
				_, recvErr = mt.Recv(ctx, 0, 0, make([]byte, 10))
			}
			mt.Barrier(ctx) // both sides must still be alive
		})
		if !errors.Is(recvErr, mpi.ErrTruncate) {
			t.Errorf("size %d: recv err = %v, want ErrTruncate", size, recvErr)
		}
	}
}

func TestWaitall(t *testing.T) {
	runMPIDefault(t, 2, func(ctx exec.Context, mt *mpi.Task) {
		const k = 6
		if mt.Self() == 0 {
			reqs := make([]*mpi.Request, k+1) // includes a nil slot
			for i := 0; i < k; i++ {
				r, err := mt.Isend(ctx, 1, i, bytes.Repeat([]byte{byte(i)}, 100))
				if err != nil {
					t.Error(err)
				}
				reqs[i] = r
			}
			if err := mt.Waitall(ctx, reqs); err != nil {
				t.Error(err)
			}
			for _, r := range reqs[:k] {
				if !r.Done() {
					t.Error("Waitall returned with unfinished request")
				}
			}
		} else {
			buf := make([]byte, 100)
			for i := 0; i < k; i++ {
				mt.Recv(ctx, 0, i, buf)
			}
		}
	})
}

func TestAllRendezvousEagerLimitZero(t *testing.T) {
	// EagerLimit 0: every message (even 1 byte) takes the rendezvous
	// path; semantics must be unchanged.
	mcfg := mpi.DefaultConfig()
	mcfg.EagerLimit = 0
	runMPI(t, 2, switchnet.DefaultConfig(), mcfg, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			mt.Send(ctx, 1, 1, []byte{42})
			mt.Send(ctx, 1, 2, make([]byte, 10_000))
			mt.Barrier(ctx)
		} else {
			small := make([]byte, 1)
			big := make([]byte, 10_000)
			mt.Recv(ctx, 0, 1, small)
			mt.Recv(ctx, 0, 2, big)
			if small[0] != 42 {
				t.Errorf("rendezvous 1-byte message = %d", small[0])
			}
			if rts := mt.Counters.Get(stats.RendezvousRTS); rts != 2 {
				t.Errorf("rendezvous count = %d, want 2", rts)
			}
			mt.Barrier(ctx)
		}
	})
}

func TestEagerPoolBlocksSender(t *testing.T) {
	// A tiny pool forces the second eager send to wait for the first to
	// drain: the sender cannot run arbitrarily far ahead.
	mcfg := mpi.DefaultConfig()
	mcfg.BufferPoolBytes = 8 * 1024
	mcfg.EagerLimit = 8 * 1024
	var issueTimes [3]time.Duration
	runMPI(t, 2, switchnet.DefaultConfig(), mcfg, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			for i := 0; i < 3; i++ {
				r, err := mt.Isend(ctx, 1, i, make([]byte, 8*1024))
				if err != nil {
					t.Error(err)
				}
				issueTimes[i] = ctx.Now()
				_ = r
			}
			mt.Barrier(ctx)
		} else {
			buf := make([]byte, 8*1024)
			for i := 0; i < 3; i++ {
				mt.Recv(ctx, 0, i, buf)
			}
			mt.Barrier(ctx)
		}
	})
	// The 8K message occupies the whole pool: each subsequent Isend must
	// wait roughly one message drain time (8 packets x ~10 µs wire).
	gap := issueTimes[2] - issueTimes[1]
	if gap < 50*time.Microsecond {
		t.Fatalf("third eager send issued %v after second: pool did not throttle", gap)
	}
}

func TestSetModePollingToInterrupt(t *testing.T) {
	mcfg := mpi.DefaultConfig()
	mcfg.Mode = mpi.Polling
	runMPI(t, 2, switchnet.DefaultConfig(), mcfg, func(ctx exec.Context, mt *mpi.Task) {
		if mt.Self() == 0 {
			mt.Send(ctx, 1, 1, []byte("backlog"))
			mt.Barrier(ctx)
		} else {
			req, _ := mt.Irecv(ctx, 0, 1, make([]byte, 16))
			// Let the message sit in the polled backlog, then flip to
			// interrupt mode: the dispatcher must complete the recv
			// without further MPI calls.
			ctx.Sleep(2 * time.Millisecond)
			mt.SetMode(mpi.Interrupt)
			for !req.Done() {
				ctx.Sleep(100 * time.Microsecond)
			}
			mt.Barrier(ctx)
		}
	})
}
