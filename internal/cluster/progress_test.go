package cluster_test

import (
	"fmt"
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/stats"
	"golapi/internal/switchnet"
)

// progressTally is what the §2.1 progress engine leaves behind: the
// interrupts and polls each rank counted, and the virtual time the job
// finished at.
type progressTally struct {
	interrupts [2]int64
	polls      [2]int64
	end        int64
}

func (p progressTally) String() string {
	return fmt.Sprintf("interrupts=%v polls=%v end=%dns", p.interrupts, p.polls, p.end)
}

// lapiProgramTally runs a fixed two-rank LAPI program touching every
// waiting loop of the library — a Put/Waitcntr ping-pong, Fence, Barrier
// and ExchangeWord — and reports its progress accounting.
func lapiProgramTally(t *testing.T, mode lapi.Mode) progressTally {
	t.Helper()
	lcfg := lapi.DefaultConfig()
	lcfg.Mode = mode
	c, err := cluster.NewSim(2, switchnet.DefaultConfig(), lcfg)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(ctx exec.Context, lt *lapi.Task) {
		buf := lt.Alloc(64)
		cntr := lt.NewCounter()
		addrs, err := lt.AddressInit(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		peer := 1 - lt.Self()
		msg := []byte("pingpong")
		for round := 0; round < 3; round++ {
			if lt.Self() == round%2 {
				lt.Put(ctx, peer, addrs[peer], msg, cntr.ID(), nil, nil)
				lt.Fence(ctx)
			} else {
				lt.Waitcntr(ctx, cntr, 1)
			}
		}
		lt.Barrier(ctx)
		if _, err := lt.ExchangeWord(ctx, uint64(lt.Self())); err != nil {
			t.Error(err)
		}
		lt.Put(ctx, peer, addrs[peer]+8, msg, lapi.NoCounter, nil, nil)
		lt.Gfence(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	var p progressTally
	for r, lt := range c.Tasks {
		p.interrupts[r] = lt.Counters.Get(stats.Interrupts)
		p.polls[r] = lt.Counters.Get(stats.Polls)
	}
	p.end = int64(c.Now())
	return p
}

// mpiProgramTally is the MPI counterpart: an eager Send/Recv ping-pong,
// a Barrier and a rendezvous-sized Send.
func mpiProgramTally(t *testing.T, mode mpi.Mode) progressTally {
	t.Helper()
	mcfg := mpi.DefaultConfig()
	mcfg.Mode = mode
	c, err := cluster.NewSimMPI(2, switchnet.DefaultConfig(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(ctx exec.Context, mt *mpi.Task) {
		peer := 1 - mt.Self()
		small := make([]byte, 8)
		for round := 0; round < 3; round++ {
			var err error
			if mt.Self() == round%2 {
				err = mt.Send(ctx, peer, 1, small)
			} else {
				_, err = mt.Recv(ctx, peer, 1, small)
			}
			if err != nil {
				t.Error(err)
			}
		}
		if err := mt.Barrier(ctx); err != nil {
			t.Error(err)
		}
		large := make([]byte, 4*mcfg.EagerLimit)
		var err error
		if mt.Self() == 0 {
			err = mt.Send(ctx, 1, 2, large)
		} else {
			_, err = mt.Recv(ctx, 0, 2, large)
		}
		if err != nil {
			t.Error(err)
		}
		if err := mt.Barrier(ctx); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var p progressTally
	for r, mt := range c.Tasks {
		p.interrupts[r] = mt.Counters.Get(stats.Interrupts)
		p.polls[r] = mt.Counters.Get(stats.Polls)
	}
	p.end = int64(c.Now())
	return p
}

// TestProgressAccountingPinned pins the interrupt and poll counts and the
// finishing virtual time of fixed LAPI and MPI programs in both progress
// modes. No golden covers these counters, and the order in which a waiting
// loop polls, checks and sleeps shows in them before it shows anywhere
// else.
func TestProgressAccountingPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) progressTally
		want string
	}{
		{"lapi/interrupt", func(t *testing.T) progressTally { return lapiProgramTally(t, lapi.Interrupt) }, "interrupts=[7 8] polls=[22 18] end=851554ns"},
		{"lapi/polling", func(t *testing.T) progressTally { return lapiProgramTally(t, lapi.Polling) }, "interrupts=[0 0] polls=[22 18] end=811732ns"},
		{"mpi/interrupt", func(t *testing.T) progressTally { return mpiProgramTally(t, mpi.Interrupt) }, "interrupts=[4 10] polls=[17 31] end=1014669ns"},
		{"mpi/polling", func(t *testing.T) progressTally { return mpiProgramTally(t, mpi.Polling) }, "interrupts=[0 0] polls=[17 32] end=1021169ns"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t).String(); got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}
