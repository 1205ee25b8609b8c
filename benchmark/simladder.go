package main

// The simulated path's layer ladder, run at the start of a traced
// sim_paper run: fixed work at each rung
//
//	ga ⊃ lapi ⊃ switchnet ⊃ sim
//
// timed from outside, with exact counts from the layers' own counters.

import (
	"fmt"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/collective"
	"golapi/internal/exec"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/mpi"
	"golapi/internal/sim"
	"golapi/internal/stats"
	"golapi/internal/switchnet"
)

// rung times fn, which performs n units of work, and returns host ns and
// allocations per unit.
func rung(tr *tracer, name, layer string, n int, fn func() error) (nsPer, allocsPer float64, err error) {
	span := tr.open(name, layer, 0)
	m0 := mallocs()
	t0 := now()
	err = fn()
	wall := since(t0)
	allocs := mallocs() - m0
	tr.close(span)
	return float64(wall.Nanoseconds()) / float64(n), float64(allocs) / float64(n), err
}

func simLadder(res *runResult, tr *tracer) error {
	v := res.Values
	noop := func() {}

	// sim: schedule-and-drain at two queue depths. The same engine reads
	// ~2x apart at 1k and 1M pending events (heap depth and cache
	// footprint): the two figures ROADMAP found in two instruments are one
	// shape at two depths.
	const events = 1 << 20
	var err error
	v["sim.ns_per_event_q1k"], v["sim.allocs_per_event"], err = rung(tr, "engine 1k pending", "sim", events, func() error {
		e := sim.NewEngine()
		for b := 0; b < events/1024; b++ {
			for i := 0; i < 1024; i++ {
				e.Schedule(time.Duration(i), noop)
			}
			if err := e.Run(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["sim.ns_per_event_q1m"], _, err = rung(tr, "engine 1M pending", "sim", events, func() error {
		e := sim.NewEngine()
		for i := 0; i < events; i++ {
			e.Schedule(time.Duration(i), noop)
		}
		return e.Run()
	})
	if err != nil {
		return err
	}
	const switches = 200000
	v["sim.switch_ns"], _, err = rung(tr, "proc switch", "sim", 2*switches, func() error {
		e := sim.NewEngine()
		ca, cb := sim.NewCond(e), sim.NewCond(e)
		turn := 0
		e.Go("ping", func(p *sim.Proc) {
			for i := 0; i < switches; i++ {
				turn = 1
				cb.Broadcast()
				for turn != 0 {
					p.WaitCond(ca)
				}
			}
		})
		e.Go("pong", func(p *sim.Proc) {
			for i := 0; i < switches; i++ {
				for turn != 1 {
					p.WaitCond(cb)
				}
				turn = 0
				ca.Broadcast()
			}
		})
		return e.Run()
	})
	if err != nil {
		return err
	}

	// Above the engine every rung runs on a switch; its counters give the
	// exact packet figures.
	var pkts, retransmits int64
	var switchWall time.Duration
	count := func(sw *switchnet.Switch, wall time.Duration) {
		pkts += sw.Counters.Get(stats.PacketsSent)
		retransmits += sw.Counters.Get(stats.Retransmits)
		switchWall += wall
	}

	// switchnet: raw Adapter.Send -> deliver of 1 KB packets.
	const packets = 50000
	t0 := now()
	v["switchnet.ns_per_pkt"], v["switchnet.allocs_per_pkt"], err = rung(tr, "adapter send 1 KB", "switchnet", packets, func() error {
		e := sim.NewEngine()
		sw, err := switchnet.New(e, 2, switchnet.DefaultConfig())
		if err != nil {
			return err
		}
		src, dst := sw.Endpoint(0), sw.Endpoint(1)
		delivered := 0
		dst.SetDeliver(func(int, []byte) { delivered++ })
		src.SetDeliver(func(int, []byte) {})
		for i := 0; i < packets; i++ {
			src.Send(nil, 1, src.Alloc(1024), nil)
		}
		if err := e.Run(); err != nil {
			return err
		}
		if delivered != packets {
			return fmt.Errorf("switchnet rung: %d of %d packets delivered", delivered, packets)
		}
		count(sw, 0)
		return nil
	})
	if err != nil {
		return err
	}
	switchWall += since(t0)

	// lapi: 4-byte PutSync between two tasks on the default switch.
	const puts = 20000
	var putPkts int64
	t0 = now()
	{
		j, err := cluster.NewSimDefault(2)
		if err != nil {
			return err
		}
		var inner error
		v["lapi.sim_ns_per_put"], v["lapi.sim_allocs_per_put"], err = rung(tr, "PutSync 4 B", "lapi", puts, func() error {
			return j.Run(func(ctx exec.Context, t *lapi.Task) {
				addrs, err := t.AddressInit(ctx, t.Alloc(64))
				if err != nil {
					inner = err
					return
				}
				if t.Self() == 0 {
					src := []byte{1, 2, 3, 4}
					before := j.Switch.Counters.Get(stats.PacketsSent)
					for i := 0; i < puts && inner == nil; i++ {
						inner = t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
					}
					putPkts = j.Switch.Counters.Get(stats.PacketsSent) - before
				}
				t.Gfence(ctx)
			})
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return err
		}
		count(j.Switch, since(t0))
	}
	v["lapi.sim_pkts_per_put"] = float64(putPkts) / puts
	v["lapi.sim_self_ns"] = v["lapi.sim_ns_per_put"] - v["lapi.sim_pkts_per_put"]*v["switchnet.ns_per_pkt"]

	// mpi: 4-byte Send/Recv ping-pong, the two-sided baseline.
	const pings = 10000
	t0 = now()
	{
		j, err := cluster.NewSimMPI(2, switchnet.DefaultConfig(), mpi.DefaultConfig())
		if err != nil {
			return err
		}
		var inner error
		v["mpi.sim_ns_per_sendrecv"], v["mpi.sim_allocs_per_sendrecv"], err = rung(tr, "Send/Recv 4 B", "mpi", pings, func() error {
			return j.Run(func(ctx exec.Context, t *mpi.Task) {
				msg, buf := []byte{1, 2, 3, 4}, make([]byte, 4)
				peer := 1 - t.Self()
				for i := 0; i < pings && inner == nil; i++ {
					if t.Self() == 0 {
						if inner = t.Send(ctx, peer, 1, msg); inner == nil {
							_, inner = t.Recv(ctx, peer, 1, buf)
						}
					} else {
						if _, inner = t.Recv(ctx, peer, 1, buf); inner == nil {
							inner = t.Send(ctx, peer, 1, msg)
						}
					}
				}
			})
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return err
		}
		count(j.Switch, since(t0))
	}

	// ga: single-element Put + Fence over the lapi backend.
	const gaPuts = 10000
	t0 = now()
	{
		j, err := cluster.NewSimDefault(2)
		if err != nil {
			return err
		}
		var inner error
		v["ga.sim_ns_per_put"], v["ga.sim_allocs_per_put"], err = rung(tr, "ga.Put 1 elem + Fence", "ga", gaPuts, func() error {
			return j.Run(func(ctx exec.Context, t *lapi.Task) {
				w, err := ga.NewLAPIWorld(ctx, t, ga.DefaultConfig())
				if err != nil {
					inner = err
					return
				}
				a, err := w.Create(ctx, 64, 64)
				if err != nil {
					inner = err
					return
				}
				if w.Self() == 0 {
					d := a.Distribution(1)
					p := ga.Patch{RLo: d.RLo, RHi: d.RLo, CLo: d.CLo, CHi: d.CLo}
					val := []float64{42.5}
					for i := 0; i < gaPuts && inner == nil; i++ {
						if inner = a.Put(ctx, p, val, 1); inner == nil {
							inner = w.Fence(ctx)
						}
					}
				}
				if err := w.Sync(ctx); err != nil && inner == nil {
					inner = err
				}
			})
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return err
		}
		count(j.Switch, since(t0))
	}
	v["ga.sim_self_ns"] = v["ga.sim_ns_per_put"] - v["lapi.sim_ns_per_put"]

	// collective: 64-byte allreduce over 4 tasks.
	const reduces = 2000
	t0 = now()
	{
		j, err := cluster.NewSimDefault(4)
		if err != nil {
			return err
		}
		var inner error
		v["collective.sim_ns_per_allreduce"], v["collective.sim_allocs_per_allreduce"], err = rung(tr, "Allreduce 64 B x 4", "collective", reduces, func() error {
			return cluster.RunWithComm(j, collective.DefaultConfig(), func(ctx exec.Context, t *lapi.Task, c *collective.Comm) {
				buf := make([]byte, 64)
				for i := 0; i < reduces; i++ {
					if err := c.Allreduce(ctx, buf, collective.OpSumI64); err != nil {
						if inner == nil {
							inner = err
						}
						return
					}
				}
			})
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return err
		}
		count(j.Switch, since(t0))
	}

	v["switchnet.pkts_total"] = float64(pkts)
	v["switchnet.retransmits"] = float64(retransmits)
	v["switchnet.sweep_ns_per_pkt"] = float64(switchWall.Nanoseconds()) / float64(pkts)
	res.Attempted += 6
	return nil
}
