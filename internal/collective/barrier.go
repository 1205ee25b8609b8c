package collective

import (
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/stats"
)

// Barrier blocks until every rank has entered it. The schedule is
// dissemination: ceil(log2 N) rounds in which each rank signals the peer
// 2^k ahead on the ring (a zero-byte Put that only rings the round's
// counter) and waits for the symmetric signal from behind.
func (c *Comm) Barrier(ctx exec.Context) error {
	if err := c.begin("barrier", "dissemination", 0); err != nil {
		return err
	}
	if c.n == 1 {
		return nil
	}
	return c.sync(ctx, 0)
}

// sync runs the dissemination rounds using counter indices baseStep+k. It
// is both the default Barrier and the consumption fence embedded in the
// tree collectives: when any rank returns from sync, every rank has
// reached it (each round doubles the set of ranks a signal transitively
// covers). A two-sided library gets this for free from receive matching;
// a one-sided schedule whose tree topology can change between calls must
// synchronize explicitly, or a fast subtree could overwrite mailbox slots
// a slow rank has not consumed yet.
func (c *Comm) sync(ctx exec.Context, baseStep int) error {
	for k, dist := 0, 1; dist < c.n; k, dist = k+1, dist*2 {
		peer := (c.rank + dist) % c.n
		if err := c.t.Put(ctx, peer, lapi.AddrNil, nil, c.remoteCntr(baseStep+k), nil, nil); err != nil {
			return err
		}
		c.wait(ctx, baseStep+k)
		c.t.Counters.Add(stats.CollBarrierSteps, 1)
		c.tracef("sync round %d signal %d", k, peer)
	}
	return nil
}
