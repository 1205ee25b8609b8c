package ga_test

import (
	"testing"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/ga"
	"golapi/internal/lapi"
	"golapi/internal/switchnet"
)

// holdSelfPayload wraps a rank's endpoint and holds back every packet the
// rank delivers to itself that carries a payload — on rank 0 during
// Create, its own copy of the address table — until the next packet from
// another rank has been delivered. It only reorders deliveries; it
// schedules nothing, so no virtual time is added.
type holdSelfPayload struct {
	fabric.Transport
	headerBytes int
	deliver     func(src int, pkt []byte)
	held        [][]byte
}

func (h *holdSelfPayload) SetDeliver(fn func(src int, pkt []byte)) {
	h.deliver = fn
	h.Transport.SetDeliver(h.intercept)
}

func (h *holdSelfPayload) intercept(src int, pkt []byte) {
	self := h.Self()
	if src == self && len(pkt) > h.headerBytes {
		h.held = append(h.held, pkt)
		return
	}
	h.deliver(src, pkt)
	if src != self {
		held := h.held
		h.held = nil
		for _, p := range held {
			h.deliver(self, p)
		}
	}
}

// TestCreatePublishesBlockBeforeExchange: a peer may finish Create — its
// copy of the address table in hand — and send a request to rank 0 before
// rank 0's own copy of the table has arrived. Rank 0 must serve it, which
// it can only do if its new array's block is known before the exchange.
func TestCreatePublishesBlockBeforeExchange(t *testing.T) {
	lcfg := lapi.DefaultConfig()
	c, err := cluster.NewJob(2, switchnet.DefaultConfig(), func(rt exec.Runtime, tr fabric.Transport) (*lapi.Task, error) {
		if tr.Self() == 0 {
			tr = &holdSelfPayload{Transport: tr, headerBytes: lcfg.HeaderBytes}
		}
		return lapi.NewTask(rt, tr, lcfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ga.Patch{RLo: 0, RHi: 0, CLo: 0, CHi: 0} // owned by rank 0
	err = c.Run(func(ctx exec.Context, lt *lapi.Task) {
		w, err := ga.NewLAPIWorld(ctx, lt, ga.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		a, err := w.Create(ctx, 4, 4)
		if err != nil {
			t.Error(err)
			return
		}
		if a.Owner(0, 0) != 0 {
			t.Errorf("element (0,0) owned by rank %d, want 0", a.Owner(0, 0))
		}
		if w.Self() == 1 {
			if err := a.Acc(ctx, p, []float64{1.5}, 1, 2); err != nil {
				t.Error(err)
			}
		}
		w.Sync(ctx)
		if w.Self() == 0 {
			if got := a.At(0, 0); got != 3 {
				t.Errorf("element (0,0) = %g after the peer's accumulate, want 3", got)
			}
		}
		w.Sync(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCreateRefusesA17BitHandle: every GA request names its array in a
// 16-bit header field, so the 65 537th array of a world would alias the
// first at its owners. Create refuses it.
func TestCreateRefusesA17BitHandle(t *testing.T) {
	runLAPIDirect(t, 1, func(ctx exec.Context, w *ga.World, _ *lapi.Task, _ func() int64) {
		for k := 0; k < 1<<16; k++ {
			if _, err := w.Create(ctx, 1, 1); err != nil {
				t.Errorf("Create #%d: %v", k, err)
				return
			}
		}
		if _, err := w.Create(ctx, 1, 1); err == nil {
			t.Error("Create accepted array 65537")
		}
	})
}
