package lapi

import "golapi/internal/exec"

// Blocking convenience wrappers. The paper (§3): "Although the LAPI
// communication calls are non-blocking, the blocking version is a simple
// extension by immediately waiting on the appropriate counter after
// issuing the non-blocking call." These helpers do exactly that with an
// internal counter pool; semantics and costs are identical to issuing the
// call and waiting yourself.

// blockSlot is what one blocking call borrows: a zeroed counter and the
// word RmwSync's previous value lands in, pooled together so that the word
// is not a fresh heap allocation per call.
type blockSlot struct {
	c    *Counter
	prev int64
}

// blockingSlot borrows a slot for one blocking call.
func (t *Task) blockingSlot() *blockSlot {
	if n := len(t.blockPool); n > 0 {
		s := t.blockPool[n-1]
		t.blockPool = t.blockPool[:n-1]
		return s
	}
	return &blockSlot{c: t.NewCounter()}
}

func (t *Task) releaseSlot(s *blockSlot) {
	t.blockPool = append(t.blockPool, s)
}

// PutSync is Put followed by a wait for target completion: when it
// returns, the data is in place at the target.
func (t *Task) PutSync(ctx exec.Context, tgt int, tgtAddr Addr, data []byte, tgtCntr RemoteCounter) error {
	t.requireBlockingAllowed("PutSync")
	s := t.blockingSlot()
	defer t.releaseSlot(s)
	if err := t.Put(ctx, tgt, tgtAddr, data, tgtCntr, nil, s.c); err != nil {
		return err
	}
	t.Waitcntr(ctx, s.c, 1)
	return nil
}

// GetSync is Get followed by a wait for the data to arrive.
func (t *Task) GetSync(ctx exec.Context, tgt int, tgtAddr Addr, buf []byte, tgtCntr RemoteCounter) error {
	t.requireBlockingAllowed("GetSync")
	s := t.blockingSlot()
	defer t.releaseSlot(s)
	if err := t.Get(ctx, tgt, tgtAddr, buf, tgtCntr, s.c); err != nil {
		return err
	}
	t.Waitcntr(ctx, s.c, 1)
	return nil
}

// RmwSync performs the atomic operation and returns the previous value
// once it is available.
func (t *Task) RmwSync(ctx exec.Context, op RmwOp, tgt int, tgtVar Addr, inVal, comparand int64) (int64, error) {
	t.requireBlockingAllowed("RmwSync")
	s := t.blockingSlot()
	defer t.releaseSlot(s)
	if err := t.Rmw(ctx, op, tgt, tgtVar, inVal, comparand, &s.prev, s.c); err != nil {
		return 0, err
	}
	t.Waitcntr(ctx, s.c, 1)
	return s.prev, nil
}

// AmsendSync is Amsend followed by a wait for the target's completion
// handler to finish.
func (t *Task) AmsendSync(ctx exec.Context, tgt int, hdl HandlerID, uhdr, udata []byte, tgtCntr RemoteCounter) error {
	t.requireBlockingAllowed("AmsendSync")
	s := t.blockingSlot()
	defer t.releaseSlot(s)
	if err := t.Amsend(ctx, tgt, hdl, uhdr, udata, tgtCntr, nil, s.c); err != nil {
		return err
	}
	t.Waitcntr(ctx, s.c, 1)
	return nil
}
