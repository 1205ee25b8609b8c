// Package mpl models the slice of IBM's MPL library the paper's baseline
// GA implementation used (§5.2): the message-passing core (re-exported from
// the mpi package — on the SP both rode the same transport protocol) plus
// the interrupt-driven receive-and-call mechanism rcvncall and the
// interrupt lock lockrnc.
//
// rcvncall is how one-sided-ish access was retrofitted onto a two-sided
// library: a request message interrupts the target and runs a handler, at
// the cost of AIX handler-context creation — the dominant term in the
// baseline's latency (Table 2's 200 µs interrupt round trip, and GA/MPL's
// 221 µs get).
package mpl

import (
	"golapi/internal/exec"
	"golapi/internal/fabric"
	"golapi/internal/mpi"
)

// Task is an MPL endpoint: the MPI-style two-sided core plus rcvncall.
type Task struct {
	*mpi.Task
}

// Handler is an rcvncall message handler. It runs in its own activity (the
// modelled AIX interrupt-handler context) after the handler-context
// creation cost has been charged. It may issue MPL calls.
type Handler func(ctx exec.Context, st mpi.Status)

// NewTask initializes an MPL task over tr.
func NewTask(rt exec.Runtime, tr fabric.Transport, cfg mpi.Config) (*Task, error) {
	mt, err := mpi.NewTask(rt, tr, cfg)
	if err != nil {
		return nil, err
	}
	return &Task{Task: mt}, nil
}

// Rcvncall posts buf to receive the next message matching (src, tag) and
// arranges for h to run on arrival, interrupt-style — no blocking receive
// required. The handler typically re-posts with another Rcvncall to keep a
// service loop alive, exactly like GA's MPL request handler (§5.2).
func (t *Task) Rcvncall(ctx exec.Context, src, tag int, buf []byte, h Handler) error {
	_, err := t.IrecvCall(ctx, src, tag, buf, h)
	return err
}

// Lockrnc disables interrupt-driven handler dispatch (progress falls back
// to polling), and Unlockrnc re-enables it. The baseline GA used this pair
// to make accumulate atomic with respect to rcvncall handlers (§5.2).
func (t *Task) Lockrnc() { t.SetMode(mpi.Polling) }

// Unlockrnc re-enables interrupt-driven dispatch after Lockrnc.
func (t *Task) Unlockrnc() { t.SetMode(mpi.Interrupt) }
