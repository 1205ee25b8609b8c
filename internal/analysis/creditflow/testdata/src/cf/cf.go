// Package cf is the creditflow golden test: a miniature of the gateway
// session — a request freelist (getReq/putReq), a consuming respond
// helper, a PostArg handoff, and a request channel between goroutines.
// The cases whose want mentions respond(), the channel send, or a
// parameter contract need the summary, transfer-channel or parameter
// layer — see TestIntraproceduralMisses.
package cf

import (
	"golapi/internal/exec"
)

type req struct {
	n   int
	out []byte
}

type sess struct {
	free    []*req
	ch      chan *req
	rt      *exec.RealRuntime
	enqueue func(arg any)
}

func (s *sess) getReq() *req {
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free = s.free[:n-1]
		return r
	}
	return &req{}
}

func (s *sess) putReq(r *req) {
	s.free = append(s.free, r)
}

// respond recycles the request on every path: summary Consumes.
func (s *sess) respond(r *req) {
	r.n++
	s.putReq(r)
}

// touch only reads and writes fields: summary Borrows.
func touch(r *req) {
	if r.n < 0 {
		r.n = 0
	}
}

// dropOnError: the error path returns with the credit still held.
func (s *sess) dropOnError(bad bool) {
	r := s.getReq() // want `request r may drop its credit: not recycled or handed off on some path to return`
	if bad {
		return
	}
	s.putReq(r)
}

// putTwice: the second putReq double-grants the credit.
func (s *sess) putTwice() {
	r := s.getReq()
	s.putReq(r)
	s.putReq(r) // want `request r credit granted twice: putReq\(\), after putReq\(\) at line \d+ already discharged it`
}

// useAfterPut: the freelist may already have recycled r.
func (s *sess) useAfterPut() {
	r := s.getReq()
	s.putReq(r)
	r.n = 1 // want `request r used after putReq\(\) at line \d+: the freelist may already have handed it out again`
}

// doubleGrantViaRespond: respond recycled the request; the direct putReq
// grants its credit a second time. Only the summary layer sees it.
func (s *sess) doubleGrantViaRespond() {
	r := s.getReq()
	s.respond(r)
	s.putReq(r) // want `request r credit granted twice: putReq\(\), after respond\(\) at line \d+ already discharged it`
}

// useAfterRespond: same discharge, different symptom.
func (s *sess) useAfterRespond() {
	r := s.getReq()
	s.respond(r)
	r.n = 1 // want `request r used after respond\(\) at line \d+: the freelist may already have handed it out again`
}

// dropViaBorrower: touch provably only borrows, so the obligation stays
// here and the error path drops it. Without the summary the call would
// read as an escape and the finding would vanish.
func (s *sess) dropViaBorrower(bad bool) {
	r := s.getReq() // want `request r may drop its credit: not recycled or handed off on some path to return`
	touch(r)
	if bad {
		return
	}
	s.putReq(r)
}

// respondClean: handing the request to a consuming helper discharges it.
func (s *sess) respondClean() {
	r := s.getReq()
	touch(r)
	s.respond(r)
}

// sendThenRecycle: the send handed the credit to the drain loop; the
// putReq grants it again.
func (s *sess) sendThenRecycle() {
	r := s.getReq()
	s.ch <- r
	s.putReq(r) // want `request r credit granted twice: putReq\(\), after the channel send at line \d+ already discharged it`
}

// handoffClean: the send is a complete discharge.
func (s *sess) handoffClean() {
	r := s.getReq()
	s.ch <- r
}

// drainRecycles: every received request is recycled.
func (s *sess) drainRecycles() {
	for r := range s.ch {
		s.putReq(r)
	}
}

// recvDrop: receiving from the request channel acquires the credit; the
// continue path drops it.
func (s *sess) recvDrop(bad bool) {
	for r := range s.ch { // want `request r may drop its credit: not recycled or handed off on some path to return`
		if bad {
			continue
		}
		s.putReq(r)
	}
}

// paramMixed: one exit path recycles the parameter, the other drops it —
// the caller cannot satisfy either contract. want on the line below:
func (s *sess) paramMixed(r *req, bad bool) { // want `request r discharged on some paths but still held on others: every path must respond, recycle, or hand it off`
	if bad {
		return
	}
	s.putReq(r)
}

// paramBorrowClean: borrowed everywhere — the caller keeps the credit.
func (s *sess) paramBorrowClean(r *req) int {
	return r.n
}

// paramConsumeClean: consumed everywhere — a coherent helper contract.
func (s *sess) paramConsumeClean(r *req, bad bool) {
	if bad {
		s.respond(r)
		return
	}
	s.putReq(r)
}

// postArgClean: PostArg hands the request to the rank's serialized
// context, credit and all.
func (s *sess) postArgClean() {
	r := s.getReq()
	s.rt.PostArg(s.enqueue, r)
}
