package gateway

// The dispatch core: opcode → one-sided LAPI operations, following the
// paper's completion discipline. Writes (Put, Acc) wait on the cmpl
// counter — remote completion acknowledged — before answering, so a
// client's next request observes its own writes anywhere in the mesh.
// Reads (Get, ReadInc) wait on the org counter — data landed at the
// origin. Segments that fall inside the home rank's own block short-cut
// to a memcpy: the wire format is big-endian float64s, exactly the LAPI
// backend's storage format, so the fast path is a straight copy with no
// per-element conversion.

import (
	"encoding/binary"
	"math"

	"golapi/internal/exec"
	"golapi/internal/gateway/proto"
	"golapi/internal/lapi"
)

func (s *session) exec(ctx exec.Context, req *request, org, cmpl *lapi.Counter) {
	if req.protoErr {
		s.respond(req, proto.StatusProtocol, 0, nil)
		return
	}
	if !proto.Plans[req.h.Op].Check(&req.h) {
		// Well-framed but the wrong shape for the opcode. The payload was
		// read in full, so the stream stays in sync.
		s.respond(req, proto.StatusBadRequest, 0, nil)
		return
	}
	switch req.h.Op {
	case proto.OpHello:
		// Value carries the session's home rank (diagnostic); Credits in
		// every response header carries the flow-control window.
		s.respond(req, proto.StatusOK, uint64(s.rs.idx), nil)
	case proto.OpPing:
		s.respond(req, proto.StatusOK, 0, nil)
	case proto.OpStats:
		s.respond(req, proto.StatusOK, uint64(s.srv.served.Load()), nil)
	case proto.OpOpen:
		s.execOpen(req)
	case proto.OpPut:
		s.execPut(ctx, req, cmpl)
	case proto.OpGet:
		s.execGet(ctx, req, org)
	case proto.OpAcc:
		s.execAcc(ctx, req, cmpl)
	case proto.OpReadInc:
		s.execReadInc(ctx, req, org)
	default:
		// Unreachable: read marks unknown opcodes protoErr, and serve
		// runs OpCreate through execCreate.
		s.respond(req, proto.StatusProtocol, 0, nil)
	}
}

// resolve looks the handle up and checks the object kind.
func (s *session) resolve(req *request, kind uint8) (*object, proto.Status) {
	obj := s.srv.cat.Load().lookup(req.h.Handle)
	if obj == nil {
		return nil, proto.StatusUnknownHandle
	}
	if obj.kind != kind {
		return nil, proto.StatusWrongKind
	}
	return obj, proto.StatusOK
}

// segBounds checks the row segment against the array dims.
func (o *object) segBounds(h *proto.ReqHeader) bool {
	return h.Row < o.rows && h.Col < o.cols && uint64(h.Col)+uint64(h.Count) <= uint64(o.cols)
}

// execCreate answers s.req, a well-framed OpCreate, on the session
// goroutine: create runs an activity on every rank, the home rank
// included, so it must not be called under a rank lock.
func (s *session) execCreate() {
	req := &s.req
	if !proto.Plans[proto.OpCreate].Check(&req.h) {
		s.respond(req, proto.StatusBadRequest, 0, nil)
		return
	}
	p := req.payload
	kind := p[0]
	rows := binary.BigEndian.Uint32(p[1:5])
	cols := binary.BigEndian.Uint32(p[5:9])
	switch {
	case kind == proto.KindArray && rows != 0 && cols != 0 && uint64(rows)*uint64(cols) <= uint64(s.srv.cfg.MaxArrayElems),
		kind == proto.KindCounter && rows == 0 && cols == 0:
		st, h := s.srv.create(kind, string(p[9:]), rows, cols)
		s.respond(req, st, h, nil)
	default:
		s.respond(req, proto.StatusBadRequest, 0, nil)
	}
}

func (s *session) execOpen(req *request) {
	cat := s.srv.cat.Load()
	if h, ok := cat.byName[string(req.payload)]; ok {
		obj := cat.objs[h-1]
		// Value: the handle in the low 32 bits, the kind above it. The
		// dims do not fit; a client re-Creates to learn them. The kind
		// lets a client catch a mismatch before issuing ops.
		s.respond(req, proto.StatusOK, uint64(h)|uint64(obj.kind)<<32, nil)
		return
	}
	s.respond(req, proto.StatusNotFound, 0, nil)
}

func (s *session) execPut(ctx exec.Context, req *request, cmpl *lapi.Counter) {
	obj, st := s.resolve(req, proto.KindArray)
	if st != proto.StatusOK {
		s.respond(req, st, 0, nil)
		return
	}
	if !obj.segBounds(&req.h) {
		s.respond(req, proto.StatusBadPatch, 0, nil)
		return
	}
	row, col, count := int(req.h.Row), int(req.h.Col), int(req.h.Count)
	rank := s.rs.idx
	if off, ok := obj.localSeg(rank, row, col, count); ok {
		copy(obj.block[rank][off:off+count*8], req.payload)
		s.respond(req, proto.StatusOK, 0, nil)
		return
	}
	issued := 0
	var opErr error
	obj.arrs[rank].RowSpan(row, col, count, func(owner int, addr lapi.Addr, off, elems int) {
		piece := req.payload[off*8 : (off+elems)*8]
		if owner == rank {
			loff, _ := obj.localSeg(rank, row, col+off, elems)
			copy(obj.block[rank][loff:loff+elems*8], piece)
			return
		}
		if err := s.rs.t.Put(ctx, owner, addr, piece, lapi.NoCounter, nil, cmpl); err != nil {
			opErr = err
			return
		}
		issued++
	})
	if issued > 0 {
		s.rs.t.Waitcntr(ctx, cmpl, issued)
	}
	if opErr != nil {
		s.respond(req, proto.StatusBusy, 0, nil)
		return
	}
	s.respond(req, proto.StatusOK, 0, nil)
}

func (s *session) execGet(ctx exec.Context, req *request, org *lapi.Counter) {
	obj, st := s.resolve(req, proto.KindArray)
	if st != proto.StatusOK {
		s.respond(req, st, 0, nil)
		return
	}
	if !obj.segBounds(&req.h) {
		s.respond(req, proto.StatusBadPatch, 0, nil)
		return
	}
	row, col, count := int(req.h.Row), int(req.h.Col), int(req.h.Count)
	rank := s.rs.idx
	frame := s.rs.ep.Alloc(proto.HeaderSize + count*8)
	s.srv.frames.Add(1)
	data := frame[proto.HeaderSize:]
	if off, ok := obj.localSeg(rank, row, col, count); ok {
		copy(data, obj.block[rank][off:off+count*8])
		s.respond(req, proto.StatusOK, 0, frame)
		return
	}
	issued := 0
	var opErr error
	obj.arrs[rank].RowSpan(row, col, count, func(owner int, addr lapi.Addr, off, elems int) {
		piece := data[off*8 : (off+elems)*8]
		if owner == rank {
			loff, _ := obj.localSeg(rank, row, col+off, elems)
			copy(piece, obj.block[rank][loff:loff+elems*8])
			return
		}
		// Remote pieces land straight in the response frame.
		if err := s.rs.t.Get(ctx, owner, addr, piece, lapi.NoCounter, org); err != nil {
			opErr = err
			return
		}
		issued++
	})
	if issued > 0 {
		s.rs.t.Waitcntr(ctx, org, issued)
	}
	if opErr != nil {
		s.rs.ep.Release(frame)
		s.srv.frames.Add(-1)
		s.respond(req, proto.StatusBusy, 0, nil)
		return
	}
	s.respond(req, proto.StatusOK, 0, frame)
}

func (s *session) execAcc(ctx exec.Context, req *request, cmpl *lapi.Counter) {
	obj, st := s.resolve(req, proto.KindArray)
	if st != proto.StatusOK {
		s.respond(req, st, 0, nil)
		return
	}
	if !obj.segBounds(&req.h) {
		s.respond(req, proto.StatusBadPatch, 0, nil)
		return
	}
	row, col, count := int(req.h.Row), int(req.h.Col), int(req.h.Count)
	rank := s.rs.idx
	alphaBits := binary.BigEndian.Uint64(req.payload[0:8])
	data := req.payload[8:]
	if _, ok := obj.localSeg(rank, row, col, count); ok {
		obj.accLocal(rank, row, col, math.Float64frombits(alphaBits), data)
		s.respond(req, proto.StatusOK, 0, nil)
		return
	}
	issued := 0
	var opErr error
	var uhdr [accUhdrSize]byte
	binary.BigEndian.PutUint32(uhdr[0:4], req.h.Handle)
	binary.BigEndian.PutUint64(uhdr[16:24], alphaBits)
	obj.arrs[rank].RowSpan(row, col, count, func(owner int, addr lapi.Addr, off, elems int) {
		piece := data[off*8 : (off+elems)*8]
		if owner == rank {
			obj.accLocal(rank, row, col+off, math.Float64frombits(alphaBits), piece)
			return
		}
		// uhdr and udata gather into the wire packet inside Amsend, so the
		// stack uhdr and the pooled payload may be reused immediately.
		binary.BigEndian.PutUint32(uhdr[4:8], uint32(row))
		binary.BigEndian.PutUint32(uhdr[8:12], uint32(col+off))
		binary.BigEndian.PutUint32(uhdr[12:16], uint32(elems))
		if err := s.rs.t.Amsend(ctx, owner, s.rs.accH, uhdr[:], piece, lapi.NoCounter, nil, cmpl); err != nil {
			opErr = err
			return
		}
		issued++
	})
	if issued > 0 {
		// cmpl fires after the target's completion handler has folded the
		// piece in — the accumulate is visible mesh-wide when we answer.
		s.rs.t.Waitcntr(ctx, cmpl, issued)
	}
	if opErr != nil {
		s.respond(req, proto.StatusBusy, 0, nil)
		return
	}
	s.respond(req, proto.StatusOK, 0, nil)
}

func (s *session) execReadInc(ctx exec.Context, req *request, org *lapi.Counter) {
	obj, st := s.resolve(req, proto.KindCounter)
	if st != proto.StatusOK {
		s.respond(req, st, 0, nil)
		return
	}
	delta := int64(binary.BigEndian.Uint64(req.payload[0:8]))
	if obj.ctrOwner == s.rs.idx {
		// The counter word lives on this rank: read-modify-write directly.
		// Serialized with remote Rmw handlers by the rank lock, so this is
		// atomic with respect to every other path that touches the word.
		v, err := s.rs.t.ReadInt64(obj.ctrAddr)
		if err != nil {
			s.respond(req, proto.StatusBusy, 0, nil)
			return
		}
		if err := s.rs.t.WriteInt64(obj.ctrAddr, v+delta); err != nil {
			s.respond(req, proto.StatusBusy, 0, nil)
			return
		}
		s.respond(req, proto.StatusOK, uint64(v), nil)
		return
	}
	if err := s.rs.t.Rmw(ctx, lapi.RmwFetchAndAdd, obj.ctrOwner, obj.ctrAddr, delta, 0, &req.prev, org); err != nil {
		s.respond(req, proto.StatusBusy, 0, nil)
		return
	}
	s.rs.t.Waitcntr(ctx, org, 1)
	s.respond(req, proto.StatusOK, uint64(req.prev), nil)
}
