package gateway

// The dispatch core: an array opcode is one of internal/ga's row
// operations, a read-and-increment one LAPI Rmw, following the paper's
// completion discipline. Writes (Put, Acc) return once every owner has
// applied the data, so a client's next request observes its own writes
// anywhere in the mesh; reads (Get, ReadInc) once the data has landed at
// the home rank. The wire format is big-endian float64s, GA's own block
// format, so a payload goes to the owners, and a Get's answer lands in the
// response frame, with no per-element conversion.

import (
	"encoding/binary"
	"math"

	"golapi/internal/exec"
	"golapi/internal/gateway/proto"
	"golapi/internal/lapi"
)

func (s *session) exec(ctx exec.Context, req *request) {
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
	case proto.OpPut, proto.OpGet, proto.OpAcc:
		s.execRow(ctx, req)
	case proto.OpReadInc:
		s.execReadInc(ctx, req)
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

// execRow runs a Put, Get or Acc as the ga row operation of the same name
// on the home rank's view of the array.
func (s *session) execRow(ctx exec.Context, req *request) {
	obj, st := s.resolve(req, proto.KindArray)
	if st == proto.StatusOK && !obj.segBounds(&req.h) {
		st = proto.StatusBadPatch
	}
	if st != proto.StatusOK {
		s.respond(req, st, 0, nil)
		return
	}
	a, row, col := obj.arrs[s.rs.idx], int(req.h.Row), int(req.h.Col)
	var err error
	switch req.h.Op {
	case proto.OpPut:
		err = a.PutRow(ctx, row, col, req.payload)
	case proto.OpAcc:
		err = a.AccRow(ctx, row, col, math.Float64frombits(binary.BigEndian.Uint64(req.payload)), req.payload[8:])
	default:
		frame := s.rs.ep.Alloc(proto.HeaderSize + int(req.h.Count)*8)
		s.srv.frames.Add(1)
		if err = a.GetRow(ctx, row, col, frame[proto.HeaderSize:]); err == nil {
			s.respond(req, proto.StatusOK, 0, frame)
			return
		}
		s.rs.ep.Release(frame)
		s.srv.frames.Add(-1)
	}
	if err != nil {
		s.respond(req, proto.StatusBusy, 0, nil)
		return
	}
	s.respond(req, proto.StatusOK, 0, nil)
}

func (s *session) execReadInc(ctx exec.Context, req *request) {
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
	prev, err := s.rs.t.RmwSync(ctx, lapi.RmwFetchAndAdd, obj.ctrOwner, obj.ctrAddr, delta, 0)
	if err != nil {
		s.respond(req, proto.StatusBusy, 0, nil)
		return
	}
	s.respond(req, proto.StatusOK, uint64(prev), nil)
}
