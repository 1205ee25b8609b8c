package lapi

import (
	"encoding/binary"
	"fmt"
)

// Packet types. One byte on the wire.
const (
	ptPutData byte = iota + 1
	ptGetReq
	ptGetData
	ptAmHdr   // first packet of an active message (carries uhdr)
	ptAmData  // subsequent packets of an active message
	ptDataAck // all data of a message landed at the target (fence accounting + Put cmpl counter)
	ptCmplAck // target completion handler finished (Amsend cmpl counter)
	ptRmwReq
	ptRmwRep
	ptBarrierArrive
	ptBarrierGo
	ptGatherWord // AddressInit: rank's word to root
	ptTableChunk // AddressInit: broadcast table chunk
	ptRts        // rendezvous request-to-send (origin -> target; large Put)
	ptCts        // rendezvous clear-to-send (target -> origin; region posted)
	// ptRndvData tags the rendezvous payload itself. It never transits the
	// LAPI header path: the payload rides the transport's zero-copy direct
	// lane (fabric.SendDirect -> RecvInto) straight between user buffers,
	// framed by the transport's own 12-byte (token, offset) header instead
	// of this 48-byte one. The constant exists so the wire-type table is
	// complete and traces can name the lane.
	ptRndvData
)

// header is the decoded LAPI packet header. The encoded form occupies
// headerSize bytes; Config.HeaderBytes (48 on the SP) is charged on the
// wire, padding if larger than the encoding.
//
// Field use by packet type:
//
//	ptPutData:  msgID, offset, totalLen, addr=tgtAddr, addr2+aux=stride, cntrA=tgt counter at target
//	ptGetReq:   msgID, totalLen, addr=tgtAddr, addr2+aux=stride, cntrA=tgt counter at target, aux|=auxRndvGet
//	ptGetData:  msgID, offset, totalLen
//	ptAmHdr:    msgID, totalLen(udata), handler, cntrA=tgt, aux=uhdrLen|auxWantCmpl
//	ptAmData:   msgID, offset, totalLen
//	ptDataAck:  msgID
//	ptCmplAck:  msgID
//	ptRmwReq:   msgID, handler=op, addr=tgtVar, addr2=inVal, aux=comparand
//	ptRmwRep:   msgID, addr2=prev value
//	ptBarrier*: aux=epoch
//	ptGatherWord: addr2=value, offset=rank, aux=generation
//	ptTableChunk: offset=start index, totalLen=total words, aux=generation; payload = words
//	ptRts:      msgID, totalLen, addr=tgtAddr, cntrA=tgt counter at target
//	ptCts:      msgID
//
// The stride of a Put or Get is the target-side layout of a PutStrided or
// GetStrided (packStride: addr2 = BlockBytes<<32 | StrideBytes, the low 32
// bits of aux = Blocks); zero in both means a contiguous region. The
// completion counter of a Put never travels: the origin fires it from its
// message table when the ptDataAck arrives.
type header struct {
	typ      byte
	handler  uint16
	msgID    uint32
	offset   uint32
	totalLen uint32
	addr     uint64
	addr2    uint64
	cntrA    uint32
	aux      uint64
}

// headerSize is the encoded header length. It must not exceed
// Config.HeaderBytes (validated at task creation).
const headerSize = 44

func (h *header) encode(dst []byte) {
	dst[0] = h.typ
	dst[1] = 0
	binary.BigEndian.PutUint16(dst[2:], h.handler)
	binary.BigEndian.PutUint32(dst[4:], h.msgID)
	binary.BigEndian.PutUint32(dst[8:], h.offset)
	binary.BigEndian.PutUint32(dst[12:], h.totalLen)
	binary.BigEndian.PutUint64(dst[16:], h.addr)
	binary.BigEndian.PutUint64(dst[24:], h.addr2)
	binary.BigEndian.PutUint32(dst[32:], h.cntrA)
	binary.BigEndian.PutUint64(dst[36:], h.aux)
}

func decodeHeader(src []byte) (header, error) {
	if len(src) < headerSize {
		return header{}, fmt.Errorf("lapi: short packet: %d bytes", len(src))
	}
	return header{
		typ:      src[0],
		handler:  binary.BigEndian.Uint16(src[2:]),
		msgID:    binary.BigEndian.Uint32(src[4:]),
		offset:   binary.BigEndian.Uint32(src[8:]),
		totalLen: binary.BigEndian.Uint32(src[12:]),
		addr:     binary.BigEndian.Uint64(src[16:]),
		addr2:    binary.BigEndian.Uint64(src[24:]),
		cntrA:    binary.BigEndian.Uint32(src[32:]),
		aux:      binary.BigEndian.Uint64(src[36:]),
	}, nil
}

// newPacket takes a wire packet for h and an n-byte payload from the
// transport's pool (fabric.Transport.Alloc), so on pooled transports a
// steady-state sender allocates nothing. The header is padded to
// cfg.HeaderBytes so the modelled header cost is on the wire; the caller
// fills the payload, pkt[cfg.HeaderBytes:], and ownership passes to the
// transport at Send.
func (t *Task) newPacket(h *header, n int) []byte {
	pkt := t.tr.Alloc(t.cfg.HeaderBytes + n)
	h.encode(pkt)
	clear(pkt[headerSize:t.cfg.HeaderBytes]) // pooled buffers hold stale bytes
	return pkt
}

// buildPacket is newPacket with the payload copied in.
func (t *Task) buildPacket(h *header, payload []byte) []byte {
	pkt := t.newPacket(h, len(payload))
	copy(pkt[t.cfg.HeaderBytes:], payload)
	return pkt
}

// splitPacket separates a received wire packet into header and payload.
func (t *Task) splitPacket(pkt []byte) (header, []byte, error) {
	h, err := decodeHeader(pkt)
	if err != nil {
		return header{}, nil, err
	}
	if len(pkt) < t.cfg.HeaderBytes {
		return header{}, nil, fmt.Errorf("lapi: packet shorter than header budget: %d", len(pkt))
	}
	return h, pkt[t.cfg.HeaderBytes:], nil
}
