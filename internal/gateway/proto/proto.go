// Package proto defines the lapigate wire protocol: fixed-size big-endian
// frame headers and a per-opcode plan table, in the style of the paper's
// own dispatch — a compact header carrying everything needed to route the
// request (LAPI's uhdr), followed by an optional payload (udata).
//
// Both directions use a 28-byte header. Big-endian matches the LAPI
// backend's storage convention for array blocks and counter words, so a
// gateway co-located with the owning rank can memcpy payload bytes
// straight into the block with no per-element conversion.
//
// Request header layout:
//
//	off  0  uint16  magic  0x4C47 ("LG")
//	off  2  uint8   version
//	off  3  uint8   op
//	off  4  uint32  seq      client-chosen; echoed in the response
//	off  8  uint32  handle   array/counter handle (0 = none)
//	off 12  uint32  row
//	off 16  uint32  col
//	off 20  uint32  count    elements in the row segment
//	off 24  uint32  plen     payload bytes following the header
//
// Response header layout:
//
//	off  0  uint16  magic
//	off  2  uint8   version
//	off  3  uint8   op       echo of the request opcode
//	off  4  uint32  seq      echo of the request seq
//	off  8  uint32  status
//	off 12  uint64  value    ReadInc previous value / Create+Open handle
//	off 20  uint32  credits  flow-control grant (absolute window size)
//	off 24  uint32  plen     payload bytes following the header
package proto

import (
	"encoding/binary"
	"fmt"
)

const (
	Magic      = 0x4C47 // "LG"
	Version    = 1
	HeaderSize = 28

	// MaxFrame bounds a whole frame to the transport's largest pooled
	// buffer class so frame buffers come from fabric Alloc/Release and
	// the hot path never grows a frame across classes.
	MaxFrame   = 64 * 1024
	MaxPayload = MaxFrame - HeaderSize

	// MaxName bounds array/counter names (they ride length-prefixed in
	// Create/Open payloads with a 1-byte length).
	MaxName = 255
)

// Opcodes. Hello must be the first frame on a session; everything else is
// rejected until it arrives.
const (
	OpHello   uint8 = 0x01
	OpPing    uint8 = 0x02
	OpCreate  uint8 = 0x03
	OpOpen    uint8 = 0x04
	OpPut     uint8 = 0x05
	OpGet     uint8 = 0x06
	OpAcc     uint8 = 0x07
	OpReadInc uint8 = 0x08
	OpStats   uint8 = 0x09
)

// Object kinds, carried in the first payload byte of Create.
const (
	KindArray   uint8 = 1
	KindCounter uint8 = 2
)

// Status is the response status word.
type Status uint32

const (
	StatusOK            Status = iota
	StatusBadRequest           // header shape invalid for the opcode
	StatusUnknownHandle        // handle does not name a live object
	StatusBadPatch             // segment outside the array bounds
	StatusWrongKind            // array op on a counter or vice versa
	StatusExists               // Create: name taken with different shape
	StatusNotFound             // Open: no such name
	StatusBusy                 // a mesh operation or collective create failed; retry
	StatusProtocol             // framing violation; session will close
	StatusShutdown             // gateway is draining
)

var statusNames = [...]string{
	"OK", "BadRequest", "UnknownHandle", "BadPatch", "WrongKind",
	"Exists", "NotFound", "Busy", "Protocol", "Shutdown",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint32(s))
}

// ReqHeader is the decoded request header.
type ReqHeader struct {
	Op     uint8
	Seq    uint32
	Handle uint32
	Row    uint32
	Col    uint32
	Count  uint32
	Plen   uint32
}

// RespHeader is the decoded response header.
type RespHeader struct {
	Op      uint8
	Seq     uint32
	Status  Status
	Value   uint64
	Credits uint32
	Plen    uint32
}

// Framing errors. ParseReqHeader wraps these with detail; sessions treat
// any of them as fatal (close with StatusProtocol).
var (
	ErrShortHeader = fmt.Errorf("proto: short header")
	ErrBadMagic    = fmt.Errorf("proto: bad magic")
	ErrBadVersion  = fmt.Errorf("proto: unsupported version")
	ErrOversized   = fmt.Errorf("proto: payload length exceeds limit")
)

// ParseReqHeader decodes and bounds-checks a request header. It validates
// framing only (magic, version, payload bound); per-opcode shape checks
// live in the plan table so unknown opcodes can still be answered with a
// clean status rather than a framing error.
func ParseReqHeader(b []byte) (ReqHeader, error) {
	var h ReqHeader
	if len(b) < HeaderSize {
		return h, fmt.Errorf("%w: %d bytes", ErrShortHeader, len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return h, fmt.Errorf("%w: %#04x", ErrBadMagic, binary.BigEndian.Uint16(b[0:2]))
	}
	if b[2] != Version {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	h.Op = b[3]
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Handle = binary.BigEndian.Uint32(b[8:12])
	h.Row = binary.BigEndian.Uint32(b[12:16])
	h.Col = binary.BigEndian.Uint32(b[16:20])
	h.Count = binary.BigEndian.Uint32(b[20:24])
	h.Plen = binary.BigEndian.Uint32(b[24:28])
	if h.Plen > MaxPayload {
		return h, fmt.Errorf("%w: %d > %d", ErrOversized, h.Plen, MaxPayload)
	}
	return h, nil
}

// PutReqHeader encodes h into dst[:HeaderSize].
func PutReqHeader(dst []byte, h *ReqHeader) {
	binary.BigEndian.PutUint16(dst[0:2], Magic)
	dst[2] = Version
	dst[3] = h.Op
	binary.BigEndian.PutUint32(dst[4:8], h.Seq)
	binary.BigEndian.PutUint32(dst[8:12], h.Handle)
	binary.BigEndian.PutUint32(dst[12:16], h.Row)
	binary.BigEndian.PutUint32(dst[16:20], h.Col)
	binary.BigEndian.PutUint32(dst[20:24], h.Count)
	binary.BigEndian.PutUint32(dst[24:28], h.Plen)
}

// ParseRespHeader decodes and bounds-checks a response header.
func ParseRespHeader(b []byte) (RespHeader, error) {
	var h RespHeader
	if len(b) < HeaderSize {
		return h, fmt.Errorf("%w: %d bytes", ErrShortHeader, len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return h, fmt.Errorf("%w: %#04x", ErrBadMagic, binary.BigEndian.Uint16(b[0:2]))
	}
	if b[2] != Version {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	h.Op = b[3]
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Status = Status(binary.BigEndian.Uint32(b[8:12]))
	h.Value = binary.BigEndian.Uint64(b[12:20])
	h.Credits = binary.BigEndian.Uint32(b[20:24])
	h.Plen = binary.BigEndian.Uint32(b[24:28])
	if h.Plen > MaxPayload {
		return h, fmt.Errorf("%w: %d > %d", ErrOversized, h.Plen, MaxPayload)
	}
	return h, nil
}

// PutRespHeader encodes h into dst[:HeaderSize].
func PutRespHeader(dst []byte, h *RespHeader) {
	binary.BigEndian.PutUint16(dst[0:2], Magic)
	dst[2] = Version
	dst[3] = h.Op
	binary.BigEndian.PutUint32(dst[4:8], h.Seq)
	binary.BigEndian.PutUint32(dst[8:12], uint32(h.Status))
	binary.BigEndian.PutUint64(dst[12:20], h.Value)
	binary.BigEndian.PutUint32(dst[20:24], h.Credits)
	binary.BigEndian.PutUint32(dst[24:28], h.Plen)
}

// Plan describes one opcode: its name, whether dispatch must resolve the
// handle field, and the shape its header fields and payload length must
// satisfy. Requests failing Check are answered StatusBadRequest without
// touching the mesh; the payload itself still arrives (Plen bytes) so the
// stream stays framed.
type Plan struct {
	Name        string
	NeedsHandle bool
	Check       func(h *ReqHeader) bool
}

// Plans is the opcode dispatch table, indexed by opcode. A zero Name
// marks an unknown opcode.
var Plans = [256]Plan{
	OpHello: {Name: "Hello", Check: func(h *ReqHeader) bool {
		return h.Plen == 0 && h.Handle == 0 && h.Count == 0
	}},
	OpPing: {Name: "Ping", Check: func(h *ReqHeader) bool {
		return h.Plen == 0
	}},
	// Create payload: kind u8, rows u32, cols u32, name (1..MaxName bytes).
	// Counters ignore rows/cols but still carry them (as zero).
	OpCreate: {Name: "Create", Check: func(h *ReqHeader) bool {
		return h.Plen >= 1+4+4+1 && h.Plen <= 1+4+4+MaxName
	}},
	// Open payload: name.
	OpOpen: {Name: "Open", Check: func(h *ReqHeader) bool {
		return h.Plen >= 1 && h.Plen <= MaxName
	}},
	// Put payload: Count big-endian float64s for [Row, Col..Col+Count).
	OpPut: {Name: "Put", NeedsHandle: true, Check: func(h *ReqHeader) bool {
		return h.Count >= 1 && h.Count <= MaxPayload/8 && h.Plen == h.Count*8
	}},
	// Get: no payload; the response carries Count float64s.
	OpGet: {Name: "Get", NeedsHandle: true, Check: func(h *ReqHeader) bool {
		return h.Plen == 0 && h.Count >= 1 && h.Count <= MaxPayload/8
	}},
	// Acc payload: alpha float64 then Count float64s (GA accumulate,
	// dst += alpha * src).
	OpAcc: {Name: "Acc", NeedsHandle: true, Check: func(h *ReqHeader) bool {
		return h.Count >= 1 && h.Count <= (MaxPayload-8)/8 && h.Plen == 8+h.Count*8
	}},
	// ReadInc payload: delta int64. Response value = previous value.
	OpReadInc: {Name: "ReadInc", NeedsHandle: true, Check: func(h *ReqHeader) bool {
		return h.Plen == 8
	}},
	OpStats: {Name: "Stats", Check: func(h *ReqHeader) bool {
		return h.Plen == 0
	}},
}
