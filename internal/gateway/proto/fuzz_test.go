package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// framingSeeds are the TestParseReqHeaderFraming cases as raw bytes: a
// good header, then one short, bad-magic, bad-version and oversized
// variant of it.
func framingSeeds(good []byte) [][]byte {
	magic := bytes.Clone(good)
	magic[0] = 0xFF
	version := bytes.Clone(good)
	version[2] = Version + 1
	oversized := bytes.Clone(good)
	binary.BigEndian.PutUint32(oversized[24:28], MaxPayload+1)
	return [][]byte{good, good[:HeaderSize-1], magic, version, oversized}
}

// FuzzParseReqHeader: arbitrary bytes must never panic the request
// decoder, and every header it accepts must be exactly its input's first
// HeaderSize bytes — re-encoding reproduces them and re-parses to the
// same value.
func FuzzParseReqHeader(f *testing.F) {
	good := make([]byte, HeaderSize)
	PutReqHeader(good, &ReqHeader{Op: OpPing, Seq: 1})
	for _, seed := range framingSeeds(good) {
		f.Add(seed)
	}
	full := make([]byte, HeaderSize)
	PutReqHeader(full, &ReqHeader{Op: OpPut, Seq: 9, Handle: 2, Row: 3, Col: 4, Count: 5, Plen: MaxPayload})
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseReqHeader(data)
		if err != nil {
			return
		}
		out := make([]byte, HeaderSize)
		PutReqHeader(out, &h)
		if !bytes.Equal(out, data[:HeaderSize]) {
			t.Fatalf("re-encoding %+v gave % x, want % x", h, out, data[:HeaderSize])
		}
		h2, err := ParseReqHeader(out)
		if err != nil || h2 != h {
			t.Fatalf("parse/put not a fixed point: %+v vs %+v (%v)", h, h2, err)
		}
	})
}

// FuzzParseRespHeader is FuzzParseReqHeader for the response decoder.
func FuzzParseRespHeader(f *testing.F) {
	good := make([]byte, HeaderSize)
	PutRespHeader(good, &RespHeader{Op: OpPing, Seq: 1})
	for _, seed := range framingSeeds(good) {
		f.Add(seed)
	}
	full := make([]byte, HeaderSize)
	PutRespHeader(full, &RespHeader{Op: OpReadInc, Seq: 9, Status: StatusBusy, Value: 1 << 40, Credits: 64, Plen: MaxPayload})
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseRespHeader(data)
		if err != nil {
			return
		}
		out := make([]byte, HeaderSize)
		PutRespHeader(out, &h)
		if !bytes.Equal(out, data[:HeaderSize]) {
			t.Fatalf("re-encoding %+v gave % x, want % x", h, out, data[:HeaderSize])
		}
		h2, err := ParseRespHeader(out)
		if err != nil || h2 != h {
			t.Fatalf("parse/put not a fixed point: %+v vs %+v (%v)", h, h2, err)
		}
	})
}
