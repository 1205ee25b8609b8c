package lapi

import (
	"testing"
)

// FuzzDecodeHeader: the header decoder must never panic on arbitrary bytes
// and must be the exact inverse of encode on well-formed input.
func FuzzDecodeHeader(f *testing.F) {
	f.Add(make([]byte, headerSize))
	f.Add([]byte{ptPutData, 0, 0, 1})
	good := header{typ: ptAmHdr, handler: 7, msgID: 42, offset: 9, totalLen: 100, addr: 1 << 40, addr2: 3, cntrA: 2, aux: 99}
	buf := make([]byte, headerSize)
	good.encode(buf)
	f.Add(buf)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHeader(data)
		if err != nil {
			if len(data) >= headerSize {
				t.Fatalf("decode rejected %d bytes: %v", len(data), err)
			}
			return
		}
		// Re-encode and re-decode: must be a fixed point.
		out := make([]byte, headerSize)
		h.encode(out)
		h2, err := decodeHeader(out)
		if err != nil || h2 != h {
			t.Fatalf("decode/encode not a fixed point: %+v vs %+v (%v)", h, h2, err)
		}
	})
}

// FuzzStrideGeometry starts from the raw header fields a Put or Get
// carries (addr2, aux, totalLen): whenever decodeStride accepts them, every
// linear offset of the message maps, with the piece of its block that
// region.at would hand out, inside the extent the target bounds-checks.
func FuzzStrideGeometry(f *testing.F) {
	seed := func(s Stride, totalLen, lin uint32) {
		a2, aux := packStride(s)
		f.Add(a2, aux, totalLen, lin)
	}
	seed(Stride{Blocks: 4, BlockBytes: 8, StrideBytes: 16}, 32, 3)
	seed(Stride{Blocks: 1, BlockBytes: 1, StrideBytes: 1}, 1, 0)
	seed(Stride{}, 100, 99)
	seed(Stride{Blocks: 4, BlockBytes: 0, StrideBytes: 16}, 8, 5)
	seed(Stride{Blocks: 1 << 20, BlockBytes: 1, StrideBytes: 1 << 20}, 1<<20, 7)
	f.Fuzz(func(t *testing.T, addr2, aux uint64, totalLen, lin uint32) {
		s, err := decodeStride(addr2, aux, totalLen)
		if err != nil || lin >= totalLen {
			return
		}
		span := s.Span()
		if span < int(totalLen) || span > maxBlockBytes {
			t.Fatalf("stride %+v: extent %d for a %d-byte message", s, span, totalLen)
		}
		off := int(lin)
		loc := s.stridedLoc(off)
		n := min(int(totalLen)-off, s.BlockBytes-off%s.BlockBytes)
		if loc < 0 || n <= 0 || loc+n > span {
			t.Fatalf("stride %+v maps linear %d to [%d, %d) outside extent %d", s, lin, loc, loc+n, span)
		}
	})
}
