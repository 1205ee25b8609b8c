package ga

import (
	"encoding/binary"
	"math"
)

// Wire and arena representation of array elements: big-endian float64, the
// same encoding lapi.WriteFloat64 uses, so direct Put/Get and AM protocols
// interoperate.

func putF64(b []byte, v float64) {
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// packPatch encodes rows x cols elements from buf (leading dimension ld,
// starting at off) into dst, row-major and dense. dst must hold
// rows*cols*8 bytes.
func packPatch(dst []byte, buf []float64, ld, off, rows, cols int) {
	k := 0
	for r := 0; r < rows; r++ {
		base := off + r*ld
		for c := 0; c < cols; c++ {
			putF64(dst[k:], buf[base+c])
			k += 8
		}
	}
}

// unpackPatch decodes rows x cols dense elements from src into buf
// (leading dimension ld, starting at off).
func unpackPatch(buf []float64, ld, off int, src []byte, rows, cols int) {
	k := 0
	for r := 0; r < rows; r++ {
		base := off + r*ld
		for c := 0; c < cols; c++ {
			buf[base+c] = getF64(src[k:])
			k += 8
		}
	}
}

// packRow encodes one dense row of cols elements.
func packRow(dst []byte, buf []float64, off, cols int) {
	for c := 0; c < cols; c++ {
		putF64(dst[c*8:], buf[off+c])
	}
}

// unpackRow decodes one dense row.
func unpackRow(buf []float64, off int, src []byte, cols int) {
	for c := 0; c < cols; c++ {
		buf[off+c] = getF64(src[c*8:])
	}
}

// blockIndex returns the byte offset of global element (i, j) within the
// owner's local block storage.
func blockIndex(local Patch, i, j int) int {
	return ((i-local.RLo)*local.Cols() + (j - local.CLo)) * 8
}

// storeInto copies a dense row-major rows x cols source (src bytes) into a
// local block byte slice at subpatch sub.
func storeInto(block []byte, local, sub Patch, src []byte) {
	for r := 0; r < sub.Rows(); r++ {
		dst := blockIndex(local, sub.RLo+r, sub.CLo)
		copy(block[dst:dst+sub.Cols()*8], src[r*sub.Cols()*8:])
	}
}

// loadFrom copies subpatch sub of a local block into a dense row-major
// destination.
func loadFrom(dst []byte, block []byte, local, sub Patch) {
	for r := 0; r < sub.Rows(); r++ {
		src := blockIndex(local, sub.RLo+r, sub.CLo)
		copy(dst[r*sub.Cols()*8:], block[src:src+sub.Cols()*8])
	}
}

// accumulateInto applies block[e] += alpha*src[e] elementwise over sub.
func accumulateInto(block []byte, local, sub Patch, src []byte, alpha float64) {
	n := sub.Cols() * 8
	for r := 0; r < sub.Rows(); r++ {
		add := src[r*n : (r+1)*n]
		dst := block[blockIndex(local, sub.RLo+r, sub.CLo):][:len(add)]
		for i := 0; i+8 <= len(add); i += 8 {
			putF64(dst[i:], getF64(dst[i:])+alpha*getF64(add[i:]))
		}
	}
}
