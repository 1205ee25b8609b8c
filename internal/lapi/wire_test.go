package lapi

import (
	"testing"
	"testing/quick"
)

// TestPropHeaderRoundTrip: every header encodes into headerSize bytes and
// decodes back identically.
func TestPropHeaderRoundTrip(t *testing.T) {
	prop := func(typ byte, handler uint16, msgID, offset, totalLen, cntrA uint32, addr, addr2, aux uint64) bool {
		h := header{
			typ: typ, handler: handler, msgID: msgID, offset: offset,
			totalLen: totalLen, addr: addr, addr2: addr2, cntrA: cntrA, aux: aux,
		}
		buf := make([]byte, headerSize)
		h.encode(buf)
		got, err := decodeHeader(buf)
		return err == nil && got == h
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortPacket(t *testing.T) {
	if _, err := decodeHeader(make([]byte, headerSize-1)); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestHeaderSizeWithinBudget(t *testing.T) {
	// The encoded header must fit the modelled 48-byte LAPI header.
	if headerSize > DefaultConfig().HeaderBytes {
		t.Fatalf("encoded header %d exceeds modelled %d bytes", headerSize, DefaultConfig().HeaderBytes)
	}
}

// TestPropStrideGeometry: the stride codec round-trips and the linear->
// strided offset map is a bijection onto the block bytes.
func TestPropStrideGeometry(t *testing.T) {
	prop := func(blocks, blockB, extra uint8) bool {
		s := Stride{
			Blocks:      int(blocks%20) + 1,
			BlockBytes:  int(blockB%50) + 1,
			StrideBytes: int(blockB%50) + 1 + int(extra),
		}
		a2, aux := packStride(s)
		if unpackStride(a2, aux) != s {
			return false
		}
		// Every linear offset maps into its block's span, strictly
		// monotonically.
		prev := -1
		for lin := 0; lin < s.Total(); lin++ {
			loc := s.stridedLoc(lin)
			if loc <= prev || loc >= s.Span() {
				return false
			}
			prev = loc
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropArena: allocations are disjoint, bounds are enforced, frees
// invalidate exactly their block.
func TestPropArena(t *testing.T) {
	prop := func(sizes []uint16) bool {
		var m arena
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		addrs := make([]Addr, len(sizes))
		for i, sz := range sizes {
			addrs[i] = m.alloc(int(sz%1024), true)
		}
		// Write a distinct pattern to each block, then verify none
		// clobbered another.
		for i, sz := range sizes {
			n := int(sz % 1024)
			b, err := m.bytes(addrs[i], n)
			if err != nil {
				return false
			}
			for k := range b {
				b[k] = byte(i)
			}
		}
		for i, sz := range sizes {
			n := int(sz % 1024)
			b, _ := m.bytes(addrs[i], n)
			for k := range b {
				if b[k] != byte(i) {
					return false
				}
			}
			// One past the end must fail.
			if _, err := m.bytes(addrs[i], n+1); err == nil {
				return false
			}
		}
		// Free odd blocks: they become unreachable, evens stay valid.
		for i := range addrs {
			if i%2 == 1 {
				if err := m.free(addrs[i]); err != nil {
					return false
				}
			}
		}
		for i, sz := range sizes {
			n := int(sz % 1024)
			_, err := m.bytes(addrs[i], n)
			if i%2 == 1 && n > 0 && err == nil {
				return false
			}
			if i%2 == 0 && err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeErrors(t *testing.T) {
	var m arena
	a := m.alloc(16, true)
	if err := m.free(a + 4); err == nil {
		t.Error("freeing interior address succeeded")
	}
	if err := m.free(a); err != nil {
		t.Errorf("free failed: %v", err)
	}
	if err := m.free(a); err == nil {
		t.Error("double free succeeded")
	}
	if err := m.free(AddrNil); err == nil {
		t.Error("freeing nil succeeded")
	}
}
