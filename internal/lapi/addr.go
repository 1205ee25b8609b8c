package lapi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Addr names a location in a task's registered memory. It plays the role of
// the raw virtual addresses LAPI operations take on the SP: the origin of a
// Put/Get/Rmw names target memory by Addr, typically learned through
// AddressInit (the analogue of LAPI_Address_init).
//
// An Addr encodes (generation, slot, offset): every Alloc returns a block in
// a slot of the task's arena, and Addr arithmetic (a + k) is valid only
// within a block, exactly like pointer arithmetic within a single
// allocation. Free hands the slot back for reuse and bumps its generation,
// so an Addr into a freed block keeps failing after the slot holds a new
// one.
type Addr uint64

// AddrNil is the zero Addr; no allocation ever has it.
const AddrNil Addr = 0

// Addr layout, low to high: 32 offset bits (a block holds under 4 GiB), 20
// bits of slot+1 (so no Addr is AddrNil), 11 generation bits. The top bit
// stays clear, so the difference of two Addrs always fits an int.
const (
	addrOffsetBits = 32
	addrSlotBits   = 20
	addrGenBits    = 11

	maxBlockBytes = 1<<addrOffsetBits - 1
	maxSlots      = 1<<addrSlotBits - 1
	genMask       = 1<<addrGenBits - 1
)

func makeAddr(slot int, gen uint32, offset int) Addr {
	return Addr(uint64(gen)<<(addrOffsetBits+addrSlotBits) | uint64(slot+1)<<addrOffsetBits | uint64(offset))
}

func (a Addr) slot() int {
	return int(uint64(a)>>addrOffsetBits&(1<<addrSlotBits-1)) - 1
}
func (a Addr) gen() uint32 { return uint32(uint64(a) >> (addrOffsetBits + addrSlotBits)) }
func (a Addr) offset() int { return int(uint64(a) & (1<<addrOffsetBits - 1)) }
func (a Addr) String() string {
	if a == AddrNil {
		return "nil"
	}
	return fmt.Sprintf("mem[%d.%d]+%d", a.slot(), a.gen(), a.offset())
}

// arena is a task's registered memory: a table of independently allocated
// blocks addressed by Addr. Freed slots are reused (last freed, first
// reused), and freed storage of up to 1<<maxPooledClass bytes is kept by
// power-of-two size class for the next block of that class, so a steady
// stream of transient blocks (GA's AM buffers, §5.3.1) neither grows the
// table nor allocates.
type arena struct {
	slots  []arenaSlot
	vacant []int32                      // free slot indices, reused last-in first-out
	spare  [maxPooledClass + 1][][]byte // freed storage by size class c, each of capacity 1<<c
}

// arenaSlot is one table entry: the live block (nil while free) and the
// generation every Addr into it carries.
type arenaSlot struct {
	buf []byte
	gen uint32
}

// maxPooledClass is the largest size class whose freed storage is kept:
// larger blocks are allocated to size and left to the collector.
const maxPooledClass = 20

// sizeClass returns the power-of-two class of an n-byte block, or -1 when
// blocks of n bytes are not pooled.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	if c := bits.Len(uint(n - 1)); c <= maxPooledClass {
		return c
	}
	return -1
}

// alloc reserves a block of n bytes and returns its base address. zeroed
// false leaves recycled storage as the last block left it, for callers
// that overwrite every byte before reading (AM landing buffers).
func (m *arena) alloc(n int, zeroed bool) Addr {
	if n < 0 || n > maxBlockBytes {
		panic(fmt.Sprintf("lapi: Alloc(%d)", n))
	}
	var buf []byte
	c := sizeClass(n)
	switch {
	case c < 0:
		buf = make([]byte, n)
	case len(m.spare[c]) > 0:
		k := len(m.spare[c]) - 1
		buf = m.spare[c][k][:n]
		m.spare[c][k] = nil
		m.spare[c] = m.spare[c][:k]
		if zeroed {
			clear(buf)
		}
	default:
		buf = make([]byte, n, 1<<c)
	}
	var s int
	if k := len(m.vacant); k > 0 {
		s = int(m.vacant[k-1])
		m.vacant = m.vacant[:k-1]
	} else {
		if len(m.slots) == maxSlots {
			panic(fmt.Sprintf("lapi: Alloc(%d): arena full, %d live blocks", n, maxSlots))
		}
		m.slots = append(m.slots, arenaSlot{})
		s = len(m.slots) - 1
	}
	m.slots[s].buf = buf
	return makeAddr(s, m.slots[s].gen, 0)
}

// live returns the slot a names if it still holds the block a was
// returned for.
func (m *arena) live(a Addr) (*arenaSlot, error) {
	s := a.slot() // -1 for AddrNil
	if s < 0 || s >= len(m.slots) {
		return nil, fmt.Errorf("no such block")
	}
	sl := &m.slots[s]
	if sl.buf == nil || sl.gen != a.gen() {
		return nil, fmt.Errorf("block freed")
	}
	return sl, nil
}

// free releases the block containing a (a must be its base address).
// Subsequent access through any Addr in the block fails, also once the
// slot holds a newer block. User libraries with high message rates (like
// GA's AM buffers, §5.3.1) must free their transient blocks or the arena
// grows without bound.
func (m *arena) free(a Addr) error {
	sl, err := m.live(a)
	if err != nil {
		return fmt.Errorf("lapi: Free(%v): no such block", a)
	}
	if a.offset() != 0 {
		return fmt.Errorf("lapi: Free(%v): not a block base", a)
	}
	buf := sl.buf
	sl.buf = nil
	sl.gen = (sl.gen + 1) & genMask
	m.vacant = append(m.vacant, int32(a.slot()))
	if c := sizeClass(cap(buf)); c >= 0 && cap(buf) == 1<<c {
		m.spare[c] = append(m.spare[c], buf[:0])
	}
	return nil
}

// bytes returns the n-byte slice at a, validating bounds.
func (m *arena) bytes(a Addr, n int) ([]byte, error) {
	if a == AddrNil {
		return nil, fmt.Errorf("lapi: nil address")
	}
	sl, err := m.live(a)
	if err != nil {
		return nil, fmt.Errorf("lapi: address %v: %v", a, err)
	}
	blk, off := sl.buf, a.offset()
	if n < 0 || off+n > len(blk) {
		return nil, fmt.Errorf("lapi: address %v + %d bytes exceeds block of %d bytes", a, n, len(blk))
	}
	return blk[off : off+n], nil
}

// mustBytes is bytes for internal paths where the address was already
// validated at operation start.
func (m *arena) mustBytes(a Addr, n int) []byte {
	s, err := m.bytes(a, n)
	if err != nil {
		panic(err)
	}
	return s
}

// Alloc reserves n zeroed bytes of task memory and returns its address.
// The block is addressable on this task and, after address exchange,
// targetable by remote Put/Get/Rmw.
func (t *Task) Alloc(n int) Addr { return t.mem.alloc(n, true) }

// AllocAM reserves an n-byte landing block for an active message's data:
// Alloc without the zeroing, for a header handler returning a buffer of
// exactly AmInfo.DataLen bytes, which delivery overwrites in full before
// the completion handler runs. Free it in the completion handler.
func (t *Task) AllocAM(n int) Addr { return t.mem.alloc(n, false) }

// Free releases a block previously returned by Alloc.
func (t *Task) Free(a Addr) error { return t.mem.free(a) }

// Bytes returns a mutable view of n bytes of task memory at a.
func (t *Task) Bytes(a Addr, n int) ([]byte, error) { return t.mem.bytes(a, n) }

// MustBytes is Bytes but panics on an invalid address; for use where the
// address is known good (e.g. memory this task just allocated).
func (t *Task) MustBytes(a Addr, n int) []byte { return t.mem.mustBytes(a, n) }

// ReadInt64 loads the 8-byte big-endian integer at a.
func (t *Task) ReadInt64(a Addr) (int64, error) {
	b, err := t.mem.bytes(a, 8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// WriteInt64 stores v as 8 big-endian bytes at a.
func (t *Task) WriteInt64(a Addr, v int64) error {
	b, err := t.mem.bytes(a, 8)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint64(b, uint64(v))
	return nil
}

// ReadFloat64 loads the float64 stored at a.
func (t *Task) ReadFloat64(a Addr) (float64, error) {
	v, err := t.ReadInt64(a)
	return math.Float64frombits(uint64(v)), err
}

// WriteFloat64 stores v at a.
func (t *Task) WriteFloat64(a Addr, v float64) error {
	return t.WriteInt64(a, int64(math.Float64bits(v)))
}
