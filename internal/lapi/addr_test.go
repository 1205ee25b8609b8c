package lapi

import "testing"

// TestArenaReuseNeverWraps: 2^25 Alloc/Free pairs — twice the 2^24 blocks
// after which a never-reused block table used to wrap its Addr field to
// AddrNil and alias earlier blocks. Every Addr is distinct from the one
// before and valid while live, the one freed just before fails (checked
// on every 1024th pair: a failing lookup formats its error), and the slot
// table stays at one slot.
func TestArenaReuseNeverWraps(t *testing.T) {
	if testing.Short() {
		t.Skip("2^25 alloc/free pairs")
	}
	var m arena
	var prev Addr
	for i := 0; i < 1<<25; i++ {
		a := m.alloc(8, false)
		if a == AddrNil || a == prev {
			t.Fatalf("pair %d: Alloc returned %v (previous %v)", i, a, prev)
		}
		b, err := m.bytes(a, 8)
		if err != nil {
			t.Fatalf("pair %d: fresh block %v: %v", i, a, err)
		}
		b[0] = byte(i)
		if prev != AddrNil && i%1024 == 0 {
			if _, err := m.bytes(prev, 8); err == nil {
				t.Fatalf("pair %d: stale %v still readable after its slot was reused by %v", i, prev, a)
			}
			if err := m.free(prev); err == nil {
				t.Fatalf("pair %d: stale %v freed the live block %v", i, prev, a)
			}
		}
		if err := m.free(a); err != nil {
			t.Fatalf("pair %d: Free(%v): %v", i, a, err)
		}
		prev = a
	}
	if len(m.slots) != 1 {
		t.Errorf("slot table holds %d slots after 2^25 pairs, want 1", len(m.slots))
	}
}

// TestArenaGenerationGuardsReusedSlot: after a slot is reused, an Addr into
// the old block fails bytes and Free, and cannot free the new block.
func TestArenaGenerationGuardsReusedSlot(t *testing.T) {
	var m arena
	old := m.alloc(64, true)
	if err := m.free(old); err != nil {
		t.Fatal(err)
	}
	cur := m.alloc(64, true)
	if cur.slot() != old.slot() {
		t.Fatalf("slot not reused: old %v, new %v", old, cur)
	}
	if cur == old {
		t.Fatalf("reused slot returned the stale address %v", old)
	}
	if _, err := m.bytes(old+8, 8); err == nil {
		t.Error("interior Addr of a freed block readable after slot reuse")
	}
	if err := m.free(old); err == nil {
		t.Error("stale Addr freed the slot's new block")
	}
	if _, err := m.bytes(cur, 64); err != nil {
		t.Errorf("new block: %v", err)
	}
}

// TestArenaZeroing: user Alloc is zeroed even on recycled storage; the AM
// alloc recycles storage as is.
func TestArenaZeroing(t *testing.T) {
	var m arena
	a := m.alloc(100, true)
	b, _ := m.bytes(a, 100)
	for i := range b {
		b[i] = 0xAA
	}
	m.free(a)
	a = m.alloc(90, false) // same size class (128)
	b, _ = m.bytes(a, 90)
	if b[0] != 0xAA {
		t.Errorf("AM alloc did not recycle the freed storage (byte 0 = %#x)", b[0])
	}
	m.free(a)
	a = m.alloc(120, true)
	b, _ = m.bytes(a, 120)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled user Alloc byte %d = %#x, want 0", i, v)
		}
	}
	if _, err := m.bytes(a, 121); err == nil {
		t.Error("recycled block readable past its requested length")
	}
}

// TestArenaFullPanics: Alloc panics once every slot holds a live block
// instead of wrapping into AddrNil or an aliased slot.
func TestArenaFullPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the 2^20-slot table")
	}
	var m arena
	for i := 0; i < maxSlots; i++ {
		m.alloc(0, true)
	}
	defer func() {
		if recover() == nil {
			t.Error("Alloc into a full slot table did not panic")
		}
	}()
	m.alloc(0, true)
}
