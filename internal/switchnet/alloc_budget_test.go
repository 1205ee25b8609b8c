//go:build !race

// Race-detector builds are excluded: instrumentation changes allocation
// counts.

package switchnet

import (
	"testing"

	"golapi/internal/sim"
)

// packetAllocBudget bounds steady-state allocations per 1 KB packet through
// the switch — Alloc, Send, arrival, ack, retransmission deadline, deliver,
// Release. The buffer comes back from the free list and every event is a
// handler over the packet's record, so the record itself is the one
// allocation left (it must outlive any retransmitted copy still in flight,
// which is what its delivered flag is checked on).
const packetAllocBudget = 1.0

func TestPacketAllocBudget(t *testing.T) {
	eng := sim.NewEngine()
	sw, err := New(eng, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := sw.Endpoint(0), sw.Endpoint(1)
	delivered := 0
	dst.SetDeliver(func(_ int, data []byte) {
		delivered++
		dst.Release(data)
	})
	src.SetDeliver(func(int, []byte) {})
	const batch = 64
	round := func() {
		for i := 0; i < batch; i++ {
			src.Send(nil, 1, src.Alloc(1024), nil)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // fill the free list and grow the queues once
	avg := testing.AllocsPerRun(50, round) / batch
	if delivered != 52*batch {
		t.Fatalf("%d packets delivered, want %d", delivered, 52*batch)
	}
	if avg > packetAllocBudget {
		t.Errorf("%.2f allocs per 1 KB packet, budget %.0f", avg, packetAllocBudget)
	}
	t.Logf("%.2f allocs per 1 KB packet (budget %.0f)", avg, packetAllocBudget)
}
