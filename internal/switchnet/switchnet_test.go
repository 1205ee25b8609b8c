package switchnet

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"golapi/internal/exec"
	"golapi/internal/sim"
	"golapi/internal/stats"
)

// harness builds a switch plus per-rank receive logs.
type harness struct {
	eng  *sim.Engine
	sw   *Switch
	recv [][]string // per rank: "src:payload"
}

func newHarness(t *testing.T, n int, cfg Config) *harness {
	t.Helper()
	eng := sim.NewEngine()
	sw, err := New(eng, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, sw: sw, recv: make([][]string, n)}
	for i := 0; i < n; i++ {
		i := i
		sw.Endpoint(i).SetDeliver(func(src int, data []byte) {
			h.recv[i] = append(h.recv[i], fmt.Sprintf("%d:%s", src, data))
		})
	}
	return h
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	bad := []Config{
		{PacketBytes: 0, Bandwidth: 1e6, RTO: time.Millisecond},
		{PacketBytes: 1024, Bandwidth: 0, RTO: time.Millisecond},
		{PacketBytes: 1024, Bandwidth: 1e6, RTO: 0},
	}
	for i, cfg := range bad {
		if _, err := New(eng, 2, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(eng, 2, DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestBasicDelivery(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		h.sw.Endpoint(0).Send(ctx, 1, []byte("hello"), nil)
	})
	h.run(t)
	if len(h.recv[1]) != 1 || h.recv[1][0] != "0:hello" {
		t.Fatalf("recv = %v", h.recv[1])
	}
}

func TestDeliveryLatency(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 2, cfg)
	var arrived sim.Time
	h.sw.Endpoint(1).SetDeliver(func(src int, data []byte) {
		arrived = h.eng.Now()
	})
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		h.sw.Endpoint(0).Send(ctx, 1, make([]byte, 1024), nil)
	})
	h.run(t)
	want := sim.Time(cfg.wireTime(1024) + cfg.WireLatency)
	if arrived != want {
		t.Fatalf("arrival at %v, want %v", arrived, want)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two packets back to back: second arrives one wire time after first.
	cfg := DefaultConfig()
	h := newHarness(t, 2, cfg)
	var arrivals []sim.Time
	h.sw.Endpoint(1).SetDeliver(func(src int, data []byte) {
		arrivals = append(arrivals, h.eng.Now())
	})
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		h.sw.Endpoint(0).Send(ctx, 1, make([]byte, 1024), nil)
		h.sw.Endpoint(0).Send(ctx, 1, make([]byte, 1024), nil)
	})
	h.run(t)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	gap := time.Duration(arrivals[1] - arrivals[0])
	if gap != cfg.wireTime(1024) {
		t.Fatalf("inter-arrival gap %v, want one wire time %v", gap, cfg.wireTime(1024))
	}
}

func TestSentCallbackAtDrain(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, 2, cfg)
	var sentAt sim.Time
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		h.sw.Endpoint(0).Send(ctx, 1, make([]byte, 1024), func() {
			sentAt = h.eng.Now()
		})
	})
	h.run(t)
	if sentAt != sim.Time(cfg.wireTime(1024)) {
		t.Fatalf("sent callback at %v, want %v", sentAt, cfg.wireTime(1024))
	}
}

func TestLoopback(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		h.sw.Endpoint(0).Send(ctx, 0, []byte("me"), nil)
	})
	h.run(t)
	if len(h.recv[0]) != 1 || h.recv[0][0] != "0:me" {
		t.Fatalf("loopback recv = %v", h.recv[0])
	}
}

func TestOversizePacketPanics(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.eng.Go("sender", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversize packet did not panic")
			}
		}()
		ctx := exec.SimContext(p)
		h.sw.Endpoint(0).Send(ctx, 1, make([]byte, 2048), nil)
	})
	h.run(t)
}

func TestReordering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReorderEvery = 3
	h := newHarness(t, 2, cfg)
	var order []string
	h.sw.Endpoint(1).SetDeliver(func(src int, data []byte) {
		order = append(order, string(data))
	})
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		for i := 0; i < 9; i++ {
			h.sw.Endpoint(0).Send(ctx, 1, []byte(fmt.Sprintf("p%d", i)), nil)
		}
	})
	h.run(t)
	if len(order) != 9 {
		t.Fatalf("received %d packets, want 9: %v", len(order), order)
	}
	inOrder := true
	for i := range order {
		if order[i] != fmt.Sprintf("p%d", i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("ReorderEvery=3 produced in-order delivery: %v", order)
	}
}

func TestDropsAreRetransmitted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropEvery = 2 // brutal: half of first transmissions lost
	h := newHarness(t, 2, cfg)
	seen := map[string]int{}
	h.sw.Endpoint(1).SetDeliver(func(src int, data []byte) {
		seen[string(data)]++
	})
	const n = 20
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		for i := 0; i < n; i++ {
			h.sw.Endpoint(0).Send(ctx, 1, []byte(fmt.Sprintf("m%d", i)), nil)
		}
	})
	h.run(t)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("m%d", i)
		if seen[k] != 1 {
			t.Fatalf("message %s delivered %d times, want exactly 1", k, seen[k])
		}
	}
	if h.sw.Counters.Get(stats.Retransmits) == 0 {
		t.Fatal("expected retransmissions with DropEvery=2")
	}
	if h.sw.Endpoint(0).PendingAcks() != 0 {
		t.Fatalf("sender still has %d unacked packets", h.sw.Endpoint(0).PendingAcks())
	}
}

// TestLossyReorderedExactlyOnce is the transport's core invariant: under any
// combination of drop and reorder settings, every packet is delivered
// exactly once.
func TestLossyReorderedExactlyOnce(t *testing.T) {
	prop := func(dropEvery, reorderEvery uint8, count uint8) bool {
		n := int(count%64) + 1
		cfg := DefaultConfig()
		cfg.DropEvery = int(dropEvery % 5)       // 0..4
		cfg.ReorderEvery = int(reorderEvery % 5) // 0..4
		if cfg.DropEvery == 1 {
			cfg.DropEvery = 2 // DropEvery=1 would drop every first transmission; still works but slow
		}
		eng := sim.NewEngine()
		sw, err := New(eng, 2, cfg)
		if err != nil {
			return false
		}
		seen := map[string]int{}
		sw.Endpoint(1).SetDeliver(func(src int, data []byte) { seen[string(data)]++ })
		sw.Endpoint(0).SetDeliver(func(src int, data []byte) {})
		eng.Go("sender", func(p *sim.Proc) {
			ctx := exec.SimContext(p)
			for i := 0; i < n; i++ {
				sw.Endpoint(0).Send(ctx, 1, []byte(fmt.Sprintf("x%d", i)), nil)
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthMatchesModel(t *testing.T) {
	// Stream 1000 full packets; throughput must equal PacketBytes/wireTime.
	cfg := DefaultConfig()
	h := newHarness(t, 2, cfg)
	var last sim.Time
	n := 0
	h.sw.Endpoint(1).SetDeliver(func(src int, data []byte) {
		last = h.eng.Now()
		n++
	})
	const packets = 1000
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		for i := 0; i < packets; i++ {
			h.sw.Endpoint(0).Send(ctx, 1, make([]byte, cfg.PacketBytes), nil)
		}
	})
	h.run(t)
	if n != packets {
		t.Fatalf("delivered %d packets", n)
	}
	bytes := float64(packets * cfg.PacketBytes)
	rate := bytes / (time.Duration(last).Seconds())
	if rate < cfg.Bandwidth*0.98 || rate > cfg.Bandwidth*1.02 {
		t.Fatalf("streamed rate %.1f MB/s, want ≈%.1f MB/s", rate/1e6, cfg.Bandwidth/1e6)
	}
}

func TestCountersAccounting(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig())
	h.eng.Go("sender", func(p *sim.Proc) {
		ctx := exec.SimContext(p)
		h.sw.Endpoint(0).Send(ctx, 1, make([]byte, 100), nil)
		h.sw.Endpoint(0).Send(ctx, 2, make([]byte, 200), nil)
	})
	h.run(t)
	if got := h.sw.Counters.Get(stats.PacketsSent); got != 2 {
		t.Errorf("packets_sent = %d", got)
	}
	if got := h.sw.Counters.Get(stats.BytesSent); got != 300 {
		t.Errorf("bytes_sent = %d", got)
	}
	if got := h.sw.Counters.Get(stats.PacketsRecv); got != 2 {
		t.Errorf("packets_recv = %d", got)
	}
	if got := h.sw.Counters.Get(stats.AcksSent); got != 2 {
		t.Errorf("acks_sent = %d", got)
	}
}

func TestManyToOneContention(t *testing.T) {
	// All ranks blast rank 0; everything must arrive exactly once.
	const n = 8
	h := newHarness(t, n, DefaultConfig())
	count := 0
	h.sw.Endpoint(0).SetDeliver(func(src int, data []byte) { count++ })
	for r := 1; r < n; r++ {
		r := r
		h.eng.Go("sender", func(p *sim.Proc) {
			ctx := exec.SimContext(p)
			for i := 0; i < 50; i++ {
				h.sw.Endpoint(r).Send(ctx, 0, make([]byte, 512), nil)
			}
		})
	}
	h.run(t)
	if count != (n-1)*50 {
		t.Fatalf("rank 0 received %d packets, want %d", count, (n-1)*50)
	}
}

func TestSpineContentionCapsAggregateBandwidth(t *testing.T) {
	// With a single interior spine link, four simultaneous streams share
	// one link's bandwidth; with the ideal crossbar they each get a full
	// link. Compare completion times.
	finish := func(spine int) sim.Time {
		cfg := DefaultConfig()
		cfg.SpineLinks = spine
		eng := sim.NewEngine()
		sw, err := New(eng, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const packets = 200
		left := 4 * packets
		var last sim.Time
		for r := 4; r < 8; r++ {
			sw.Endpoint(r).SetDeliver(func(src int, data []byte) {
				left--
				if left == 0 {
					last = eng.Now()
				}
			})
		}
		for r := 0; r < 4; r++ {
			r := r
			eng.Go("stream", func(p *sim.Proc) {
				ctx := exec.SimContext(p)
				for i := 0; i < packets; i++ {
					sw.Endpoint(r).Send(ctx, r+4, make([]byte, cfg.PacketBytes), nil)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if left != 0 {
			t.Fatal("packets lost")
		}
		return last
	}
	ideal := finish(0)
	congested := finish(1)
	if congested < 3*ideal {
		t.Fatalf("single spine link (%v) should be ~4x slower than ideal crossbar (%v)", congested, ideal)
	}
	// With many spine links the four flows mostly avoid each other
	// (hashed routing can still collide pairs, as on the real switch).
	wide := finish(64)
	if wide > congested/2 {
		t.Fatalf("64 spine links (%v) should be far faster than one (%v)", wide, congested)
	}
	if wide < ideal {
		t.Fatalf("spine model made things faster than ideal: %v < %v", wide, ideal)
	}
}

// DueBy through a real switch: after a 256-packet burst and a 2 MiB
// SendDirect, and at points while they drain, a count with a deadline past
// the last event finds every queued arrival, ack and sent callback, plus
// each adapter's one armed retransmission timer — the events the engine
// would hold if each were its own heap entry.
func TestDueByCountsQueuedEvents(t *testing.T) {
	eng := sim.NewEngine()
	sw, err := New(eng, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := sw.Endpoint(0), sw.Endpoint(1)
	dst.SetDeliver(func(_ int, data []byte) { dst.Release(data) })
	dst.SetDirectDone(func(int, uint64) {})
	drains := 0
	const burst = 256
	for i := 0; i < burst; i++ {
		drains++
		src.Send(nil, 1, src.Alloc(1024), func() { drains-- })
	}
	payload := make([]byte, 2<<20)
	dst.RecvInto(0, 7, make([]byte, len(payload)))
	src.SendDirect(nil, 1, 7, payload, nil)
	chunk := sw.cfg.PacketBytes - directHdrBytes
	sent := int64(burst + (len(payload)+chunk-1)/chunk)

	const never = sim.Time(1 << 62)
	for _, until := range []sim.Time{0, 100e3, 1e6, 5e6, 15e6, 20e6, never} {
		eng.RunUntil(until)
		c := &sw.Counters
		arrivals := c.Get(stats.PacketsSent) - c.Get(stats.PacketsRecv)
		acks := c.Get(stats.AcksSent) - (sent - int64(src.PendingAcks()))
		want := int(arrivals+acks) + drains
		for _, a := range []*Adapter{src, dst} {
			if len(a.rto) > a.rtoHead {
				want++
			}
		}
		if got := eng.DueBy(never, 1<<20); got != want {
			t.Fatalf("at %v: DueBy = %d, want %d (%d arrivals, %d acks, %d sent callbacks queued)",
				eng.Now(), got, want, arrivals, acks, drains)
		}
		if until == 0 && want < int(sent) {
			t.Fatalf("only %d events queued for %d packets", want, sent)
		}
	}
	if c := sw.Counters.Get(stats.Retransmits); c != 0 || src.PendingAcks() != 0 {
		t.Fatalf("%d retransmits, %d packets unacked", c, src.PendingAcks())
	}
}
