package switchnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"golapi/internal/parallel"
	"golapi/internal/sim"
	"golapi/internal/stats"
)

// TestShardedUngated pins the post-gate contract: configs with interior
// contention (SpineLinks, FatTreeLevels) and zero-latency configs are all
// shardable now; only configs that admit no positive lookahead window at
// all are rejected, with an error that says why instead of silently
// running serial.
func TestShardedUngated(t *testing.T) {
	mk := func() []*sim.Engine { return []*sim.Engine{sim.NewEngine(), sim.NewEngine()} }

	cfg := DefaultConfig()
	cfg.WireLatency = 0
	if _, err := NewSharded(mk(), 4, cfg); err != nil {
		t.Errorf("sharded switch with zero WireLatency rejected: %v", err)
	}
	cfg = DefaultConfig()
	cfg.SpineLinks = 4
	if _, err := NewSharded(mk(), 4, cfg); err != nil {
		t.Errorf("sharded switch with SpineLinks rejected: %v", err)
	}
	cfg = DefaultConfig()
	cfg.FatTreeLevels = []int{2, 1}
	cfg.FatTreeArity = 2
	if _, err := NewSharded(mk(), 4, cfg); err != nil {
		t.Errorf("sharded switch with fat tree rejected: %v", err)
	}
	if _, err := NewSharded(mk(), 1, DefaultConfig()); err == nil {
		t.Error("more shards than endpoints accepted")
	}

	// Unshardable: zero latency AND a minimum service time that rounds to
	// zero virtual nanoseconds. The error must be descriptive.
	cfg = DefaultConfig()
	cfg.WireLatency = 0
	cfg.Bandwidth = 2e9
	_, err := NewSharded(mk(), 4, cfg)
	if err == nil {
		t.Fatal("unshardable zero-window config accepted")
	}
	for _, want := range []string{"unshardable", "micro-epoch", "rounds to 0 ns"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("zero-window error %q does not mention %q", err, want)
		}
	}

	// Unshardable: zero latency AND zero-byte acks (an ack could cross
	// shards in zero virtual time).
	cfg = DefaultConfig()
	cfg.WireLatency = 0
	cfg.AckBytes = 0
	_, err = NewSharded(mk(), 4, cfg)
	if err == nil {
		t.Fatal("unshardable zero-ack config accepted")
	}
	for _, want := range []string{"unshardable", "AckBytes", "micro-epochs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("zero-ack error %q does not mention %q", err, want)
		}
	}

	// Both unshardable configs remain fine on a single engine (no
	// coordinator, no window needed).
	if _, err := New(sim.NewEngine(), 4, cfg); err != nil {
		t.Errorf("single-engine switch with zero-window config rejected: %v", err)
	}
}

func TestShardLookahead(t *testing.T) {
	cfg := DefaultConfig() // WireLatency 8µs
	la, err := cfg.shardLookahead()
	if err != nil || la != sim.Time(8*time.Microsecond) {
		t.Errorf("lookahead = %v, %v; want the wire latency", la, err)
	}
	cfg.WireLatency = 0 // 102 MB/s: one byte ≈ 9.8 ns on the wire
	la, err = cfg.shardLookahead()
	if err != nil || la != sim.Time(cfg.wireTime(1)) {
		t.Errorf("micro-epoch lookahead = %v, %v; want wireTime(1)=%v", la, err, cfg.wireTime(1))
	}
	if la < 1 {
		t.Errorf("micro-epoch lookahead %v is not positive", la)
	}
}

func TestShardOf(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
	sw, err := NewSharded(engines, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for r := 0; r < 8; r++ {
		s := sw.ShardOf(r)
		if s < prev || s > 2 {
			t.Errorf("rank %d on shard %d (prev %d): blocks must be contiguous", r, s, prev)
		}
		prev = s
	}
	if sw.ShardOf(0) != 0 || sw.ShardOf(7) != 2 {
		t.Errorf("endpoint shards: %d, %d", sw.ShardOf(0), sw.ShardOf(7))
	}
}

type delivery struct {
	at   sim.Time
	from string
}

// runMesh drives raw adapters (no protocol layers) through
// parallel.RunEpochs with all-to-all traffic — every rank sends msgs
// packets to every other rank, staggered by sender — and returns per-rank
// delivery logs (virtual time + payload identity).
func runMesh(t *testing.T, cfg Config, shards, n, msgs int) [][]delivery {
	t.Helper()
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	sw, err := NewSharded(engines, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]delivery, n)
	for i := 0; i < n; i++ {
		i := i
		ad := sw.Endpoint(i)
		ad.SetDeliver(func(src int, data []byte) {
			logs[i] = append(logs[i], delivery{ad.eng.Now(), fmt.Sprintf("%d:%s", src, data)})
		})
	}
	for i := 0; i < n; i++ {
		i := i
		ad := sw.Endpoint(i)
		ad.eng.Schedule(time.Duration(i)*time.Microsecond, func() {
			for m := 0; m < msgs; m++ {
				for d := 0; d < n; d++ {
					if d != i {
						ad.Send(nil, d, []byte(fmt.Sprintf("m%d", m)), nil)
					}
				}
			}
		})
	}
	err = parallel.RunEpochs(parallel.New(shards), engines, sw.Lookahead(), parallel.Hooks{
		TakeOutbox: sw.TakeOutbox,
		Barrier:    sw.ResolveSpine,
		Stats:      &sw.Counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

// TestShardedDeliveryMatchesSerial checks, for every newly ungated regime
// (contended spine, zero wire latency, fat tree, and spine+zero-latency
// combined), that every delivery lands at the same virtual time, in the
// same per-rank order, as the single-engine switch — including under
// deterministic reordering and drops, which exercise retransmission
// timers and duplicate acks across shard boundaries and through the
// barrier-arbitrated interior.
func TestShardedDeliveryMatchesSerial(t *testing.T) {
	base := DefaultConfig()
	base.ReorderEvery = 3
	base.DropEvery = 5

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"crossbar", func(c *Config) {}},
		{"spine", func(c *Config) { c.SpineLinks = 2 }},
		{"zerolat", func(c *Config) { c.WireLatency = 0 }},
		{"fattree", func(c *Config) { c.FatTreeLevels = []int{2, 1}; c.FatTreeArity = 2 }},
		{"spine-zerolat", func(c *Config) { c.SpineLinks = 2; c.WireLatency = 0 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			const n, msgs = 8, 6
			want := runMesh(t, cfg, 1, n, msgs)
			for _, shards := range []int{2, 4, 8} {
				got := runMesh(t, cfg, shards, n, msgs)
				for r := range want {
					if len(got[r]) != len(want[r]) {
						t.Fatalf("shards=%d rank %d: %d deliveries, serial %d", shards, r, len(got[r]), len(want[r]))
					}
					for k := range want[r] {
						if got[r][k] != want[r][k] {
							t.Fatalf("shards=%d rank %d delivery %d: %+v, serial %+v", shards, r, k, got[r][k], want[r][k])
						}
					}
				}
			}
		})
	}
}

// TestShardedFatTreeHammer is the -race workout for the barrier-resolved
// interior: a fat-tree mesh with drop injection (retransmission timers
// firing near shard boundaries) driven by a real worker pool. Run with
// -race via `make check`; correctness here is just completion plus
// conservation (every rank eventually receives every payload exactly
// once).
func TestShardedFatTreeHammer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FatTreeLevels = []int{4, 2}
	cfg.FatTreeArity = 2
	cfg.DropEvery = 4
	cfg.ReorderEvery = 7
	const n, msgs, shards = 8, 12, 4
	logs := runMesh(t, cfg, shards, n, msgs)
	for r := 0; r < n; r++ {
		if len(logs[r]) != (n-1)*msgs {
			t.Errorf("rank %d: %d deliveries, want %d", r, len(logs[r]), (n-1)*msgs)
		}
		seen := make(map[string]bool)
		for _, d := range logs[r] {
			if seen[d.from] {
				t.Errorf("rank %d: duplicate delivery %q", r, d.from)
			}
			seen[d.from] = true
		}
	}
}

// TestFatTreeSerialContention pins the fat-tree interior model on a
// single engine: two pairs in different leaf groups share the one root
// link, so their packets serialize; two pairs inside one leaf group never
// touch the interior and keep crossbar timing.
func TestFatTreeSerialContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FatTreeLevels = []int{1} // one root pool with a single link
	cfg.FatTreeArity = 2

	arrivals := func(pairs [][2]int) map[int]sim.Time {
		eng := sim.NewEngine()
		sw, err := New(eng, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		at := make(map[int]sim.Time)
		for _, pr := range pairs {
			dst := pr[1]
			sw.Endpoint(dst).SetDeliver(func(src int, data []byte) { at[dst] = eng.Now() })
			sw.Endpoint(pr[0]).Send(nil, dst, make([]byte, cfg.PacketBytes), nil)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}

	// Intra-leaf: 0→1 and 2→3 (leaf groups {0,1} and {2,3}) bypass the
	// interior entirely and land at the same instant.
	intra := arrivals([][2]int{{0, 1}, {2, 3}})
	if intra[1] != intra[3] {
		t.Errorf("intra-leaf pairs contend: %v vs %v", intra[1], intra[3])
	}
	// Cross-leaf: 0→2 and 4→6 both need the single root link — and each
	// crosses it twice (up and down land in the same one-link pool), so
	// the loser is delayed by two full packet wire times.
	cross := arrivals([][2]int{{0, 2}, {4, 6}})
	if cross[2] == cross[6] {
		t.Error("cross-leaf pairs did not contend on the root link")
	}
	gap := cross[6] - cross[2]
	if gap < 0 {
		gap = -gap
	}
	if gap != 2*sim.Time(cfg.wireTime(cfg.PacketBytes)) {
		t.Errorf("contention gap %v, want two packet wire times %v", gap, 2*cfg.wireTime(cfg.PacketBytes))
	}
	// A same-leaf pair in the same run is unaffected by the root-link
	// contention happening beside it: its arrival matches the pure
	// intra-leaf run.
	mixed := arrivals([][2]int{{0, 2}, {4, 6}, {1, 0}})
	if mixed[0] != intra[1] {
		t.Errorf("intra-leaf arrival %v shifted by unrelated root contention (want %v)", mixed[0], intra[1])
	}
}

// TestShardedPoolRecyclesAcrossShards streams pooled 1 KB packets between
// the two halves of a sharded switch, so one shard's adapters Release
// buffers the other's Alloc, under drops and reordering (retransmitted
// copies of recycled buffers). Every delivery must carry exactly the bytes
// its sender wrote, and every packet must arrive once; under -race the
// epochs busy enough to fan out exercise the shared free list from two
// workers at once.
func TestShardedPoolRecyclesAcrossShards(t *testing.T) {
	const n, msgs = 64, 100
	cfg := DefaultConfig()
	cfg.DropEvery, cfg.ReorderEvery = 7, 5
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	sw, err := NewSharded(engines, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(b []byte, src, m int) {
		for i := range b {
			b[i] = byte(src*31 + m*7 + i)
		}
	}
	got := make([]int, n)
	for i := 0; i < n; i++ {
		ad := sw.Endpoint(i)
		want := make([]byte, 1024)
		ad.SetDeliver(func(src int, data []byte) {
			m := int(data[0]) | int(data[1])<<8
			fill(want, src, m)
			if string(data[2:]) != string(want[2:]) {
				t.Errorf("rank %d: packet %d from %d corrupted", ad.rank, m, src)
			}
			got[ad.rank]++
			ad.Release(data)
		})
	}
	for i := 0; i < n; i++ {
		ad := sw.Endpoint(i)
		dst := (i + n/2) % n
		ad.eng.Schedule(0, func() {
			for m := 0; m < msgs; m++ {
				b := ad.Alloc(1024)
				fill(b, ad.rank, m)
				b[0], b[1] = byte(m), byte(m>>8)
				ad.Send(nil, dst, b, nil)
			}
		})
	}
	err = parallel.RunEpochs(parallel.New(2), engines, sw.Lookahead(), parallel.Hooks{
		TakeOutbox: sw.TakeOutbox,
		Barrier:    sw.ResolveSpine,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range got {
		if c != msgs {
			t.Errorf("rank %d received %d packets, want %d", r, c, msgs)
		}
	}
	if sw.Counters.Get(stats.Retransmits) == 0 {
		t.Error("no retransmissions: the duplicate path went untested")
	}
}
