package gateway_test

// End-to-end tests: a real gateway over a 2-rank TCP mesh, exercised
// through the client package. Covers the full opcode surface, cross-rank
// segments, cross-client visibility, and the application-level error
// statuses that must NOT kill a session.

import (
	"testing"

	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
)

func startGateway(t *testing.T, ranks int) *gateway.Server {
	t.Helper()
	cfg := gateway.DefaultConfig()
	cfg.Ranks = ranks
	srv, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestEndToEnd(t *testing.T) {
	srv := startGateway(t, 2)
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Window() <= 0 {
		t.Fatalf("hello granted window %d", c.Window())
	}

	// Create an array whose columns straddle both ranks' blocks.
	const rows, cols = 8, 64
	ah, st, err := c.CreateArray("e2e.A", rows, cols)
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create: %v %v", st, err)
	}
	// Idempotent re-create returns the same handle; a clash is Exists.
	ah2, st, err := c.CreateArray("e2e.A", rows, cols)
	if err != nil || st != proto.StatusOK || ah2 != ah {
		t.Fatalf("re-create: handle %d/%d status %v err %v", ah2, ah, st, err)
	}
	if _, st, err = c.CreateArray("e2e.A", rows, cols+1); err != nil || st != proto.StatusExists {
		t.Fatalf("clashing create: %v %v", st, err)
	}

	// Put a full row (spans both ranks), read it back in pieces.
	vals := make([]float64, cols)
	for i := range vals {
		vals[i] = float64(i) + 0.25
	}
	if st, err = c.Put(ah, 3, 0, vals); err != nil || st != proto.StatusOK {
		t.Fatalf("put: %v %v", st, err)
	}
	for _, seg := range []struct{ col, n int }{{0, cols}, {30, 4}, {cols - 1, 1}, {0, 1}} {
		out := make([]float64, seg.n)
		if st, err = c.Get(ah, 3, seg.col, out); err != nil || st != proto.StatusOK {
			t.Fatalf("get(%d,%d): %v %v", seg.col, seg.n, st, err)
		}
		for i, v := range out {
			if want := vals[seg.col+i]; v != want {
				t.Fatalf("get(%d,%d)[%d] = %v, want %v", seg.col, seg.n, i, v, want)
			}
		}
	}

	// Accumulate across the rank boundary and verify.
	inc := make([]float64, 8)
	for i := range inc {
		inc[i] = 1
	}
	if st, err = c.Acc(ah, 3, 28, 2.5, inc); err != nil || st != proto.StatusOK {
		t.Fatalf("acc: %v %v", st, err)
	}
	out := make([]float64, 8)
	if st, err = c.Get(ah, 3, 28, out); err != nil || st != proto.StatusOK {
		t.Fatalf("get after acc: %v %v", st, err)
	}
	for i, v := range out {
		if want := vals[28+i] + 2.5; v != want {
			t.Fatalf("acc[%d] = %v, want %v", i, v, want)
		}
	}

	// A second client (likely on the other home rank) sees the writes.
	c2, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	h2, kind, st, err := c2.Open("e2e.A")
	if err != nil || st != proto.StatusOK || h2 != ah || kind != proto.KindArray {
		t.Fatalf("open from second client: h=%d kind=%d %v %v", h2, kind, st, err)
	}
	out2 := make([]float64, cols)
	if st, err = c2.Get(h2, 3, 0, out2); err != nil || st != proto.StatusOK {
		t.Fatalf("cross-client get: %v %v", st, err)
	}
	if out2[0] != vals[0] || out2[cols-1] != vals[cols-1] {
		t.Fatalf("cross-client get saw %v..%v, want %v..%v", out2[0], out2[cols-1], vals[0], vals[cols-1])
	}

	// Shared counter: interleaved increments from both clients.
	ch, st, err := c.CreateCounter("e2e.n")
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create counter: %v %v", st, err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		v1, st, err := c.ReadInc(ch, 1)
		if err != nil || st != proto.StatusOK {
			t.Fatalf("readinc: %v %v", st, err)
		}
		v2, st, err := c2.ReadInc(ch, 1)
		if err != nil || st != proto.StatusOK {
			t.Fatalf("readinc c2: %v %v", st, err)
		}
		if seen[v1] || seen[v2] || v1 == v2 {
			t.Fatalf("readinc tickets not unique: %d %d seen %v", v1, v2, seen)
		}
		seen[v1], seen[v2] = true, true
	}
	if !seen[0] || len(seen) != 8 {
		t.Fatalf("readinc tickets %v: want exactly 0..7", seen)
	}

	// Application-level errors keep the session alive.
	if _, _, st, err = c.Open("e2e.missing"); err != nil || st != proto.StatusNotFound {
		t.Fatalf("open missing: %v %v", st, err)
	}
	if st, err = c.Put(999, 0, 0, inc); err != nil || st != proto.StatusUnknownHandle {
		t.Fatalf("put unknown handle: %v %v", st, err)
	}
	if st, err = c.Put(ch, 0, 0, inc); err != nil || st != proto.StatusWrongKind {
		t.Fatalf("put on counter: %v %v", st, err)
	}
	if _, st, err = c.ReadInc(ah, 1); err != nil || st != proto.StatusWrongKind {
		t.Fatalf("readinc on array: %v %v", st, err)
	}
	if st, err = c.Get(ah, rows, 0, out); err != nil || st != proto.StatusBadPatch {
		t.Fatalf("get out-of-range row: %v %v", st, err)
	}
	if st, err = c.Get(ah, 0, cols-4, out); err != nil || st != proto.StatusBadPatch {
		t.Fatalf("get overrunning segment: %v %v", st, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after errors: %v", err)
	}
	n, err := c.Stats()
	if err != nil || n == 0 {
		t.Fatalf("stats: %d %v", n, err)
	}
}

// TestLoadgenSmall drives the closed-loop soak generator. The second input
// pipelines at exactly the granted window: a compliant client may send its
// next request the instant it has read a response, so the credit must be
// back before the response is observable (ROADMAP 1c).
func TestLoadgenSmall(t *testing.T) {
	for _, tc := range []struct {
		name               string
		sessions, requests int
		pipeline           int
	}{
		{"pipeline=4", 8, 400, 4},
		{"pipeline=window", 4, 20000, gateway.DefaultConfig().Window},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startGateway(t, 2)
			res, err := client.Run(client.LoadConfig{
				Addr:     srv.Addr(),
				Sessions: tc.sessions,
				Requests: tc.requests,
				Pipeline: tc.pipeline,
				Rows:     16, Cols: 64, Seg: 8,
				Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != int64(tc.requests) || res.Errors != 0 {
				t.Fatalf("loadgen: %d/%d requests, %d errors", res.Requests, tc.requests, res.Errors)
			}
			if res.ReqPs <= 0 {
				t.Fatalf("loadgen throughput implausible: %+v", res)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// +1 control session; every request plus handshakes answered.
			if srv.MeshServed() < int64(tc.requests) {
				t.Fatalf("mesh served %d, want >= %d", srv.MeshServed(), tc.requests)
			}
			if srv.InflightFrames() != 0 {
				t.Fatalf("%d pooled frames still held after close", srv.InflightFrames())
			}
		})
	}
}
