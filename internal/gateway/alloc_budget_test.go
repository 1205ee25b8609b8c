//go:build !race

// Allocation budget for the gateway hot path. Race builds are excluded:
// instrumentation changes allocation counts.

package gateway_test

import (
	"testing"

	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
)

// gatewayAllocBudget bounds steady-state allocations per request, counted
// across all goroutines — the client's encode/decode and the server's
// session together. The server side allocates nothing: a session reuses
// its one request, its header array and its bufio reader, RealRuntime.Do
// runs the bound s.runFn with the runtime's own Context, and request
// payloads and response frames are pooled. The one allocation left is the
// client's: readResp's header array escapes through the io.Reader.
const gatewayAllocBudget = 1.0

func TestGatewayAllocBudget(t *testing.T) {
	cfg := gateway.DefaultConfig()
	cfg.Ranks = 1 // single rank: every segment takes the local fast path
	srv, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ah, st, err := c.CreateArray("alloc.A", 8, 64)
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create: %v %v", st, err)
	}
	ch, st, err := c.CreateCounter("alloc.n")
	if err != nil || st != proto.StatusOK {
		t.Fatalf("create counter: %v %v", st, err)
	}

	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i)
	}
	out := make([]float64, 16)

	ops := []struct {
		name string
		op   func() error
	}{
		{"put", func() error { _, err := c.Put(ah, 2, 8, vals); return err }},
		{"get", func() error { _, err := c.Get(ah, 2, 8, out); return err }},
		{"acc", func() error { _, err := c.Acc(ah, 2, 8, 0.5, vals); return err }},
		{"readinc", func() error { _, _, err := c.ReadInc(ch, 1); return err }},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 64; i++ { // warm pools, bufio
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(300, func() {
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			})
			if avg > gatewayAllocBudget {
				t.Errorf("%s: %.2f allocs/request, budget %.1f — pooled hot path regressed", tc.name, avg, gatewayAllocBudget)
			}
			t.Logf("%s: %.2f allocs/request (budget %.1f)", tc.name, avg, gatewayAllocBudget)
		})
	}
}
