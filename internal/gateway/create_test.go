package gateway_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
)

// TestConcurrentCreates has twelve sessions on a three-rank gateway, four
// on each home rank, create the same four arrays at once, each session
// starting at a different name, then Put and Get one row through every
// handle. Creates of one name race from every home rank while other
// sessions already run data operations. Every session must get the same
// handle for a name, read back its own row, and Close must leave no
// goroutine of the gateway behind.
func TestConcurrentCreates(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := gateway.DefaultConfig()
	cfg.Ranks = 3
	srv, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const sessions, cols = 12, 24
	names := []string{"cc.A", "cc.B", "cc.C", "cc.D"}
	handles := make([][]uint32, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		handles[s] = make([]uint32, len(names))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = createAndUse(srv.Addr(), s, names, sessions, cols, handles[s])
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", s, err)
		}
	}
	if t.Failed() {
		return
	}
	seen := map[uint32]string{}
	for i, name := range names {
		h := handles[0][i]
		for s := 1; s < sessions; s++ {
			if handles[s][i] != h {
				t.Errorf("%s: session %d got handle %d, session 0 got %d", name, s, handles[s][i], h)
			}
		}
		if other, dup := seen[h]; dup {
			t.Errorf("%s and %s share handle %d", name, other, h)
		}
		seen[h] = name
	}

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// createAndUse is one session of TestConcurrentCreates: create every name
// in names, starting at index s, then write row s of each array and read
// it back.
func createAndUse(addr string, s int, names []string, rows, cols int, handles []uint32) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for k := range names {
		i := (s + k) % len(names)
		h, st, err := c.CreateArray(names[i], rows, cols)
		if err != nil || st != proto.StatusOK {
			return fmt.Errorf("create %s: %v %v", names[i], st, err)
		}
		handles[i] = h
	}
	want := make([]float64, cols)
	got := make([]float64, cols)
	for i, h := range handles {
		for j := range want {
			want[j] = float64(1000*s+100*i+j) + 0.25
		}
		if st, err := c.Put(h, s, 0, want); err != nil || st != proto.StatusOK {
			return fmt.Errorf("put %s: %v %v", names[i], st, err)
		}
		if st, err := c.Get(h, s, 0, got); err != nil || st != proto.StatusOK {
			return fmt.Errorf("get %s: %v %v", names[i], st, err)
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("%s row %d col %d = %v, want %v", names[i], s, j, got[j], want[j])
			}
		}
	}
	return nil
}
