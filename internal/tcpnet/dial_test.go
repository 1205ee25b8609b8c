package tcpnet

// Internal tests for mesh bring-up: the dial-retry backoff must cap,
// attempts must bound the total wait, exhaustion must surface a wrapped
// error instead of retrying forever, and an accepting rank must fail
// within its budget when a lower rank never connects or never says hello.

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"golapi/internal/exec"
)

// deadAddr returns a loopback address with nothing listening on it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestDialRetryGivesUp(t *testing.T) {
	addr := deadAddr(t)
	const attempts = 5
	start := time.Now()
	c, err := dialRetryWith(addr, attempts, time.Millisecond, 4*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		c.Close()
		t.Fatal("dialRetryWith succeeded against a dead address")
	}
	if !strings.Contains(err.Error(), "gave up after 5 attempts") {
		t.Errorf("error %q does not name the attempt limit", err)
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Errorf("error %q does not wrap the underlying net error", err)
	}
	// Backoff schedule 1+2+4+4 ms plus four dial round trips: well under a
	// second even on a loaded host. The old fixed-sleep loop took 1 s+.
	if elapsed > 5*time.Second {
		t.Errorf("dialRetryWith took %v; backoff or attempt limit not applied", elapsed)
	}
}

func TestDialRetrySucceedsAfterListenerAppears(t *testing.T) {
	addr := deadAddr(t)
	go func() {
		time.Sleep(20 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial side will report failure
		}
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
		ln.Close()
	}()
	c, err := dialRetryWith(addr, dialRetryAttempts, dialRetryBase, dialRetryCap)
	if err != nil {
		t.Fatalf("dialRetryWith did not recover once the listener appeared: %v", err)
	}
	c.Close()
}

// dialGuarded runs dialWith for rank self of n under a wall-clock guard
// and returns its error; a Dial that does not return within the guard
// fails the test as a bring-up hang.
func dialGuarded(t *testing.T, self, n int, addrs []string, budget time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		ep, err := dialWith(exec.NewRealRuntime(), self, n, addrs, 0, budget)
		if ep != nil {
			ep.Close()
		}
		done <- err
	}()
	guard := 20 * time.Second
	if d, ok := t.Deadline(); ok && time.Until(d)/2 < guard {
		guard = time.Until(d) / 2
	}
	select {
	case err := <-done:
		return err
	case <-time.After(guard):
		t.Fatalf("rank %d of %d still in Dial after %v: mesh bring-up hangs", self, n, guard)
		return nil
	}
}

// TestDialFailsWhenLowerRankNeverStarts starts only rank 1 of 2: nothing
// ever connects to its listener, and Dial must fail within the budget.
func TestDialFailsWhenLowerRankNeverStarts(t *testing.T) {
	addrs := []string{deadAddr(t), deadAddr(t)}
	const budget = 200 * time.Millisecond
	start := time.Now()
	err := dialGuarded(t, 1, 2, addrs, budget)
	if err == nil {
		t.Fatal("Dial succeeded with rank 0 absent")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %q is not the accept timeout", err)
	}
	if elapsed := time.Since(start); elapsed > budget+5*time.Second {
		t.Errorf("Dial took %v to fail with a %v budget", elapsed, budget)
	}
}

// TestDialFailsOnSilentPeer: a lower rank connects but never sends its
// hello; the hello read must time out instead of blocking bring-up.
func TestDialFailsOnSilentPeer(t *testing.T) {
	addrs := []string{deadAddr(t), deadAddr(t)}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		c, err := dialRetryWith(addrs[1], dialRetryAttempts, dialRetryBase, dialRetryCap)
		if err != nil {
			return
		}
		<-stop
		c.Close()
	}()
	err := dialGuarded(t, 1, 2, addrs, 200*time.Millisecond)
	var ne net.Error
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Dial with a silent peer returned %v, want a read timeout", err)
	}
}
