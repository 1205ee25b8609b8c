package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// Bringing a mesh up can hang, and not through the harness: the mesh
// reserves its ports by listening and closing (tcpnet.LocalAddrs) and
// listens again in tcpnet.Dial; when the port is gone by then, that
// rank's Dial fails and returns, and its peers wait in Accept with no
// deadline — cluster.NewTCPLAPI, and gateway.New above it, then never
// return (README, "Defects found"; once in about 400 runs). Nothing can
// cancel such a call. Where the mesh is in a server child, the child is
// killed and started again (startGate reports errSetupHung). Where it is
// in this process, the run starts over: the process replaces itself.

const (
	// setupDeadline is how long one set-up may take: it needs 10–110 ms.
	setupDeadline = 5 * time.Second
	setupTries    = 3

	// restartsEnv counts, across restarts of the run, the set-ups that hung.
	restartsEnv = "BENCHMARK_SETUP_RESTARTS"
)

// errSetupHung marks a set-up that timed out and is worth another try.
var errSetupHung = errors.New("set-up hung")

// guardSetUp watches one in-process set-up: unless the returned function is
// called within deadline, onHang runs (on the watching goroutine). The
// returned function waits for the watcher to end.
func guardSetUp(deadline time.Duration, onHang func()) (done func()) {
	stop, ended := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		select {
		case <-stop:
		case <-timeout(deadline):
			onHang()
		}
	}()
	return func() {
		close(stop)
		<-ended
	}
}

// setupRestarts is how often this run has started over already.
func setupRestarts() int {
	n, _ := strconv.Atoi(os.Getenv(restartsEnv))
	return n
}

// restartRun replaces the process with a fresh copy of itself — same
// arguments, so the same run from its beginning — or gives up after
// setupTries hung set-ups. It does not return.
func restartRun() {
	n := setupRestarts() + 1
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchmark: set-up hung %d time(s): %v\n", n, err)
		os.Exit(1)
	}
	if n >= setupTries {
		fail(errSetupHung)
	}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	if err := os.Setenv(restartsEnv, strconv.Itoa(n)); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: no set-up within %v (mesh bring-up hung); starting the run over\n", setupDeadline)
	fail(syscall.Exec(self, os.Args, os.Environ()))
}
