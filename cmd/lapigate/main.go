// Command lapigate fronts a LAPI mesh with the gateway's binary wire
// protocol: thousands of TCP client sessions multiplexed onto a handful
// of LAPI tasks, speaking the KV/global-array surface from DESIGN.md §11.
//
// Usage:
//
//	lapigate -mode serve  [-addr 127.0.0.1:7117] [-ranks 4] [-window 32]
//	lapigate -mode loadgen -addr HOST:PORT [-sessions N] [-requests N]
//	lapigate -mode smoke
//
// serve runs a gateway until SIGINT/SIGTERM; loadgen drives an already
// running gateway closed-loop (a soak: outcomes and throughput, not
// latency — `go run ./benchmark -workload gate_open_mix` measures that);
// smoke runs both in one process as the sub-second CI gate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"golapi/internal/bench"
	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
)

func main() {
	mode := flag.String("mode", "serve", "serve | loadgen | smoke")
	addr := flag.String("addr", "", "listen address (serve) or target gateway (loadgen)")
	ranks := flag.Int("ranks", 2, "LAPI mesh size behind the gateway")
	window := flag.Int("window", 0, "per-session credit window (0 = default)")
	sessions := flag.Int("sessions", 1000, "concurrent client sessions")
	requests := flag.Int("requests", 100000, "total requests across all sessions")
	pipeline := flag.Int("pipeline", 16, "per-session pipeline depth")
	rows := flag.Int("rows", 256, "benchmark array rows")
	cols := flag.Int("cols", 512, "benchmark array cols")
	seg := flag.Int("seg", 16, "elements per put/get segment")
	seed := flag.Uint64("seed", 1, "access-pattern seed")
	flag.Parse()
	log.SetFlags(0)

	gcfg := gateway.DefaultConfig()
	gcfg.Ranks = *ranks
	if *window > 0 {
		gcfg.Window = *window
	}
	if *addr != "" {
		gcfg.Addr = *addr
	}
	lcfg := client.LoadConfig{
		Addr:     *addr,
		Sessions: *sessions,
		Requests: *requests,
		Pipeline: *pipeline,
		Rows:     *rows, Cols: *cols, Seg: *seg,
		Seed: *seed,
	}

	switch *mode {
	case "serve":
		serve(gcfg)
	case "loadgen":
		if *addr == "" {
			log.Fatal("lapigate: -mode loadgen needs -addr HOST:PORT")
		}
		res, err := client.Run(lcfg)
		if err != nil {
			log.Fatalf("lapigate: loadgen: %v", err)
		}
		fmt.Printf("sessions: %d, requests: %d, errors: %d\n", res.Sessions, res.Requests, res.Errors)
		fmt.Printf("elapsed:  %v\n", res.Elapsed)
		fmt.Printf("rate:     %.0f req/s\n", res.ReqPs)
	case "smoke":
		// CI gate: a small mesh, modest fleet, strict outcome checks. Every
		// session pipelines at exactly the granted window.
		gcfg.Ranks = 2
		lcfg.Sessions, lcfg.Requests, lcfg.Pipeline = 64, 32000, gcfg.Window
		lcfg.Rows, lcfg.Cols, lcfg.Seg = 32, 64, 8
		r, err := bench.MeasureGateway(gcfg, lcfg)
		if err != nil {
			log.Fatalf("lapigate: smoke: %v", err)
		}
		if r.Errors != 0 || r.Requests != int64(lcfg.Requests) || r.MeshServed < r.Requests {
			log.Fatalf("lapigate: smoke failed: %d/%d requests, %d errors, mesh served %d",
				r.Requests, lcfg.Requests, r.Errors, r.MeshServed)
		}
		fmt.Printf("lapigate smoke: %d sessions pipelining %d deep, %d requests, 0 errors, %.0f req/s\n",
			r.Sessions, lcfg.Pipeline, r.Requests, r.ReqPs)
	default:
		log.Fatalf("lapigate: unknown -mode %q", *mode)
	}
}

func serve(gcfg gateway.Config) {
	if gcfg.Addr == "" {
		gcfg.Addr = "127.0.0.1:0"
	}
	srv, err := gateway.New(gcfg)
	if err != nil {
		log.Fatalf("lapigate: %v", err)
	}
	fmt.Printf("lapigate: serving %s (%d ranks, window %d)\n", srv.Addr(), gcfg.Ranks, gcfg.Window)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("lapigate: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("lapigate: close: %v", err)
	}
	fmt.Printf("lapigate: mesh served %d requests\n", srv.MeshServed())
}
