// gateway.go runs the lapigate soak gate: an in-process gateway over a
// real TCP LAPI mesh, driven closed-loop by the pipelined load generator.
// It reports outcomes — requests answered, errors, the mesh's own count,
// throughput — not latency: a closed loop with thousands of requests in
// flight measures its own queue (Little's law), so latency is taken open
// loop by benchmark/'s gate_open_mix.
package bench

import (
	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
)

// GatewayReport is a soak run's outcome.
type GatewayReport struct {
	client.Result
	// MeshServed is the mesh's own request count, aggregated across all
	// ranks by the shutdown allreduce; it cross-checks the client-side
	// Requests number (it runs higher by the handshakes and creates).
	MeshServed int64
}

// MeasureGateway starts an in-process gateway, drives it with the load
// generator, shuts the mesh down, and folds the run into a report.
// lcfg.Addr is overwritten with the gateway's listen address.
func MeasureGateway(gcfg gateway.Config, lcfg client.LoadConfig) (GatewayReport, error) {
	srv, err := gateway.New(gcfg)
	if err != nil {
		return GatewayReport{}, err
	}
	lcfg.Addr = srv.Addr()
	res, runErr := client.Run(lcfg)
	closeErr := srv.Close()
	if runErr != nil {
		return GatewayReport{}, runErr
	}
	if closeErr != nil {
		return GatewayReport{}, closeErr
	}
	return GatewayReport{Result: res, MeshServed: srv.MeshServed()}, nil
}
