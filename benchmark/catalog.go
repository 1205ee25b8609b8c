package main

import "strconv"

// The catalogue: every workload and every metric the harness reports, in
// one place. BENCHMARK.json at the repository root is the same list in
// the driver's format; catalog_test.go fails when the two drift apart.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before -compare calls
// it "worse"; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloads = []workloadDef{
	{"rt_small", "closed loop, depth 1, 8-byte Put/Get to the remote rank: per-message software cost (lock handoffs, frame build, dispatch) dominates, copies and bandwidth do nothing"},
	{"rt_large", "same loop with 64000-byte segments plus an 8x1 MiB non-blocking Put stream: per-byte cost (rendezvous lane, pack/unpack copies, writev) dominates, per-message cost is diluted"},
	{"gate_open_mix", "open loop against an out-of-process lapigate, Poisson 40/40/20 Put/Get/ReadInc on two pipelined sessions: the only workload with queues; latency at a fixed rate, traced: the rate ladder to the knee"},
	{"sim_paper", "serial reproduction of the paper's tables and figures in virtual time: sim, switchnet, lapi, mpi, mpl and ga do all the work, tcpnet, gateway and parallel none; virtual times must stay byte-identical"},
	{"sim_mesh1k", "1024 simulated tasks on a fat tree across sharded sub-engines: parallel's epochs and switchnet's barrier-resolved spine do most of the work, the contrast to sim_paper where parallel is bypassed"},
	{"lint_module", "the full 14-pass lapivet suite over the module: internal/analysis is a third of the code and no other workload touches it"},
}

// endToEnd lists the metrics every workload reports in an untraced run.
// Each has one unit but a per-workload definition (README, "End-to-end
// metrics"): op is the workload's headline operation at its outer seam,
// base the reference rung measured beside it in the same rounds, and
// op_over_base their ratio round by round — the one timing figure the
// host's phases cancel out of.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_us", "us", lower, 0.25},
	{"base_us", "us", lower, 0.25},
	{"op_over_base", "ratio", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
}

var ladderRates = []int{5000, 10000, 20000, 30000, 45000, 60000, 80000}

func rateTag(r int) string { return "r" + strconv.Itoa(r/1000) + "k" }

var lintPasses = []string{
	"handlerblock", "bufreuse", "rndvpin", "buflifetime", "counterproto",
	"creditflow", "ctxflow", "simdeterminism", "poollifetime", "shardshare",
	"teardownpath", "racefree", "atomicmix", "goteardown",
}

// perLayer lists the metrics of a traced run. A workload reports 0 for a
// layer it does not exercise (tcpnet on sim_paper, analysis on rt_small).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// Real path: rt_small and rt_large.
		{Name: "socket.rtt_p50_us", Unit: "us", Better: lower},
		{Name: "socket.cpu_us_per_op", Unit: "us", Better: lower},
		{Name: "socket.stream_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "tcpnet.rtt_p50_us", Unit: "us", Better: lower},
		{Name: "tcpnet.self_us", Unit: "us", Better: lower},
		{Name: "tcpnet.cpu_us_per_op", Unit: "us", Better: lower},
		{Name: "tcpnet.allocs_per_op", Unit: "count", Better: lower},
		{Name: "tcpnet.stream_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "exec.post_ns", Unit: "ns", Better: lower},
		{Name: "exec.handoff_us", Unit: "us", Better: lower},
		{Name: "lapi.put_p50_us", Unit: "us", Better: lower},
		{Name: "lapi.put_p99_us", Unit: "us", Better: lower},
		{Name: "lapi.get_p50_us", Unit: "us", Better: lower},
		{Name: "lapi.rmw_p50_us", Unit: "us", Better: lower},
		{Name: "lapi.self_us", Unit: "us", Better: lower},
		{Name: "lapi.cpu_us_per_op", Unit: "us", Better: lower},
		{Name: "lapi.allocs_per_op", Unit: "count", Better: lower},
		{Name: "lapi.rndv_share", Unit: "ratio", Better: higher},
		{Name: "lapi.reg_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "lapi.stream_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "lapi.stream_efficiency", Unit: "ratio", Better: higher},
		{Name: "ga.put_p50_us", Unit: "us", Better: lower},
		{Name: "ga.get_p50_us", Unit: "us", Better: lower},
		{Name: "ga.acc_p50_us", Unit: "us", Better: lower},
		{Name: "ga.self_us", Unit: "us", Better: lower},
		{Name: "ga.cpu_us_per_op", Unit: "us", Better: lower},
		{Name: "ga.allocs_per_op", Unit: "count", Better: lower},
		{Name: "gateway.put_p50_us", Unit: "us", Better: lower},
		{Name: "gateway.put_p99_us", Unit: "us", Better: lower},
		{Name: "gateway.get_p50_us", Unit: "us", Better: lower},
		{Name: "gateway.acc_p50_us", Unit: "us", Better: lower},
		{Name: "gateway.readinc_p50_us", Unit: "us", Better: lower},
		{Name: "gateway.put_local_p50_us", Unit: "us", Better: lower},
		{Name: "gateway.self_us", Unit: "us", Better: lower},
		{Name: "gateway.cpu_us_per_op", Unit: "us", Better: lower},
		{Name: "gateway.allocs_per_op", Unit: "count", Better: lower},
		{Name: "gateway.rndv_share", Unit: "ratio", Better: higher},
	}
	// gate_open_mix: the offered-rate ladder.
	for _, r := range ladderRates {
		m = append(m, metricDef{Name: "gateway.open_p99_us." + rateTag(r), Unit: "us", Better: lower})
	}
	for _, r := range ladderRates {
		m = append(m, metricDef{Name: "gateway.open_achieved." + rateTag(r), Unit: "req/s", Better: higher})
	}
	m = append(m,
		metricDef{Name: "gateway.open_p50_us", Unit: "us", Better: lower},
		metricDef{Name: "gateway.open_put_p50_us", Unit: "us", Better: lower},
		metricDef{Name: "gateway.open_get_p50_us", Unit: "us", Better: lower},
		metricDef{Name: "gateway.open_readinc_p50_us", Unit: "us", Better: lower},
		metricDef{Name: "gateway.max_rate_ok", Unit: "req/s", Better: higher},
		metricDef{Name: "gateway.server_cpu_us_per_req", Unit: "us", Better: lower},
		metricDef{Name: "gateway.server_rss_mb", Unit: "MB", Better: lower},
		metricDef{Name: "gateway.served_ratio", Unit: "ratio", Better: higher},
		metricDef{Name: "loadgen.late_p99_us", Unit: "us", Better: lower},
		metricDef{Name: "loadgen.cpu_us_per_req", Unit: "us", Better: lower},
		// Simulated path: sim_paper.
		metricDef{Name: "sim.ns_per_event_q1k", Unit: "ns", Better: lower},
		metricDef{Name: "sim.ns_per_event_q1m", Unit: "ns", Better: lower},
		metricDef{Name: "sim.switch_ns", Unit: "ns", Better: lower},
		metricDef{Name: "sim.allocs_per_event", Unit: "count", Better: lower},
		metricDef{Name: "switchnet.ns_per_pkt", Unit: "ns", Better: lower},
		metricDef{Name: "switchnet.allocs_per_pkt", Unit: "count", Better: lower},
		metricDef{Name: "switchnet.pkts_total", Unit: "count", Better: lower},
		metricDef{Name: "switchnet.retransmits", Unit: "count", Better: lower},
		metricDef{Name: "switchnet.sweep_ns_per_pkt", Unit: "ns", Better: lower},
		metricDef{Name: "lapi.sim_ns_per_put", Unit: "ns", Better: lower},
		metricDef{Name: "lapi.sim_allocs_per_put", Unit: "count", Better: lower},
		metricDef{Name: "lapi.sim_pkts_per_put", Unit: "count", Better: lower},
		metricDef{Name: "lapi.sim_self_ns", Unit: "ns", Better: lower},
		metricDef{Name: "mpi.sim_ns_per_sendrecv", Unit: "ns", Better: lower},
		metricDef{Name: "mpi.sim_allocs_per_sendrecv", Unit: "count", Better: lower},
		metricDef{Name: "ga.sim_ns_per_put", Unit: "ns", Better: lower},
		metricDef{Name: "ga.sim_allocs_per_put", Unit: "count", Better: lower},
		metricDef{Name: "ga.sim_self_ns", Unit: "ns", Better: lower},
		metricDef{Name: "collective.sim_ns_per_allreduce", Unit: "ns", Better: lower},
		metricDef{Name: "collective.sim_allocs_per_allreduce", Unit: "count", Better: lower},
		metricDef{Name: "bench.table2_ms", Unit: "ms", Better: lower},
		metricDef{Name: "bench.fig2_ms", Unit: "ms", Better: lower},
		metricDef{Name: "bench.fig3_ms", Unit: "ms", Better: lower},
		metricDef{Name: "bench.fig4_ms", Unit: "ms", Better: lower},
		metricDef{Name: "bench.app_ms", Unit: "ms", Better: lower},
		metricDef{Name: "bench.wall_s", Unit: "s", Better: lower},
		metricDef{Name: "bench.paper_err_pct", Unit: "%", Better: lower},
		metricDef{Name: "bench.fail_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "bench.cpu_us_per_op", Unit: "us", Better: lower},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
		// sim_mesh1k.
		metricDef{Name: "parallel.wall_serial_s", Unit: "s", Better: lower},
		metricDef{Name: "parallel.speedup", Unit: "ratio", Better: higher},
		metricDef{Name: "parallel.multicore_proven", Unit: "count", Better: higher},
		metricDef{Name: "parallel.epoch_barriers", Unit: "count", Better: lower},
		metricDef{Name: "parallel.epoch_imports", Unit: "count", Better: lower},
		metricDef{Name: "parallel.shard_imbalance", Unit: "ratio", Better: lower},
		metricDef{Name: "switchnet.spine_requests", Unit: "count", Better: lower},
		// lint_module.
		metricDef{Name: "analysis.load_ms", Unit: "ms", Better: lower},
	)
	for _, p := range lintPasses {
		m = append(m, metricDef{Name: "analysis.pass_ms." + p, Unit: "ms", Better: lower})
	}
	m = append(m,
		metricDef{Name: "analysis.diags", Unit: "count", Better: lower},
		metricDef{Name: "analysis.ignores", Unit: "count", Better: lower},
	)
	return m
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
