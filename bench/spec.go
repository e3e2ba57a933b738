package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// metricDef is one reported metric: its name, unit and definition. The
// tables below are the benchmark's vocabulary; BENCHMARK.json repeats
// the names and units and adds the regression bounds (bench_test.go
// checks the two agree).
type metricDef struct{ name, unit, def string }

// endToEnd are the metrics a user of the system would see that
// BENCHMARK.json lists with their bounds. Every workload reports all of
// them from its timed run: timings off the quietest tenth of the run's
// windows, counts off their median.
var endToEnd = []metricDef{
	{"setup_s", "s", "start of the workload to the first timed request: build the stack, enroll, register and bind the fleet, warm up; median of five set-ups"},
	{"ops_per_s", "ops/s", "successful operations divided by the window's wall time"},
	{"cpu_us_per_op", "us", "process user+system CPU time (getrusage) per operation, the load generator included"},
	{"allocs_per_op", "count", "heap allocations (runtime.MemStats.Mallocs) per operation, the load generator included"},
}

// unlistedEndToEnd are the end-to-end metrics the timed run reports with
// the others but BENCHMARK.json cannot list, because the driver that
// reads it would refuse the benchmark. Its bound is a share of the
// parent's median ("choose metrics that are never 0"), and two of these
// read 0 on a correct run of some workload. And it refuses a metric
// whose runs of the same code spread wider than the bound, which is at
// most 0.25: a heartbeat's latency has several modes (9, 14 and 18 us)
// and its median falls between them, so p50_us moves by a quarter when a
// few percent of the operations change mode. Their bounds are
// unlistedBounds below, and `bench compare` judges them with the others.
var unlistedEndToEnd = []metricDef{
	{"p50_us", "us", "median latency of one operation"},
	{"rw_syscalls_per_op", "count", "/proc/self/io syscr+syscw per operation, the meter's own reads aside (Linux; omitted elsewhere); 0 on attack_matrix"},
	{"fail_ratio", "ratio", "failed or refused operations over attempted, over the whole run; a failed operation misses every latency number"},
}

var unlistedBounds = []boundedMetric{
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rw_syscalls_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0}, // absolute: any failure is a regression
}

// perLayer are the metrics of single layers, named after the module
// they belong to. They come from the traced run and carry no bound.
var perLayer = []metricDef{
	{"binapi.front_self_us", "us", "traced: mean client-call span minus the router-entry span (binapi client and server, and the kernel socket path, both ways)"},
	{"binapi.socket_delta_us", "us", "ladder: socket rung minus Server.Pipe rung"},
	{"binapi.pipe_delta_us", "us", "ladder: Server.Pipe rung minus router rung"},
	{"binapi.wire_bytes_per_op", "bytes", "Client.BytesIn+BytesOut over the connections, per operation"},
	{"binapi.backpressured", "count", "Server.Backpressured at the end; must stay 0"},
	{"binapi.short_writes", "count", "Server.ShortWrites at the end; must stay 0"},
	{"binapi.server_goroutines", "count", "Server.Goroutines; constant for a readiness source"},
	{"wirecodec.status_encode_ns", "ns", "direct call: PutStatusBody of the keyed status request"},
	{"wirecodec.status_decode_ns", "ns", "direct call: ReadStatusBody of the same body"},
	{"wirecodec.record_encode_ns", "ns", "direct call: EncodeStatusRecord of the same request"},
	{"wirecodec.record_decode_ns", "ns", "direct call: DecodeRecord of the same record"},
	{"cluster.router_self_us", "us", "traced: mean router span minus the node span (ring lookup, Switchable hop)"},
	{"cluster.router_delta_us", "us", "ladder: router rung minus Node(ack) rung"},
	{"cluster.node_span_us", "us", "traced: mean span of the decorator between Switchable and Node"},
	{"cluster.node_delta_us", "us", "ladder: Node(async) rung minus Durable rung (the node's drain lock and dispatch)"},
	{"cluster.replicate_delta_us", "us", "ladder: Node(ack-after-replicate) rung minus Node(async) rung"},
	{"cluster.replication_lag_end", "count", "Node.ReplicationLag when the traced window has ended; must be 0"},
	{"cloud.service_us", "us", "ladder: the request stream against cloud.Service directly"},
	{"cloud.durable_delta_us", "us", "ladder: cloud.Durable (SyncOff) rung minus cloud.Service rung"},
	{"cloud.wal_records_per_op", "count", "Durable.AppliedOps growth per operation: the share of requests that leave the unlogged fast path"},
	{"cloud.bind_p50_us", "us", "median latency of HandleBind inside bind_churn"},
	{"cloud.delegate_p50_us", "us", "median latency of HandleDelegate inside bind_churn"},
	{"cloud.control_p50_us", "us", "median latency of HandleControl inside bind_churn"},
	{"cloud.readings_p50_us", "us", "median latency of Readings by delegation token inside bind_churn"},
	{"cloud.revoke_p50_us", "us", "median latency of HandleRevokeDelegation inside bind_churn"},
	{"cloud.unbind_p50_us", "us", "median latency of HandleUnbind inside bind_churn"},
	{"wal.append_us", "us", "direct call: Log.Append of the status record under SyncOff"},
	{"wal.append_sync_us", "us", "direct call: Log.Append of the status record under SyncEveryRecord; the fsync-durable price the stack under test does not pay"},
	{"wal.tailer_poll_us", "us", "direct call: Tailer.Poll of one fresh record"},
	{"wal.bytes_per_record", "bytes", "segment bytes per appended status record"},
	{"token.resolve_ns", "ns", "direct call: Issuer.Resolve of a user token among 1024"},
	{"delegation.authorize_ns", "ns", "direct call: Lattice.Authorize at the end of a depth-2 chain"},
	{"modelcheck.check_us", "us", "attack_matrix: time in modelcheck.Check and CheckDelegation per operation"},
	{"analysis.predict_us", "us", "attack_matrix: time in analysis.PredictMany and PredictDelegation per operation"},
	{"testbed.evaluate_vendors_us", "us", "attack_matrix: time in testbed.EvaluateVendors per operation"},
	{"testbed.matrix_cells_matched", "count", "attack_matrix: cells on which model, analysis and paper agree, per operation; must equal the total"},
	{"testbed.matrix_cells_total", "count", "attack_matrix: cells compared per operation"},
	{"process.rw_syscalls_per_op", "count", "rw_syscalls_per_op over the reference windows (Linux; omitted elsewhere)"},
	{"process.sys_cpu_us_per_op", "us", "system CPU time per operation: the kernel's share of cpu_us_per_op"},
	{"process.vol_ctx_switches_per_op", "count", "voluntary context switches per operation: how often a thread slept"},
	{"process.alloc_bytes_per_op", "bytes", "heap bytes allocated per operation"},
	{"process.gc_cycles", "count", "garbage collections during the reference windows"},
	{"process.heap_live_mb", "MiB", "live heap after a final runtime.GC"},
	{"process.rss_mb", "MiB", "peak resident set size"},
	{"budget.sum_us", "us", "traced front-end and router self times plus the ladder's Node(ack) rung"},
	{"budget.e2e_us", "us", "traced: mean client-call span"},
	{"budget.residual_ratio", "ratio", "|e2e - sum| / e2e: the share of a request the budget does not explain"},
	{"loadgen.window_spread_ratio", "ratio", "(max - min) / median of ops_per_s over the reference windows"},
	{"loadgen.fail_ratio", "ratio", "fail_ratio over the reference windows; must be 0"},
	{"loadgen.p50_us", "us", "median latency over the reference windows"},
	{"loadgen.p99_us", "us", "99th-percentile latency over the reference windows"},
	{"trace.overhead_ratio", "ratio", "traced p50 over untraced p50"},
	{"trace.dropped_spans", "count", "spans that did not fit the preallocated slice; must be 0"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range slices.Concat(endToEnd, unlistedEndToEnd, perLayer) {
		m[d.name] = d.unit
	}
	return m
}()

// unitOf panics on a name the tables do not know: reporting an
// undeclared metric is a bug in the benchmark.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	return u
}

// benchmarkFile is BENCHMARK.json as far as the benchmark reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}
