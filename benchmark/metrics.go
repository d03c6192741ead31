package main

// The benchmark's names: six workloads, the end-to-end metrics every
// workload reports with tracing off, and the per-layer metrics the
// traced run reports. BENCHMARK.json at the repository root states the
// same lists for the driver; TestManifestMatchesRegistry keeps the two
// from drifting apart.

// How a number was obtained. Timed numbers vary run to run; counted
// ones are read from the program's own counters and must repeat bit for
// bit; computed ones follow from shapes alone.
const (
	timed    = "timed"
	counted  = "counted"
	computed = "computed"
)

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Kind   string  // timed, counted or computed
	Owner  string  // per-layer only: the workload whose traced run measures it
}

// endToEnd is measured with tracing off, under the same names on every
// workload. Both are times "at yardstick speed": the benchmark times a
// fixed loop of its own (yardstick.go) before every op and around
// every set-up, and divides by it. op_norm_ms is the mean time of a
// verified op (per request class, weighted by the class's share of the
// mix) ÷ the mean yardstick reading of the run × the yardstick's
// reading on a quiet box; setup_s is the median of the set-ups, each
// scaled the same way. On the shared 2-core reference box, whose speed
// moves by a third for minutes at a time, no statistic of the raw
// times stays inside the widest bound the driver takes; these do. The
// raw times are reported beside them as observed values (see
// README.md, "Steadiness").
var endToEnd = []metricDef{
	{Name: "op_norm_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: timed},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: timed},
}

// observed is what an end-to-end run reports beside the bounded
// metrics, as measured: too noisy on a shared box to carry a bound, too
// useful to drop.
var observed = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Kind: timed},
	{Name: "op_best_ms", Unit: "ms", Better: "lower", Kind: timed},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Kind: timed},
	{Name: "yardstick_ms", Unit: "ms", Better: "lower", Kind: timed},
	{Name: "setup_raw_s", Unit: "s", Better: "lower", Kind: timed},
}

const (
	wSeqTall    = "seq-tall"
	wGridSim    = "grid-sim"
	wGridTCP    = "grid-tcp"
	wServeHTTP  = "serve-http"
	wServeBatch = "serve-batch"
	wStreamFile = "stream-file"
)

func layer(owner, name, unit, better, kind string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Kind: kind, Owner: owner}
}

// perLayer lists every layer metric, prefixed by the module it
// measures. A traced run reports all of them; the ones another workload
// owns read 0 there.
var perLayer = []metricDef{
	// seq-tall: internal/lin does ≥ 90 % of the work.
	layer(wSeqTall, "lin.syrk_s", "s", "lower", timed),
	layer(wSeqTall, "lin.cholinv_s", "s", "lower", timed),
	layer(wSeqTall, "lin.trmm_s", "s", "lower", timed),
	layer(wSeqTall, "lin.syrk_gflops", "GFLOP/s", "higher", timed),
	layer(wSeqTall, "lin.trmm_gflops", "GFLOP/s", "higher", timed),
	layer(wSeqTall, "lin.peak_gflops", "GFLOP/s", "higher", timed),
	layer(wSeqTall, "lin.syrk_pct_peak", "%", "higher", timed),
	layer(wSeqTall, "lin.par_speedup", "ratio", "higher", timed),
	layer(wSeqTall, "lin.flops_per_op", "count", "lower", computed),
	layer(wSeqTall, "core.cqr2_s", "s", "lower", timed),
	layer(wSeqTall, "core.cqr2_w1_s", "s", "lower", timed),
	layer(wSeqTall, "core.cqr2_self_s", "s", "lower", timed),
	layer(wSeqTall, "root.copy_s", "s", "lower", timed),
	layer(wSeqTall, "root.gflops_hh", "GFLOP/s", "higher", timed),
	layer(wSeqTall, "root.orth_err_max", "ratio", "lower", computed),
	layer(wSeqTall, "root.resid_max", "ratio", "lower", computed),

	// grid-sim: the paper's CA-CQR2 on 16 simulated ranks.
	layer(wGridSim, "simmpi.spawn_s", "s", "lower", timed),
	layer(wGridSim, "simmpi.allreduce_s", "s", "lower", timed),
	layer(wGridSim, "simmpi.bcast_s", "s", "lower", timed),
	layer(wGridSim, "simmpi.allgather_s", "s", "lower", timed),
	layer(wGridSim, "simmpi.msgs_per_proc", "count", "lower", counted),
	layer(wGridSim, "simmpi.words_per_proc", "count", "lower", counted),
	layer(wGridSim, "simmpi.flops_per_proc", "count", "lower", counted),
	layer(wGridSim, "dist.scatter_s", "s", "lower", timed),
	layer(wGridSim, "dist.gather_s", "s", "lower", timed),
	layer(wGridSim, "mm3d.multiply_s", "s", "lower", timed),
	layer(wGridSim, "cfr3d.factor_s", "s", "lower", timed),
	layer(wGridSim, "core.cacqr2_s", "s", "lower", timed),
	layer(wGridSim, "lin.gemm_local_s", "s", "lower", timed),
	layer(wGridSim, "costmodel.count_mismatch", "count", "lower", counted),
	layer(wGridSim, "root.op_self_s", "s", "lower", timed),

	// grid-tcp: the same algorithm through internal/transport/tcpnet.
	layer(wGridTCP, "tcpnet.job_setup_s", "s", "lower", timed),
	layer(wGridTCP, "tcpnet.allreduce_s", "s", "lower", timed),
	layer(wGridTCP, "tcpnet.bcast_s", "s", "lower", timed),
	layer(wGridTCP, "tcpnet.allgather_s", "s", "lower", timed),
	layer(wGridTCP, "tcpnet.msgs_per_proc", "count", "lower", counted),
	layer(wGridTCP, "tcpnet.words_per_proc", "count", "lower", counted),
	layer(wGridTCP, "tcpnet.wire_bytes_per_proc", "count", "lower", counted),
	layer(wGridTCP, "root.sim_same_op_s", "s", "lower", timed),
	layer(wGridTCP, "root.tcp_over_sim_s", "s", "lower", timed),

	// serve-http: request in, Q and R out, through cacqrd.
	layer(wServeHTTP, "cacqrd.small_p50_ms", "ms", "lower", timed),
	layer(wServeHTTP, "cacqrd.solve_p50_ms", "ms", "lower", timed),
	layer(wServeHTTP, "cacqrd.ill_p50_ms", "ms", "lower", timed),
	layer(wServeHTTP, "cacqrd.overhead_small_s", "s", "lower", timed),
	layer(wServeHTTP, "cacqrd.overhead_solve_s", "s", "lower", timed),
	layer(wServeHTTP, "cacqrd.overhead_ill_s", "s", "lower", timed),
	layer(wServeHTTP, "cacqrd.req_bytes_per_op", "count", "lower", counted),
	layer(wServeHTTP, "cacqrd.resp_bytes_per_op", "count", "lower", timed),
	layer(wServeHTTP, "cacqrd.http_4xx", "count", "lower", counted),
	layer(wServeHTTP, "cacqrd.http_5xx", "count", "lower", counted),
	layer(wServeHTTP, "root.submit_small_s", "s", "lower", timed),
	layer(wServeHTTP, "root.submit_solve_s", "s", "lower", timed),
	layer(wServeHTTP, "root.submit_ill_s", "s", "lower", timed),
	layer(wServeHTTP, "root.exec_small_s", "s", "lower", timed),
	layer(wServeHTTP, "root.exec_solve_s", "s", "lower", timed),
	layer(wServeHTTP, "root.exec_ill_s", "s", "lower", timed),
	layer(wServeHTTP, "lin.condest_well_s", "s", "lower", timed),
	layer(wServeHTTP, "lin.condest_ill_s", "s", "lower", timed),
	layer(wServeHTTP, "plan.best_s", "s", "lower", timed),
	layer(wServeHTTP, "serve.do_hit_ns", "ns", "lower", timed),
	layer(wServeHTTP, "serve.hit_rate", "ratio", "higher", counted),

	// serve-batch: throughput mode, many small slab items.
	layer(wServeBatch, "core.batched_cqr2_s", "s", "lower", timed),
	layer(wServeBatch, "lin.batch_syrk_s", "s", "lower", timed),
	layer(wServeBatch, "lin.batch_gemm_s", "s", "lower", timed),
	layer(wServeBatch, "lin.batch_trsm_s", "s", "lower", timed),
	layer(wServeBatch, "serve.dobatch_s", "s", "lower", timed),
	layer(wServeBatch, "root.batch_self_s", "s", "lower", timed),
	layer(wServeBatch, "root.submit_loop_s", "s", "lower", timed),
	layer(wServeBatch, "root.fuse_speedup", "ratio", "higher", timed),
	layer(wServeBatch, "root.items_per_s", "1/s", "higher", timed),

	// stream-file: two-pass out-of-core TSQR plus file I/O.
	layer(wStreamFile, "stream.read_pass_s", "s", "lower", timed),
	layer(wStreamFile, "stream.write_pass_s", "s", "lower", timed),
	layer(wStreamFile, "stream.factor_mem_s", "s", "lower", timed),
	layer(wStreamFile, "stream.io_share", "ratio", "lower", timed),
	layer(wStreamFile, "stream.read_bytes", "count", "lower", counted),
	layer(wStreamFile, "stream.written_bytes", "count", "lower", counted),
	layer(wStreamFile, "stream.resident_bytes", "count", "lower", counted),
	layer(wStreamFile, "stream.flops", "count", "lower", counted),
	layer(wStreamFile, "stream.flop_ratio_vs_incore", "ratio", "lower", computed),
	layer(wStreamFile, "core.cqr2_incore_s", "s", "lower", timed),
	layer(wStreamFile, "lin.panel_syrk_s", "s", "lower", timed),

	// Every workload's traced run.
	layer("", "root.op_p50_ms", "ms", "lower", timed),
	layer("", "root.ops_per_s", "1/s", "higher", timed),
	layer("", "root.op_p95_ms", "ms", "lower", timed),
	layer("", "root.fail_share", "ratio", "lower", counted),
	layer("", "obs.trace_overhead_pct", "%", "lower", timed),
	layer("", "bench.build_s", "s", "lower", timed),
}

// metric is one reported value. N is the sample count behind a
// percentile or median; it travels with the value wherever one is
// printed or stored.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Kind  string  `json:"kind,omitempty"`
}

// metricSet collects a run's values under registry names.
type metricSet map[string]metric

// set stores value under name, taking unit and kind from the registry.
// A name the registry does not know is a bug in the benchmark.
func (ms metricSet) set(defs []metricDef, name string, value float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			ms[name] = metric{Value: value, Unit: d.Unit, N: n, Kind: d.Kind}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}
