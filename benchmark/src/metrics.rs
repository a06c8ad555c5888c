//! The benchmark's metric tables: the names, units and directions that
//! `BENCHMARK.json` declares and every run reports.

/// One declared metric.
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; reported by the timed run.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s", "lower"),
    def("ops_per_s", "1/s", "higher"),
    def("read_p50_ms", "ms", "lower"),
    def("read_p90_ms", "ms", "lower"),
    def("write_p50_ms", "ms", "lower"),
    def("write_p90_ms", "ms", "lower"),
];

/// Single layers; reported by the traced run. A value of 0 means the layer
/// did no work on that workload.
pub const PER_LAYER: [MetricDef; 47] = [
    def("front.wire_overhead_us", "us", "lower"),
    def("front.server_p50_us", "us", "lower"),
    def("front.codec_ns_per_frame", "ns", "lower"),
    def("front.admission_ns_per_op", "ns", "lower"),
    def("front.prepared_share", "ratio", "higher"),
    def("front.errors", "count", "lower"),
    def("front.throttled", "count", "lower"),
    def("front.read_p99_ms", "ms", "lower"),
    def("front.write_p99_ms", "ms", "lower"),
    def("sql.parse_us_per_stmt", "us", "lower"),
    def("sql.plan_us_per_stmt", "us", "lower"),
    def("optimizer.rewrite_us_per_stmt", "us", "lower"),
    def("optimizer.classify_us_per_stmt", "us", "lower"),
    def("optimizer.ap_share", "ratio", "higher"),
    def("core.session_read_us", "us", "lower"),
    def("core.session_write_us", "us", "lower"),
    def("core.route_ns_per_key", "ns", "lower"),
    def("core.colindex_rebuild_ms", "ms", "lower"),
    def("core.ro_catchup_us", "us", "lower"),
    def("executor.scan_rows_per_read", "count", "lower"),
    def("executor.tp_exec_us_per_read", "us", "lower"),
    def("executor.scan_ms_per_refresh", "ms", "lower"),
    def("executor.join_ms_per_refresh", "ms", "lower"),
    def("executor.agg_ms_per_refresh", "ms", "lower"),
    def("executor.morsels_per_refresh", "count", "lower"),
    def("executor.steals_per_refresh", "count", "lower"),
    def("executor.ap_exec_ms_per_query", "ms", "lower"),
    def("executor.cpu_per_wall", "ratio", "higher"),
    def("txn.one_phase_share", "ratio", "higher"),
    def("txn.commit_us_zero_latency", "us", "lower"),
    def("txn.blocking_rtts_per_write", "count", "lower"),
    def("txn.rpc_retries", "count", "lower"),
    def("hlc.now_ns", "ns", "lower"),
    def("storage.point_read_ns", "ns", "lower"),
    def("storage.scan_us_per_krow", "us", "lower"),
    def("storage.write_commit_us", "us", "lower"),
    def("wal.flushes_per_commit", "ratio", "lower"),
    def("wal.bytes_per_write_op", "count", "lower"),
    def("wal.epoch_commit_us", "us", "lower"),
    def("consensus.replicate_us", "us", "lower"),
    def("columnar.build_ms_per_100k_rows", "ms", "lower"),
    def("columnar.scan_ms_per_100k_rows", "ms", "lower"),
    def("process.cpu_ms_per_op", "ms", "lower"),
    def("process.peak_rss_mb", "MiB", "lower"),
    def("trace.overhead_share", "ratio", "lower"),
    def("trace.read_unattributed_us", "us", "lower"),
    def("trace.write_unattributed_us", "us", "lower"),
];

/// Counts that must repeat exactly for one seed.
pub const EXACT: [&str; 5] = [
    "front.prepared_share",
    "optimizer.ap_share",
    "executor.scan_rows_per_read",
    "txn.one_phase_share",
    "wal.bytes_per_write_op",
];
