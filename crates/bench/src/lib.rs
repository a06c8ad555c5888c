//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one of the paper's evaluation
//! artifacts (Fig 7–10); `EXPERIMENTS.md` records paper-vs-measured rows.
//! This library holds the pieces they share: closed-loop driver threads,
//! result-table formatting, and the measured-component MPP schedule model
//! used on single-core hosts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub mod alloc_count;

/// Print a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Outcome of a closed-loop run.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// Committed operations.
    pub ops: u64,
    /// Errors (conflicts etc.).
    pub errors: u64,
    /// Wall time.
    pub elapsed: Duration,
    /// Mean latency over successful ops.
    pub mean_latency: Duration,
    /// 95th percentile latency.
    pub p95_latency: Duration,
    /// 99th percentile latency.
    pub p99_latency: Duration,
}

impl LoopResult {
    /// Throughput in ops/second.
    pub fn tps(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Run `threads` closed-loop clients for `duration`, each repeatedly
/// invoking `op(thread_id)`. Returns aggregate throughput and latency.
pub fn closed_loop(
    threads: usize,
    duration: Duration,
    op: impl Fn(usize) -> bool + Send + Sync,
) -> LoopResult {
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let hist = polardbx_common::metrics::HdrHistogram::new();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let stop = &stop;
            let ops = &ops;
            let errors = &errors;
            let hist = &hist;
            let op = &op;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let start = Instant::now();
                    if op(t) {
                        hist.record(start.elapsed());
                        ops.fetch_add(1, Ordering::Relaxed);
                    } else {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    LoopResult {
        ops: ops.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed: t0.elapsed(),
        mean_latency: hist.mean(),
        p95_latency: hist.percentile(0.95),
        p99_latency: hist.percentile(0.99),
    }
}

/// Measured-component MPP model for single-core hosts.
///
/// The host this reproduction runs on has one CPU; real wall-clock MPP
/// speedup is physically impossible, so the fig10 harness measures the
/// serial execution and models the `w`-worker schedule as
///
/// `T(w) = T_serial × (f/w + (1 − f)) + overhead`
///
/// where `f` is the parallelizable fraction of the plan (share of the
/// optimizer-estimated cost spent in partitionable operators: scans,
/// filters, partial aggregation, probe-side join work) and `overhead` is
/// the per-query task-scheduling/exchange cost measured from the MPP
/// executor's bookkeeping. On a multi-core host, `MppExecutor` achieves
/// this directly (see `crates/executor/src/mpp.rs` tests).
pub fn modeled_mpp_time(
    serial: Duration,
    parallel_fraction: f64,
    workers: usize,
    overhead: Duration,
) -> Duration {
    let f = parallel_fraction.clamp(0.0, 1.0);
    let w = workers.max(1) as f64;
    serial.mul_f64(f / w + (1.0 - f)) + overhead
}

/// Parallelizable cost fraction of a plan: partitionable operators (scan,
/// filter, probe, partial agg) over total cost.
pub fn parallel_fraction(
    plan: &polardbx_sql::plan::LogicalPlan,
    stats: &polardbx_optimizer::Statistics,
) -> f64 {
    use polardbx_optimizer::estimate;
    use polardbx_sql::plan::LogicalPlan as P;

    fn serial_cost(plan: &P, stats: &polardbx_optimizer::Statistics) -> f64 {
        // Cost of the non-partitionable spine: build sides of joins, final
        // merges, sorts and limits.
        match plan {
            P::Scan { .. } => 0.0,
            P::Filter { input, .. } | P::Project { input, .. } => serial_cost(input, stats),
            P::Aggregate { input, .. } => {
                // Partial aggregation parallelizes; final merge is ~ the
                // group count.
                serial_cost(input, stats) + estimate(plan, stats).rows_out
            }
            P::Join { left, right, .. } => {
                // Build side is executed once at the coordinator.
                estimate(left, stats).cpu + serial_cost(right, stats)
            }
            P::Sort { input, .. } | P::Limit { input, .. } => {
                let inner = estimate(input, stats);
                serial_cost(input, stats) + inner.rows_out
            }
        }
    }

    let total = estimate(plan, stats).cpu.max(1.0);
    let serial = serial_cost(plan, stats).min(total);
    1.0 - serial / total
}

/// A log sink with a fixed wall-clock wait per write: the modelled fsync
/// or PolarFS segment write the TP harnesses charge the durability path.
/// The wait yields while it spins — an fsync is an IO wait, not CPU work,
/// so the core stays free for other committers to enqueue (a plain `sleep`
/// at ~100 µs overshoots on OS timer granularity; a plain spin starves
/// low-core runners and hides the group-commit window).
pub struct SlowSink {
    inner: std::sync::Arc<polardbx_wal::VecSink>,
    delay: Duration,
}

impl SlowSink {
    /// A fresh sink charging `delay` per write.
    pub fn new(delay: Duration) -> std::sync::Arc<SlowSink> {
        std::sync::Arc::new(SlowSink { inner: polardbx_wal::VecSink::new(), delay })
    }
}

impl polardbx_wal::LogSink for SlowSink {
    fn write(&self, at: polardbx_common::Lsn, bytes: bytes::Bytes) -> polardbx_common::Result<()> {
        let t0 = Instant::now();
        while t0.elapsed() < self.delay {
            std::thread::yield_now();
        }
        self.inner.write(at, bytes)
    }
}

/// Format a duration compactly.
pub fn fmt_dur(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2}s", d.as_secs_f64())
    } else if d >= Duration::from_millis(1) {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0}µs", d.as_secs_f64() * 1e6)
    }
}

/// Shared CLI flag: `--quick` shrinks durations for smoke runs.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Re-export for binaries.
pub use std::time::Duration as Dur;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts() {
        let r = closed_loop(2, Duration::from_millis(50), |_| true);
        assert!(r.ops > 0);
        assert_eq!(r.errors, 0);
        assert!(r.tps() > 0.0);
    }

    #[test]
    fn mpp_model_monotone_in_workers() {
        let t = Duration::from_millis(100);
        let w1 = modeled_mpp_time(t, 0.9, 1, Duration::from_millis(1));
        let w4 = modeled_mpp_time(t, 0.9, 4, Duration::from_millis(1));
        assert!(w4 < w1);
        // Amdahl: with f=0.9, speedup at w=4 is bounded by ~3.08×.
        let speedup = w1.as_secs_f64() / w4.as_secs_f64();
        assert!(speedup > 2.0 && speedup < 3.2, "speedup {speedup}");
        // Low parallel fraction → little gain.
        let lf = modeled_mpp_time(t, 0.1, 4, Duration::ZERO);
        assert!(lf > t.mul_f64(0.9));
    }

    #[test]
    fn fmt_dur_ranges() {
        assert!(fmt_dur(Duration::from_secs(2)).ends_with('s'));
        assert!(fmt_dur(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_micros(50)).ends_with("µs"));
    }
}
