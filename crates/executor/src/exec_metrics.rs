//! Per-operator execution metrics for the vectorized engine.
//!
//! Every operator in the vectorized/morsel path records batches, rows,
//! nanoseconds and bytes held into a process-wide registry built on
//! [`polardbx_common::metrics::Counter`], so the fig9/fig10 harnesses (and
//! the perf-smoke CI job) can show *where* time goes, not just totals.

use std::sync::OnceLock;

use polardbx_common::metrics::Counter;
use polardbx_common::time::Timer;

/// Counters for one physical operator.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Batches processed.
    pub batches: Counter,
    /// Rows produced (post-filter for filters, probe output for joins).
    pub rows: Counter,
    /// Wall nanoseconds spent in the operator.
    pub nanos: Counter,
    /// Bytes held in the operator's output batches.
    pub bytes: Counter,
}

impl OpMetrics {
    /// Record one batch worth of work started at `t0`.
    pub fn record(&self, rows: u64, bytes: u64, t0: Timer) {
        self.batches.inc();
        self.rows.add(rows);
        self.bytes.add(bytes);
        self.nanos.add(t0.elapsed().as_nanos() as u64);
    }

    fn reset(&self) {
        self.batches.reset();
        self.rows.reset();
        self.nanos.reset();
        self.bytes.reset();
    }

    fn line(&self, name: &str) -> String {
        format!(
            "  {name:<9} batches={:<8} rows={:<12} ns={:<14} bytes={}",
            self.batches.get(),
            self.rows.get(),
            self.nanos.get(),
            self.bytes.get()
        )
    }
}

/// The engine-wide registry: one [`OpMetrics`] per operator kind plus
/// morsel-scheduling counters.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Table scans (row store and column index).
    pub scan: OpMetrics,
    /// Filters.
    pub filter: OpMetrics,
    /// Projections.
    pub project: OpMetrics,
    /// Hash joins (build + probe).
    pub join: OpMetrics,
    /// Rows a join's build side chained: the input of the builds.
    pub build_rows: Counter,
    /// Wall nanoseconds of the builds, a part of `join.nanos`.
    pub build_nanos: Counter,
    /// Rows probed against a build side: the input of the probes.
    pub probe_rows: Counter,
    /// Hash aggregation.
    pub aggregate: OpMetrics,
    /// Sorts.
    pub sort: OpMetrics,
    /// The engine's work outside the operators: cutting a column-index
    /// snapshot into morsels, finishing a row scan's lanes, merging
    /// partial aggregates and building the answer's rows. `rows` counts
    /// the rows whose lanes were finished or that were built.
    pub setup: OpMetrics,
    /// Morsels dispatched to the worker pool.
    pub morsels: Counter,
    /// Morsels executed by a worker other than the one that scanned the
    /// partition (work stealing events).
    pub steals: Counter,
    /// `CpuGovernor::pace` calls that slept: the AP cap under TP work, or
    /// a paused group.
    pub pacing_sleeps: Counter,
    /// Wall nanoseconds those calls slept.
    pub pacing_nanos: Counter,
    /// Rows the AP engine built out of lanes: the answer's rows, built
    /// once at the root, plus every row the scalar fallback evaluates an
    /// expression no lane loop covers on. Equal to the rows returned when
    /// every operator of a query ran on lanes.
    pub materialized: Counter,
}

impl ExecMetrics {
    /// Zero all counters (between benchmark rounds).
    pub fn reset(&self) {
        self.scan.reset();
        self.filter.reset();
        self.project.reset();
        self.join.reset();
        self.build_rows.reset();
        self.build_nanos.reset();
        self.probe_rows.reset();
        self.aggregate.reset();
        self.sort.reset();
        self.setup.reset();
        self.morsels.reset();
        self.steals.reset();
        self.pacing_sleeps.reset();
        self.pacing_nanos.reset();
        self.materialized.reset();
    }

    /// Human-readable dump for bench harnesses.
    pub fn report(&self) -> String {
        let mut s = String::from("per-operator metrics:\n");
        for (name, m) in [
            ("scan", &self.scan),
            ("filter", &self.filter),
            ("project", &self.project),
            ("join", &self.join),
            ("aggregate", &self.aggregate),
            ("sort", &self.sort),
            ("setup", &self.setup),
        ] {
            s.push_str(&m.line(name));
            s.push('\n');
        }
        s.push_str(&format!(
            "  join      built={:<10} build_ns={:<10} probed={}\n",
            self.build_rows.get(),
            self.build_nanos.get(),
            self.probe_rows.get()
        ));
        s.push_str(&format!(
            "  morsels={} stolen={}\n",
            self.morsels.get(),
            self.steals.get()
        ));
        s.push_str(&format!(
            "  pacing    sleeps={:<9} ns={}\n",
            self.pacing_sleeps.get(),
            self.pacing_nanos.get()
        ));
        s.push_str(&format!("  rows materialized={}\n", self.materialized.get()));
        s
    }
}

/// The process-wide registry.
pub fn exec_metrics() -> &'static ExecMetrics {
    static REG: OnceLock<ExecMetrics> = OnceLock::new();
    REG.get_or_init(ExecMetrics::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_report() {
        let m = ExecMetrics::default();
        m.scan.record(100, 800, Timer::start());
        m.filter.record(40, 320, Timer::start());
        assert_eq!(m.scan.rows.get(), 100);
        assert_eq!(m.scan.batches.get(), 1);
        let report = m.report();
        assert!(report.contains("scan"));
        assert!(report.contains("rows=100"));
        m.reset();
        assert_eq!(m.scan.rows.get(), 0);
    }
}
