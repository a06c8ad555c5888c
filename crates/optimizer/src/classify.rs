//! TP/AP request classification (§VI-B).
//!
//! "When a request arrives, the optimizer will first estimate the cost of
//! core resource consumption required by the request. Based on this cost
//! and an empirical threshold, each request is classified as either an
//! OLTP or an OLAP request. Afterwards, all OLTP requests are routed to
//! the primary RW node, while OLAP requests are further fed into a MPP
//! optimization stage."

use polardbx_sql::plan::LogicalPlan;

use crate::cost::{estimate, PlanCost, Statistics};

/// Workload class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Short transactional request → RW node, TP thread pool.
    Tp,
    /// Analytical request → RO nodes, MPP stage, AP pools.
    Ap,
}

/// The empirical threshold: total estimated cost above which a request is
/// treated as analytical. Calibrated so sysbench/TPC-C point statements
/// classify TP and TPC-H shapes classify AP at our default statistics.
pub const DEFAULT_AP_THRESHOLD: f64 = 500_000.0;

/// Classify an already estimated cost against `threshold`.
pub fn classify_cost(cost: &PlanCost, threshold: f64) -> WorkloadClass {
    if cost.total() > threshold {
        WorkloadClass::Ap
    } else {
        WorkloadClass::Tp
    }
}

/// Classify a plan by estimated cost against `threshold`.
pub fn classify_with_threshold(
    plan: &LogicalPlan,
    stats: &Statistics,
    threshold: f64,
) -> WorkloadClass {
    classify_cost(&estimate(plan, stats), threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableStats;
    use polardbx_common::Result;
    use polardbx_sql::{build_plan, parse, Statement};

    struct Fixture;
    impl polardbx_sql::plan::SchemaProvider for Fixture {
        fn table_columns(&self, _table: &str) -> Result<Vec<String>> {
            Ok(vec!["id".into(), "a".into(), "b".into()])
        }
    }

    fn stats() -> Statistics {
        let mut s = Statistics::new();
        s.set(
            "lineitem",
            TableStats { rows: 6_000_000, avg_row_bytes: 120, ..Default::default() },
        );
        s.set(
            "orders",
            TableStats { rows: 1_500_000, avg_row_bytes: 100, ..Default::default() },
        );
        s.set("sbtest", TableStats { rows: 100_000, avg_row_bytes: 200, ..Default::default() });
        s
    }

    fn plan(sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!() };
        build_plan(&sel, &Fixture).unwrap()
    }

    #[test]
    fn point_read_is_tp() {
        let p = plan("SELECT a FROM sbtest WHERE id = 42");
        assert_eq!(classify_with_threshold(&p, &stats(), DEFAULT_AP_THRESHOLD), WorkloadClass::Tp);
    }

    #[test]
    fn full_scan_aggregation_is_ap() {
        let p = plan("SELECT a, SUM(b) FROM lineitem GROUP BY a");
        assert_eq!(classify_with_threshold(&p, &stats(), DEFAULT_AP_THRESHOLD), WorkloadClass::Ap);
    }

    #[test]
    fn big_join_is_ap() {
        let p = plan("SELECT lineitem.a FROM lineitem JOIN orders ON lineitem.id = orders.id");
        assert_eq!(classify_with_threshold(&p, &stats(), DEFAULT_AP_THRESHOLD), WorkloadClass::Ap);
    }

    #[test]
    fn threshold_is_tunable() {
        let p = plan("SELECT a FROM sbtest WHERE id = 42");
        assert_eq!(classify_with_threshold(&p, &stats(), 0.1), WorkloadClass::Ap);
        let p2 = plan("SELECT a, SUM(b) FROM lineitem GROUP BY a");
        assert_eq!(classify_with_threshold(&p2, &stats(), f64::MAX), WorkloadClass::Tp);
    }

    #[test]
    fn misclassification_is_possible_by_design() {
        // §VI-D: "an AP query might have been mistakenly recognized as a TP
        // query" — a selective-looking filter over a huge table sneaks under
        // the threshold if stats are stale (rows believed small).
        let mut stale = Statistics::new();
        stale.set("lineitem", TableStats { rows: 10, avg_row_bytes: 100, ..Default::default() });
        let p = plan("SELECT a, SUM(b) FROM lineitem GROUP BY a");
        assert_eq!(
            classify_with_threshold(&p, &stale, DEFAULT_AP_THRESHOLD),
            WorkloadClass::Tp,
            "stale stats → misclassified"
        );
        // The executor's pool re-assignment (not the optimizer) fixes this
        // at runtime.
    }
}
