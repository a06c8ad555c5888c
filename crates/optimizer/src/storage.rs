//! Row store vs in-memory column index: the physical storage choice (§VI-E).
//!
//! "After a comprehensive comparison of physical execution plans on both
//! row store and column store, the optimizer will finally select the one
//! with the lowest cost. In practice, large data scans and push-down plans
//! with join or aggregation prefer in-memory column index, while point
//! queries choose InnoDB row store."

use polardbx_sql::plan::LogicalPlan;

use crate::cost::Statistics;

/// The chosen scan implementation for a table access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageChoice {
    /// InnoDB-style row store (B-tree point/range access).
    RowStore,
    /// In-memory column index (vectorized scan/filter/agg).
    ColumnIndex,
}

fn has_join_or_agg(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Join { .. } | LogicalPlan::Aggregate { .. } => true,
        LogicalPlan::Scan { .. } => false,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => has_join_or_agg(input),
    }
}

/// Rows threshold above which a columnar scan wins (vectorization amortizes
/// per-row overheads only on bulk scans).
pub const COLUMNAR_SCAN_THRESHOLD: f64 = 10_000.0;

/// Choose the scan implementation for `table` inside `plan`. `point_read`
/// is the caller's answer to "does the filter directly above every scan of
/// `table` name its primary keys?" (the CN's `key_access`, the rule its
/// `EXPLAIN` prints and its row-store scans follow). A point read touches
/// at most a few dozen rows, which B-tree lookups serve for less than any
/// scan of the index; a filter on another column, or on another table of
/// the plan, makes nothing a point read.
pub fn choose_storage(
    plan: &LogicalPlan,
    table: &str,
    stats: &Statistics,
    point_read: bool,
) -> StorageChoice {
    let table_stats = stats.get(table);
    if !table_stats.has_column_index || point_read {
        return StorageChoice::RowStore;
    }
    if table_stats.rows as f64 >= COLUMNAR_SCAN_THRESHOLD || has_join_or_agg(plan) {
        StorageChoice::ColumnIndex
    } else {
        StorageChoice::RowStore
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableStats;
    use polardbx_common::Result;
    use polardbx_sql::{build_plan, parse, Statement};

    struct Fixture;
    impl polardbx_sql::plan::SchemaProvider for Fixture {
        fn table_columns(&self, _t: &str) -> Result<Vec<String>> {
            Ok(vec!["id".into(), "a".into(), "b".into()])
        }
    }

    fn stats(with_ci: bool) -> Statistics {
        let mut s = Statistics::new();
        s.set(
            "lineitem",
            TableStats {
                rows: 6_000_000,
                avg_row_bytes: 120,
                has_column_index: with_ci,
            },
        );
        s
    }

    fn plan(sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!() };
        build_plan(&sel, &Fixture).unwrap()
    }

    #[test]
    fn no_column_index_means_row_store() {
        let p = plan("SELECT a, SUM(b) FROM lineitem GROUP BY a");
        assert_eq!(choose_storage(&p, "lineitem", &stats(false), false), StorageChoice::RowStore);
    }

    #[test]
    fn large_scan_prefers_column_index() {
        let p = plan("SELECT a, SUM(b) FROM lineitem GROUP BY a");
        assert_eq!(choose_storage(&p, "lineitem", &stats(true), false), StorageChoice::ColumnIndex);
    }

    #[test]
    fn point_read_prefers_row_store() {
        let p = plan("SELECT a, SUM(b) FROM lineitem WHERE id = 5 GROUP BY a");
        assert_eq!(choose_storage(&p, "lineitem", &stats(true), true), StorageChoice::RowStore);
    }

    #[test]
    fn join_plans_prefer_column_index() {
        let p = plan("SELECT l.a FROM lineitem l JOIN lineitem r ON l.id = r.id");
        assert_eq!(choose_storage(&p, "lineitem", &stats(true), false), StorageChoice::ColumnIndex);
    }
}
