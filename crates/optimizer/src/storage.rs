//! Row store vs in-memory column index: the physical storage choice (§VI-E).
//!
//! "After a comprehensive comparison of physical execution plans on both
//! row store and column store, the optimizer will finally select the one
//! with the lowest cost. In practice, large data scans and push-down plans
//! with join or aggregation prefer in-memory column index, while point
//! queries choose InnoDB row store."

use polardbx_sql::expr::{BinOp, Expr};
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

/// Rows a scan is expected to touch after its adjacent filters.
fn scanned_rows(plan: &LogicalPlan, table: &str, stats: &Statistics) -> f64 {
    fn walk(p: &LogicalPlan, table: &str, under_eq_filter: &mut bool) -> bool {
        match p {
            LogicalPlan::Scan { table: t, .. } => t == table,
            LogicalPlan::Filter { input, predicate } => {
                if has_pk_point(predicate) {
                    *under_eq_filter = true;
                }
                walk(input, table, under_eq_filter)
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => walk(input, table, under_eq_filter),
            LogicalPlan::Join { left, right, .. } => {
                walk(left, table, under_eq_filter)
                    || walk(right, table, under_eq_filter)
            }
        }
    }
    let mut point = false;
    if !walk(plan, table, &mut point) {
        return 0.0;
    }
    let rows = stats.get(table).rows as f64;
    if point {
        1.0
    } else {
        rows
    }
}

fn has_pk_point(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| {
        if let Expr::Binary { op: BinOp::Eq, left, right } = x {
            let lit_and_col = matches!(
                (left.as_ref(), right.as_ref()),
                (Expr::ColumnIdx(_), Expr::Literal(_)) | (Expr::Literal(_), Expr::ColumnIdx(_))
            );
            if lit_and_col {
                found = true;
            }
        }
    });
    found
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

/// Choose the scan implementation for `table` inside `plan`.
pub fn choose_storage(plan: &LogicalPlan, table: &str, stats: &Statistics) -> StorageChoice {
    if !stats.get(table).has_column_index {
        return StorageChoice::RowStore;
    }
    let rows = scanned_rows(plan, table, stats);
    if rows <= 1.5 {
        // Point query: the B-tree wins.
        return StorageChoice::RowStore;
    }
    if rows >= COLUMNAR_SCAN_THRESHOLD || has_join_or_agg(plan) {
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
        assert_eq!(choose_storage(&p, "lineitem", &stats(false)), StorageChoice::RowStore);
    }

    #[test]
    fn large_scan_prefers_column_index() {
        let p = plan("SELECT a, SUM(b) FROM lineitem GROUP BY a");
        assert_eq!(choose_storage(&p, "lineitem", &stats(true)), StorageChoice::ColumnIndex);
    }

    #[test]
    fn point_query_prefers_row_store() {
        let p = plan("SELECT a FROM lineitem WHERE id = 5");
        assert_eq!(choose_storage(&p, "lineitem", &stats(true)), StorageChoice::RowStore);
    }

    #[test]
    fn join_plans_prefer_column_index() {
        let p = plan("SELECT l.a FROM lineitem l JOIN lineitem r ON l.id = r.id");
        assert_eq!(choose_storage(&p, "lineitem", &stats(true)), StorageChoice::ColumnIndex);
    }

    #[test]
    fn unrelated_table_scans_zero_rows() {
        let p = plan("SELECT a FROM lineitem");
        assert_eq!(scanned_rows(&p, "nope", &stats(true)), 0.0);
    }
}
