//! Statistics and cost estimation.

use std::collections::HashMap;

use polardbx_sql::expr::{BinOp, Expr};
use polardbx_sql::plan::LogicalPlan;

/// Per-table statistics kept by GMS ("statistics" in §II-A).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Average row footprint in bytes.
    pub avg_row_bytes: u64,
    /// Whether an in-memory column index covers this table (§VI-E).
    pub has_column_index: bool,
}

/// The statistics catalog.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    tables: HashMap<String, TableStats>,
}

impl Statistics {
    /// Empty statistics (every table defaults to 1000 rows).
    pub fn new() -> Statistics {
        Statistics::default()
    }

    /// Set a table's stats.
    pub fn set(&mut self, table: impl Into<String>, stats: TableStats) {
        self.tables.insert(table.into(), stats);
    }

    /// Stats of a table (default estimate when unknown).
    pub fn get(&self, table: &str) -> TableStats {
        self.tables.get(table).cloned().unwrap_or(TableStats {
            rows: 1000,
            avg_row_bytes: 100,
            has_column_index: false,
        })
    }
}

/// Estimated resource consumption of a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCost {
    /// Estimated output cardinality.
    pub rows_out: f64,
    /// CPU units (≈ rows touched by each operator).
    pub cpu: f64,
    /// I/O units (≈ bytes scanned from storage).
    pub io: f64,
    /// Network units (≈ bytes moved between CN and DN).
    pub net: f64,
}

impl PlanCost {
    /// Weighted scalar used for classification and plan comparison.
    pub fn total(&self) -> f64 {
        self.cpu + self.io * 1.5 + self.net * 2.0
    }
}

/// Default predicate selectivities — the classic System-R constants.
fn selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinOp::Eq => 0.05,
            BinOp::Neq => 0.9,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 0.3,
            BinOp::And => {
                let mut parts = Vec::new();
                polardbx_sql::plan::split_conjuncts(e, &mut parts);
                parts.iter().map(selectivity).product()
            }
            BinOp::Or => 0.6,
            _ => 0.5,
        },
        Expr::Between { .. } => 0.25,
        Expr::InList { list, .. } => (0.05 * list.len() as f64).min(0.8),
        Expr::Like { .. } => 0.25,
        Expr::IsNull { .. } => 0.1,
        Expr::Not(inner) => 1.0 - selectivity(inner),
        _ => 0.5,
    }
}

/// Does the predicate contain `column = literal` (an indexable point)?
fn has_eq_on_column(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| {
        if let Expr::Binary { op: BinOp::Eq, left, right } = x {
            if matches!(
                (left.as_ref(), right.as_ref()),
                (Expr::ColumnIdx(_), Expr::Literal(_)) | (Expr::Literal(_), Expr::ColumnIdx(_))
            ) {
                found = true;
            }
        }
    });
    found
}

/// Estimate the cost of `plan` under `stats`.
pub fn estimate(plan: &LogicalPlan, stats: &Statistics) -> PlanCost {
    match plan {
        LogicalPlan::Scan { table, schema } => {
            let ts = stats.get(table);
            let rows = ts.rows as f64;
            let bytes = rows * ts.avg_row_bytes as f64;
            PlanCost {
                rows_out: rows,
                cpu: rows,
                io: bytes,
                // Without pushdown every scanned byte crosses CN↔DN.
                net: bytes * (schema.len().max(1) as f64 / schema.len().max(1) as f64),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let c = estimate(input, stats);
            let sel = selectivity(predicate).clamp(0.0001, 1.0);
            // A filter directly over a scan models an index/PK access path:
            // equality predicates cut the scanned volume, not just the
            // output (the planning half of operator push-down, §VI-B).
            if matches!(input.as_ref(), LogicalPlan::Scan { .. }) && has_eq_on_column(predicate)
            {
                // Index lookups touch a key-sized fraction of the table, far
                // below the generic 5% equality selectivity.
                let access = (sel * 0.002).clamp(0.000_001, 1.0);
                return PlanCost {
                    rows_out: (c.rows_out * access).max(1.0),
                    cpu: (c.cpu * access).max(1.0),
                    io: (c.io * access).max(1.0),
                    net: (c.net * access).max(1.0),
                };
            }
            PlanCost { rows_out: c.rows_out * sel, cpu: c.cpu + c.rows_out, ..c }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let c = estimate(input, stats);
            PlanCost { cpu: c.cpu + c.rows_out * exprs.len() as f64 * 0.1, ..c }
        }
        LogicalPlan::Join { left, right, on, filter } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            let out = if on.is_empty() && filter.is_none() {
                l.rows_out * r.rows_out // cross join
            } else {
                // Equi-join: |L×R| / max(distinct keys) ≈ max(|L|,|R|).
                let base = l.rows_out.max(r.rows_out).max(1.0);
                let filtered = match filter {
                    Some(f) => base * selectivity(f),
                    None => base,
                };
                filtered.max(1.0)
            };
            PlanCost {
                rows_out: out,
                // Hash join: build + probe.
                cpu: l.cpu + r.cpu + l.rows_out + r.rows_out + out,
                io: l.io + r.io,
                net: l.net + r.net,
            }
        }
        LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
            let c = estimate(input, stats);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                (c.rows_out * 0.1).max(1.0)
            };
            PlanCost {
                rows_out: groups,
                cpu: c.cpu + c.rows_out * (1.0 + aggs.len() as f64 * 0.2),
                ..c
            }
        }
        LogicalPlan::Sort { input, .. } => {
            let c = estimate(input, stats);
            let n = c.rows_out.max(2.0);
            PlanCost { cpu: c.cpu + n * n.log2(), ..c }
        }
        LogicalPlan::Limit { input, n } => {
            let c = estimate(input, stats);
            PlanCost { rows_out: c.rows_out.min(*n as f64), ..c }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_sql::{build_plan, parse, Statement};
    use polardbx_common::Result;

    struct Fixture;
    impl polardbx_sql::plan::SchemaProvider for Fixture {
        fn table_columns(&self, table: &str) -> Result<Vec<String>> {
            match table {
                "big" | "big2" => Ok(vec!["id".into(), "a".into(), "b".into()]),
                "small" => Ok(vec!["id".into(), "x".into()]),
                _ => Err(polardbx_common::Error::UnknownTable { name: table.into() }),
            }
        }
    }

    fn stats() -> Statistics {
        let mut s = Statistics::new();
        s.set(
            "big",
            TableStats { rows: 1_000_000, avg_row_bytes: 200, ..Default::default() },
        );
        s.set(
            "big2",
            TableStats { rows: 1_000_000, avg_row_bytes: 200, ..Default::default() },
        );
        s.set("small", TableStats { rows: 100, avg_row_bytes: 50, ..Default::default() });
        s
    }

    fn plan(sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!() };
        build_plan(&sel, &Fixture).unwrap()
    }

    #[test]
    fn point_query_cheaper_than_full_scan() {
        let point = estimate(&plan("SELECT a FROM big WHERE id = 5"), &stats());
        let scan = estimate(&plan("SELECT a FROM big"), &stats());
        assert!(point.rows_out < scan.rows_out);
        // The filter reduces cardinality 20x.
        assert!(point.rows_out <= scan.rows_out * 0.06);
    }

    #[test]
    fn join_cost_exceeds_either_side() {
        let j = estimate(
            &plan("SELECT big.a FROM big JOIN big2 ON big.id = big2.id"),
            &stats(),
        );
        let s = estimate(&plan("SELECT a FROM big"), &stats());
        assert!(j.total() > s.total());
        // Equi-join output ~ max side, not the cross product.
        assert!(j.rows_out <= 1_100_000.0);
    }

    #[test]
    fn cross_join_explodes() {
        let c = estimate(&plan("SELECT big.a FROM big, small"), &stats());
        assert!(c.rows_out >= 1_000_000.0 * 100.0 * 0.99);
    }

    #[test]
    fn small_table_cheap() {
        let c = estimate(&plan("SELECT x FROM small"), &stats());
        assert!(c.total() < 100_000.0);
    }

    #[test]
    fn conjunctive_selectivity_multiplies() {
        let one = estimate(&plan("SELECT a FROM big WHERE id = 5"), &stats());
        let two = estimate(&plan("SELECT a FROM big WHERE id = 5 AND a = 3"), &stats());
        assert!(two.rows_out < one.rows_out);
    }

    #[test]
    fn sort_adds_nlogn() {
        let unsorted = estimate(&plan("SELECT a FROM big"), &stats());
        let sorted = estimate(&plan("SELECT a FROM big ORDER BY a"), &stats());
        assert!(sorted.cpu > unsorted.cpu);
    }

    #[test]
    fn limit_caps_cardinality() {
        let c = estimate(&plan("SELECT a FROM big LIMIT 10"), &stats());
        assert_eq!(c.rows_out, 10.0);
    }

    #[test]
    fn unknown_table_gets_default() {
        let s = Statistics::new();
        assert_eq!(s.get("whatever").rows, 1000);
    }
}
