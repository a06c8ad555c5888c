//! Logical rewrites: predicate pushdown and equi-join key lifting.
//!
//! These are the planning half of §VI-B's operator push-down: moving
//! filters as close to the scans as possible both shrinks CN↔DN traffic
//! and lets the executor push scan+filter fragments onto DN nodes. Lifting
//! `l.k = r.k` conjuncts out of a filter above a cross join converts the
//! executor's nested-loop-over-cross-product into a hash join.

use polardbx_sql::expr::{BinOp, Expr};
use polardbx_sql::plan::{conjoin, split_conjuncts, LogicalPlan};

use crate::cost::{estimate, Statistics};

/// Optimize a plan: run rewrites to fixpoint (bounded). Uses no
/// statistics and reads no literal's value, so it is what a cached plan
/// template keeps; [`choose_build_sides`] is the step that follows the
/// statistics and runs per execution.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let mut p = plan;
    for _ in 0..8 {
        let (next, changed) = rewrite(p);
        p = next;
        if !changed {
            break;
        }
    }
    p
}

/// Full optimization: logical rewrites plus cost-based build-side
/// selection — hash joins build on the smaller input so the larger side
/// becomes the (partitionable) probe stream, which is also what lets the
/// MPP executor parallelize it.
pub fn optimize_with_stats(plan: LogicalPlan, stats: &Statistics) -> LogicalPlan {
    choose_build_sides(optimize(plan), stats)
}

/// Cost-based build-side selection over an [`optimize`]d plan.
pub fn choose_build_sides(plan: LogicalPlan, stats: &Statistics) -> LogicalPlan {
    match plan {
        LogicalPlan::Join { left, right, on, filter } => {
            let left = choose_build_sides(*left, stats);
            let right = choose_build_sides(*right, stats);
            let la = left.schema().len();
            let ra = right.schema().len();
            let lrows = estimate(&left, stats).rows_out;
            let rrows = estimate(&right, stats).rows_out;
            if on.is_empty() || lrows <= rrows * 1.5 {
                return LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    on,
                    filter,
                };
            }
            // Swap: the smaller (old right) side becomes the build input.
            // Column positions in the swapped concatenation move — remap the
            // residual filter and restore the original order with a pure
            // projection above so parent expressions stay valid.
            let flipped: Vec<(usize, usize)> = on.iter().map(|&(l, r)| (r, l)).collect();
            let remap = |e: &Expr| {
                e.transform(&|x| match x {
                    Expr::ColumnIdx(i) => Ok(Expr::ColumnIdx(if i < la { ra + i } else { i - la })),
                    other => Ok(other),
                })
                .expect("infallible remap")
            };
            let new_filter = filter.as_ref().map(remap);
            let mut names = left.schema();
            names.extend(right.schema());
            let join = LogicalPlan::Join {
                left: Box::new(right),
                right: Box::new(left),
                on: flipped,
                filter: new_filter,
            };
            let exprs: Vec<Expr> = (0..la)
                .map(|j| Expr::ColumnIdx(ra + j))
                .chain((0..ra).map(Expr::ColumnIdx))
                .collect();
            LogicalPlan::Project { input: Box::new(join), exprs, names }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(choose_build_sides(*input, stats)),
            predicate,
        },
        LogicalPlan::Project { input, exprs, names } => LogicalPlan::Project {
            input: Box::new(choose_build_sides(*input, stats)),
            exprs,
            names,
        },
        LogicalPlan::Aggregate { input, group_by, aggs, names } => LogicalPlan::Aggregate {
            input: Box::new(choose_build_sides(*input, stats)),
            group_by,
            aggs,
            names,
        },
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(choose_build_sides(*input, stats)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(choose_build_sides(*input, stats)), n }
        }
        leaf => leaf,
    }
}

fn rewrite(plan: LogicalPlan) -> (LogicalPlan, bool) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (input, mut changed) = rewrite(*input);
            match input {
                // Merge stacked filters.
                LogicalPlan::Filter { input: inner, predicate: inner_pred } => {
                    let merged = Expr::binary(BinOp::And, predicate, inner_pred);
                    (LogicalPlan::Filter { input: inner, predicate: merged }, true)
                }
                // Push through a join.
                LogicalPlan::Join { left, right, mut on, filter } => {
                    let left_arity = left.schema().len();
                    let right_arity = right.schema().len();
                    let mut conjuncts = Vec::new();
                    split_conjuncts(&predicate, &mut conjuncts);
                    if let Some(f) = filter {
                        split_conjuncts(&f, &mut conjuncts);
                    }
                    let mut left_push = Vec::new();
                    let mut right_push = Vec::new();
                    let mut keep = Vec::new();
                    for c in conjuncts {
                        // Equi-key lifting: #l = #r across sides.
                        if let Expr::Binary { op: BinOp::Eq, left: a, right: b } = &c {
                            if let (Expr::ColumnIdx(x), Expr::ColumnIdx(y)) =
                                (a.as_ref(), b.as_ref())
                            {
                                let (lo, hi) = if x <= y { (*x, *y) } else { (*y, *x) };
                                if lo < left_arity && hi >= left_arity {
                                    on.push((lo, hi - left_arity));
                                    changed = true;
                                    continue;
                                }
                            }
                        }
                        let cols = col_set(&c);
                        if cols.iter().all(|&i| i < left_arity) {
                            left_push.push(c);
                            changed = true;
                        } else if cols.iter().all(|&i| i >= left_arity)
                            && cols.iter().all(|&i| i < left_arity + right_arity)
                        {
                            right_push.push(shift(&c, -(left_arity as isize)));
                            changed = true;
                        } else {
                            keep.push(c);
                        }
                    }
                    let new_left = match conjoin(left_push) {
                        Some(p) => {
                            LogicalPlan::Filter { input: left, predicate: p }
                        }
                        None => *left,
                    };
                    let new_right = match conjoin(right_push) {
                        Some(p) => {
                            LogicalPlan::Filter { input: right, predicate: p }
                        }
                        None => *right,
                    };
                    let join = LogicalPlan::Join {
                        left: Box::new(new_left),
                        right: Box::new(new_right),
                        on,
                        filter: None,
                    };
                    let out = match conjoin(keep) {
                        Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
                        None => join,
                    };
                    (out, changed)
                }
                // Push through a pure-column projection.
                LogicalPlan::Project { input: inner, exprs, names }
                    if exprs.iter().all(|e| matches!(e, Expr::ColumnIdx(_))) =>
                {
                    let mapping: Vec<usize> = exprs
                        .iter()
                        .map(|e| match e {
                            Expr::ColumnIdx(i) => *i,
                            _ => unreachable!(),
                        })
                        .collect();
                    let remapped = predicate
                        .transform(&|e| match e {
                            Expr::ColumnIdx(i) => Ok(Expr::ColumnIdx(mapping[i])),
                            other => Ok(other),
                        })
                        .expect("infallible remap");
                    (
                        LogicalPlan::Project {
                            input: Box::new(LogicalPlan::Filter {
                                input: inner,
                                predicate: remapped,
                            }),
                            exprs,
                            names,
                        },
                        true,
                    )
                }
                other => (
                    LogicalPlan::Filter { input: Box::new(other), predicate },
                    changed,
                ),
            }
        }
        LogicalPlan::Project { input, exprs, names } => {
            let (input, changed) = rewrite(*input);
            (LogicalPlan::Project { input: Box::new(input), exprs, names }, changed)
        }
        LogicalPlan::Join { left, right, on, filter } => {
            let (l, cl) = rewrite(*left);
            let (r, cr) = rewrite(*right);
            // A join-level residual filter also participates in pushdown:
            // express it as a filter above and let the Filter rule handle it.
            if let Some(f) = filter {
                let join = LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    on,
                    filter: None,
                };
                (LogicalPlan::Filter { input: Box::new(join), predicate: f }, true)
            } else {
                (
                    LogicalPlan::Join {
                        left: Box::new(l),
                        right: Box::new(r),
                        on,
                        filter: None,
                    },
                    cl || cr,
                )
            }
        }
        LogicalPlan::Aggregate { input, group_by, aggs, names } => {
            let (input, changed) = rewrite(*input);
            (
                LogicalPlan::Aggregate { input: Box::new(input), group_by, aggs, names },
                changed,
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let (input, changed) = rewrite(*input);
            (LogicalPlan::Sort { input: Box::new(input), keys }, changed)
        }
        LogicalPlan::Limit { input, n } => {
            let (input, changed) = rewrite(*input);
            (LogicalPlan::Limit { input: Box::new(input), n }, changed)
        }
        leaf => (leaf, false),
    }
}

fn col_set(e: &Expr) -> Vec<usize> {
    let mut out = Vec::new();
    e.visit(&mut |x| {
        if let Expr::ColumnIdx(i) = x {
            out.push(*i);
        }
    });
    out
}

fn shift(e: &Expr, delta: isize) -> Expr {
    e.transform(&|x| match x {
        Expr::ColumnIdx(i) => Ok(Expr::ColumnIdx((i as isize + delta) as usize)),
        other => Ok(other),
    })
    .expect("infallible shift")
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Result;
    use polardbx_sql::{build_plan, parse, Statement};

    struct Fixture;
    impl polardbx_sql::plan::SchemaProvider for Fixture {
        fn table_columns(&self, table: &str) -> Result<Vec<String>> {
            match table {
                "a" => Ok(vec!["id".into(), "x".into()]),
                "b" => Ok(vec!["id".into(), "y".into()]),
                _ => Err(polardbx_common::Error::UnknownTable { name: table.into() }),
            }
        }
    }

    fn plan(sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!() };
        build_plan(&sel, &Fixture).unwrap()
    }

    fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
        match p {
            LogicalPlan::Join { .. } => Some(p),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => find_join(input),
            _ => None,
        }
    }

    #[test]
    fn equi_keys_lifted_from_cross_join_filter() {
        let p = plan("SELECT a.x FROM a, b WHERE a.id = b.id AND a.x > 5");
        let opt = optimize(p);
        let LogicalPlan::Join { on, left, .. } = find_join(&opt).unwrap() else { panic!() };
        assert_eq!(on, &vec![(0usize, 0usize)], "equi key lifted into the join");
        // The single-side conjunct was pushed below the join.
        assert!(
            matches!(left.as_ref(), LogicalPlan::Filter { .. }),
            "a.x > 5 pushed to the left input: {opt:?}"
        );
    }

    #[test]
    fn right_side_predicates_remap_indices() {
        let p = plan("SELECT a.x FROM a, b WHERE b.y = 7");
        let opt = optimize(p);
        let LogicalPlan::Join { right, .. } = find_join(&opt).unwrap() else { panic!() };
        let LogicalPlan::Filter { predicate, .. } = right.as_ref() else {
            panic!("predicate must be pushed right: {opt:?}")
        };
        // b.y is global index 3, local index 1 after remapping.
        let mut cols = Vec::new();
        predicate.visit(&mut |e| {
            if let Expr::ColumnIdx(i) = e {
                cols.push(*i);
            }
        });
        assert_eq!(cols, vec![1]);
    }

    #[test]
    fn cross_side_residual_stays_above() {
        let p = plan("SELECT a.x FROM a, b WHERE a.x > b.y");
        let opt = optimize(p);
        // The comparison references both sides: must remain a filter above.
        let LogicalPlan::Project { input, .. } = &opt else { panic!() };
        assert!(matches!(input.as_ref(), LogicalPlan::Filter { .. }), "{opt:?}");
    }

    #[test]
    fn stacked_filters_merge() {
        // Build Filter(Filter(Scan)) manually.
        let scan = plan("SELECT * FROM a");
        let f1 = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::binary(BinOp::Gt, Expr::ColumnIdx(0), Expr::int(1)),
        };
        let f2 = LogicalPlan::Filter {
            input: Box::new(f1),
            predicate: Expr::binary(BinOp::Lt, Expr::ColumnIdx(0), Expr::int(10)),
        };
        let opt = optimize(f2);
        let LogicalPlan::Filter { input, .. } = &opt else { panic!("{opt:?}") };
        assert!(matches!(input.as_ref(), LogicalPlan::Scan { .. }), "single merged filter");
    }

    #[test]
    fn join_on_conditions_survive() {
        let p = plan("SELECT a.x FROM a JOIN b ON a.id = b.id WHERE a.x = 1");
        let opt = optimize(p);
        let LogicalPlan::Join { on, .. } = find_join(&opt).unwrap() else { panic!() };
        assert_eq!(on.len(), 1);
    }

    #[test]
    fn build_side_swap_preserves_schema_and_results() {
        use crate::cost::{Statistics, TableStats};
        let mut stats = Statistics::new();
        stats.set("a", TableStats { rows: 1_000_000, avg_row_bytes: 10, ..Default::default() });
        stats.set("b", TableStats { rows: 10, avg_row_bytes: 10, ..Default::default() });
        // a (huge) joins b (tiny): the build side must become b.
        let p = plan("SELECT a.x, b.y FROM a JOIN b ON a.id = b.id");
        let opt = super::optimize_with_stats(p.clone(), &stats);
        // Output schema unchanged.
        assert_eq!(opt.schema(), p.schema());
        // Somewhere inside, the join's LEFT (build) scans table b.
        fn build_table(p: &LogicalPlan) -> Option<String> {
            match p {
                LogicalPlan::Join { left, .. } => match left.as_ref() {
                    LogicalPlan::Scan { table, .. } => Some(table.clone()),
                    other => build_table(other),
                },
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. } => build_table(input),
                _ => None,
            }
        }
        assert_eq!(build_table(&opt).as_deref(), Some("b"));
    }

    #[test]
    fn no_swap_when_left_already_small() {
        use crate::cost::{Statistics, TableStats};
        let mut stats = Statistics::new();
        stats.set("a", TableStats { rows: 10, avg_row_bytes: 10, ..Default::default() });
        stats.set("b", TableStats { rows: 1_000_000, avg_row_bytes: 10, ..Default::default() });
        let p = plan("SELECT a.x FROM a JOIN b ON a.id = b.id");
        let opt = super::optimize_with_stats(p.clone(), &stats);
        assert_eq!(opt, super::optimize(p), "already build-optimal: unchanged");
    }

    #[test]
    fn optimize_is_idempotent() {
        let p = plan("SELECT a.x FROM a, b WHERE a.id = b.id AND a.x > 5 AND b.y < 3");
        let once = optimize(p);
        let twice = optimize(once.clone());
        assert_eq!(once, twice);
    }
}
