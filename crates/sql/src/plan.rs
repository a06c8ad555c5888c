//! Logical plans: SELECT ASTs become operator trees.
//!
//! The planner resolves all column references to positions, decomposes ON
//! conditions into equi-join keys, and splits aggregation into an
//! `Aggregate` node (group keys + aggregate specs) with scalar expressions
//! rewritten on top — the representation the optimizer (cost-based choices,
//! push-down) and the executor (vectorized operators, MPP fragments)
//! consume.

use polardbx_common::{Error, Result, Value};

use crate::ast::{Select, SelectItem};
use crate::expr::{AggFunc, BinOp, Expr};

/// Supplies table schemas during planning (the GMS catalog implements this).
pub trait SchemaProvider {
    /// Bare column names of `table`, in order.
    fn table_columns(&self, table: &str) -> Result<Vec<String>>;
}

/// One aggregate computed by an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Argument, resolved against the aggregate's input (None = COUNT(*)).
    pub arg: Option<Expr>,
    /// DISTINCT flag.
    pub distinct: bool,
}

/// A logical operator tree. All embedded expressions are resolved
/// (positional) against the node's input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Full scan of a table; output columns are `alias.column`.
    Scan {
        /// Catalog table name.
        table: String,
        /// Output schema (qualified names).
        schema: Vec<String>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// Scalar projection.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// Output expressions over the input schema.
        exprs: Vec<Expr>,
        /// Output column names.
        names: Vec<String>,
    },
    /// Join. `on` pairs are (left column, right column) positions; an empty
    /// list is a cross join (the optimizer may later lift equi conditions
    /// out of a filter above it).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Equi-join key positions.
        on: Vec<(usize, usize)>,
        /// Residual non-equi condition over the concatenated schema.
        filter: Option<Expr>,
    },
    /// Group-by + aggregates. Output schema = group columns then aggregates.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Group expressions over the input schema.
        group_by: Vec<Expr>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
        /// Output names.
        names: Vec<String>,
    },
    /// Sort by keys over the input schema (bool = descending).
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<(Expr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: usize,
    },
}

impl LogicalPlan {
    /// Output schema (column names) of this node.
    pub fn schema(&self) -> Vec<String> {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Project { names, .. } => names.clone(),
            LogicalPlan::Join { left, right, .. } => {
                let mut s = left.schema();
                s.extend(right.schema());
                s
            }
            LogicalPlan::Aggregate { names, .. } => names.clone(),
        }
    }

    /// All tables referenced (left-to-right).
    pub fn tables(&self) -> Vec<String> {
        match self {
            LogicalPlan::Scan { table, .. } => vec![table.clone()],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => input.tables(),
            LogicalPlan::Join { left, right, .. } => {
                let mut t = left.tables();
                t.extend(right.tables());
                t
            }
        }
    }

    /// This tree with every expression [`Expr::bind`]ed: a cached template
    /// becomes the plan of one statement.
    pub fn bind(&self, literals: &[Value]) -> LogicalPlan {
        let input = |input: &LogicalPlan| Box::new(input.bind(literals));
        let exprs = |exprs: &[Expr]| exprs.iter().map(|e| e.bind(literals)).collect();
        match self {
            LogicalPlan::Scan { .. } => self.clone(),
            LogicalPlan::Filter { input: i, predicate } => {
                LogicalPlan::Filter { input: input(i), predicate: predicate.bind(literals) }
            }
            LogicalPlan::Project { input: i, exprs: e, names } => {
                LogicalPlan::Project { input: input(i), exprs: exprs(e), names: names.clone() }
            }
            LogicalPlan::Join { left, right, on, filter } => LogicalPlan::Join {
                left: input(left),
                right: input(right),
                on: on.clone(),
                filter: filter.as_ref().map(|f| f.bind(literals)),
            },
            LogicalPlan::Aggregate { input: i, group_by, aggs, names } => LogicalPlan::Aggregate {
                input: input(i),
                group_by: exprs(group_by),
                aggs: aggs
                    .iter()
                    .map(|a| AggSpec { arg: a.arg.as_ref().map(|e| e.bind(literals)), ..*a })
                    .collect(),
                names: names.clone(),
            },
            LogicalPlan::Sort { input: i, keys } => LogicalPlan::Sort {
                input: input(i),
                keys: keys.iter().map(|(e, desc)| (e.bind(literals), *desc)).collect(),
            },
            LogicalPlan::Limit { input: i, n } => LogicalPlan::Limit { input: input(i), n: *n },
        }
    }

    /// Pretty one-line-per-node rendering (for EXPLAIN-style output).
    pub fn explain(&self) -> String {
        fn rec(p: &LogicalPlan, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match p {
                LogicalPlan::Scan { table, .. } => {
                    out.push_str(&format!("{pad}Scan {table}\n"))
                }
                LogicalPlan::Filter { input, predicate } => {
                    out.push_str(&format!("{pad}Filter {predicate}\n"));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Project { input, names, .. } => {
                    out.push_str(&format!("{pad}Project [{}]\n", names.join(", ")));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Join { left, right, on, .. } => {
                    out.push_str(&format!("{pad}Join on {on:?}\n"));
                    rec(left, indent + 1, out);
                    rec(right, indent + 1, out);
                }
                LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
                    out.push_str(&format!(
                        "{pad}Aggregate groups={} aggs={}\n",
                        group_by.len(),
                        aggs.len()
                    ));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Sort { input, keys } => {
                    out.push_str(&format!("{pad}Sort ({} keys)\n", keys.len()));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Limit { input, n } => {
                    out.push_str(&format!("{pad}Limit {n}\n"));
                    rec(input, indent + 1, out);
                }
            }
        }
        let mut s = String::new();
        rec(self, 0, &mut s);
        s
    }
}

/// Split an expression into its AND-ed conjuncts.
pub fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary { op: BinOp::And, left, right } = e {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// Re-AND a list of conjuncts (None when empty).
pub fn conjoin(mut parts: Vec<Expr>) -> Option<Expr> {
    let mut acc = parts.pop()?;
    while let Some(p) = parts.pop() {
        acc = Expr::binary(BinOp::And, p, acc);
    }
    Some(acc)
}

/// Build a logical plan for a SELECT.
pub fn build_plan(select: &Select, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    // 1. FROM: left-deep tree; comma tables are cross joins, explicit JOINs
    //    carry ON conditions.
    let mut plan = scan(provider, &select.from[0])?;
    for t in &select.from[1..] {
        let right = scan(provider, t)?;
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            on: vec![],
            filter: None,
        };
    }
    for j in &select.joins {
        let right = scan(provider, &j.table)?;
        let left_schema = plan.schema();
        let right_schema = right.schema();
        let (on, residual) = decompose_on(&j.on, &left_schema, &right_schema)?;
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            on,
            filter: residual,
        };
    }

    // 2. WHERE.
    if let Some(pred) = &select.predicate {
        let resolved = pred.resolve(&plan.schema())?;
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate: resolved };
    }

    // 3. Aggregation.
    let has_agg = select_items_have_agg(select) || !select.group_by.is_empty();
    let mut output_exprs: Vec<Expr> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    if has_agg {
        let input_schema = plan.schema();
        let groups: Vec<Expr> = select
            .group_by
            .iter()
            .map(|g| g.resolve(&input_schema))
            .collect::<Result<_>>()?;
        // Collect every aggregate application in select + having + order by.
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut collect = |e: &Expr| -> Result<()> {
            let resolved = e.resolve(&input_schema)?;
            collect_aggs(&resolved, &input_schema, &mut aggs)?;
            Ok(())
        };
        for item in &select.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr)?;
            }
        }
        if let Some(h) = &select.having {
            collect(h)?;
        }
        for (e, _) in &select.order_by {
            // Order-by may reference select aliases — those carry no new
            // aggregates; ignore resolution failures here.
            let _ = collect(e);
        }
        // Aggregate node output names.
        let mut agg_names: Vec<String> = Vec::new();
        for (i, g) in select.group_by.iter().enumerate() {
            agg_names.push(display_name(g, i));
        }
        for (j, a) in aggs.iter().enumerate() {
            agg_names.push(format!("agg_{j}_{:?}", a.func).to_ascii_lowercase());
        }
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: groups.clone(),
            aggs: aggs.clone(),
            names: agg_names.clone(),
        };
        // Rewrite select items over the aggregate output.
        for (i, item) in select.items.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    return Err(Error::Plan {
                        message: "SELECT * with aggregation is not supported".into(),
                    })
                }
                SelectItem::Expr { expr, alias } => {
                    let resolved = expr.resolve(&plan_input_schema_for_rewrite(
                        &groups,
                        select,
                        provider,
                    )?)?;
                    let rewritten = rewrite_post_agg(&resolved, &groups, &aggs)?;
                    output_names.push(
                        alias.clone().unwrap_or_else(|| display_name(expr, i)),
                    );
                    output_exprs.push(rewritten);
                }
            }
        }
        // HAVING above the aggregate (rewritten the same way).
        if let Some(h) = &select.having {
            let resolved =
                h.resolve(&plan_input_schema_for_rewrite(&groups, select, provider)?)?;
            let rewritten = rewrite_post_agg(&resolved, &groups, &aggs)?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: rewritten };
        }
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: output_exprs,
            names: output_names.clone(),
        };
    } else {
        // Plain projection.
        let input_schema = plan.schema();
        let mut all_star = true;
        for (i, item) in select.items.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    for (idx, name) in input_schema.iter().enumerate() {
                        output_exprs.push(Expr::ColumnIdx(idx));
                        output_names.push(name.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    all_star = false;
                    output_exprs.push(expr.resolve(&input_schema)?);
                    output_names
                        .push(alias.clone().unwrap_or_else(|| display_name(expr, i)));
                }
            }
        }
        let identity = all_star && select.items.len() == 1;
        if !identity {
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs: output_exprs,
                names: output_names.clone(),
            };
        }
    }

    // 4. ORDER BY against the output schema (aliases and group columns).
    if !select.order_by.is_empty() {
        let schema = plan.schema();
        let mut keys = Vec::new();
        for (e, desc) in &select.order_by {
            let resolved = e.resolve(&schema).or_else(|_| {
                // Aggregates in ORDER BY: match the projected expression by
                // display text (e.g. ORDER BY SUM(x) where SUM(x) is
                // projected under a generated name).
                let text = display_name(e, usize::MAX);
                schema
                    .iter()
                    .position(|n| *n == text)
                    .map(Expr::ColumnIdx)
                    .ok_or(Error::Plan { message: format!("cannot order by {e}") })
            })?;
            keys.push((resolved, *desc));
        }
        plan = LogicalPlan::Sort { input: Box::new(plan), keys };
    }

    // 5. LIMIT.
    if let Some(n) = select.limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

/// The schema select-item expressions resolve against before post-agg
/// rewriting: the *join/filter input* schema (aggregate args and group
/// expressions reference it).
fn plan_input_schema_for_rewrite(
    _groups: &[Expr],
    select: &Select,
    provider: &dyn SchemaProvider,
) -> Result<Vec<String>> {
    // Rebuild the pre-aggregation schema: FROM + JOIN concatenation.
    let mut schema = Vec::new();
    for t in &select.from {
        let cols = provider.table_columns(&t.name)?;
        let alias = t.effective_name();
        schema.extend(cols.iter().map(|c| format!("{alias}.{c}")));
    }
    for j in &select.joins {
        let cols = provider.table_columns(&j.table.name)?;
        let alias = j.table.effective_name();
        schema.extend(cols.iter().map(|c| format!("{alias}.{c}")));
    }
    Ok(schema)
}

fn scan(provider: &dyn SchemaProvider, t: &crate::ast::TableRef) -> Result<LogicalPlan> {
    let cols = provider.table_columns(&t.name)?;
    let alias = t.effective_name();
    Ok(LogicalPlan::Scan {
        table: t.name.clone(),
        schema: cols.iter().map(|c| format!("{alias}.{c}")).collect(),
    })
}

/// Equi-join column pairs plus the residual (non-equi) condition.
type EquiJoinSplit = (Vec<(usize, usize)>, Option<Expr>);

/// Split an ON condition into equi-join pairs and a residual.
fn decompose_on(
    on: &Expr,
    left_schema: &[String],
    right_schema: &[String],
) -> Result<EquiJoinSplit> {
    let mut conjuncts = Vec::new();
    split_conjuncts(on, &mut conjuncts);
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    let combined: Vec<String> =
        left_schema.iter().chain(right_schema.iter()).cloned().collect();
    for c in conjuncts {
        if let Expr::Binary { op: BinOp::Eq, left, right } = &c {
            let l_in_left = left.resolve(left_schema);
            let r_in_right = right.resolve(right_schema);
            if let (Ok(Expr::ColumnIdx(li)), Ok(Expr::ColumnIdx(ri))) =
                (&l_in_left, &r_in_right)
            {
                pairs.push((*li, *ri));
                continue;
            }
            let l_in_right = left.resolve(right_schema);
            let r_in_left = right.resolve(left_schema);
            if let (Ok(Expr::ColumnIdx(ri)), Ok(Expr::ColumnIdx(li))) =
                (&l_in_right, &r_in_left)
            {
                pairs.push((*li, *ri));
                continue;
            }
        }
        residual.push(c.resolve(&combined)?);
    }
    Ok((pairs, conjoin(residual)))
}

fn select_items_have_agg(select: &Select) -> bool {
    let has = |e: &Expr| {
        let mut found = false;
        e.visit(&mut |x| {
            if matches!(x, Expr::Agg { .. }) {
                found = true;
            }
        });
        found
    };
    select.items.iter().any(|i| matches!(i, SelectItem::Expr { expr, .. } if has(expr)))
        || select.having.as_ref().is_some_and(has)
}

/// Register every distinct aggregate application found in `e` (resolved
/// against the aggregate input schema).
fn collect_aggs(e: &Expr, _schema: &[String], out: &mut Vec<AggSpec>) -> Result<()> {
    e.visit(&mut |x| {
        if let Expr::Agg { func, arg, distinct } = x {
            let spec = AggSpec {
                func: *func,
                arg: arg.as_deref().cloned(),
                distinct: *distinct,
            };
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
    });
    Ok(())
}

/// Rewrite a resolved expression over the aggregate output: group
/// expressions become `ColumnIdx(i)`, aggregate applications become
/// `ColumnIdx(n_groups + j)`; any other remaining column reference is a
/// GROUP BY violation.
fn rewrite_post_agg(e: &Expr, groups: &[Expr], aggs: &[AggSpec]) -> Result<Expr> {
    // Top-down so whole group expressions match before their leaves.
    if let Some(i) = groups.iter().position(|g| g == e) {
        return Ok(Expr::ColumnIdx(i));
    }
    if let Expr::Agg { func, arg, distinct } = e {
        let spec =
            AggSpec { func: *func, arg: arg.as_deref().cloned(), distinct: *distinct };
        let j = aggs
            .iter()
            .position(|a| *a == spec)
            .ok_or(Error::Plan { message: format!("uncollected aggregate {e}") })?;
        return Ok(Expr::ColumnIdx(groups.len() + j));
    }
    match e {
        Expr::ColumnIdx(_) | Expr::Column(_) => Err(Error::Plan {
            message: format!("column {e} appears outside GROUP BY and aggregates"),
        }),
        Expr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(left, groups, aggs)?),
            right: Box::new(rewrite_post_agg(right, groups, aggs)?),
        }),
        Expr::Not(x) => Ok(Expr::Not(Box::new(rewrite_post_agg(x, groups, aggs)?))),
        Expr::Neg(x) => Ok(Expr::Neg(Box::new(rewrite_post_agg(x, groups, aggs)?))),
        Expr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(rewrite_post_agg(expr, groups, aggs)?),
            negated: *negated,
        }),
        Expr::Between { expr, low, high } => Ok(Expr::Between {
            expr: Box::new(rewrite_post_agg(expr, groups, aggs)?),
            low: Box::new(rewrite_post_agg(low, groups, aggs)?),
            high: Box::new(rewrite_post_agg(high, groups, aggs)?),
        }),
        Expr::InList { expr, list, negated } => Ok(Expr::InList {
            expr: Box::new(rewrite_post_agg(expr, groups, aggs)?),
            list: list
                .iter()
                .map(|x| rewrite_post_agg(x, groups, aggs))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Like { expr, pattern } => Ok(Expr::Like {
            expr: Box::new(rewrite_post_agg(expr, groups, aggs)?),
            pattern: pattern.clone(),
        }),
        Expr::Case { when, otherwise } => Ok(Expr::Case {
            when: when
                .iter()
                .map(|(c, v)| {
                    Ok((
                        rewrite_post_agg(c, groups, aggs)?,
                        rewrite_post_agg(v, groups, aggs)?,
                    ))
                })
                .collect::<Result<_>>()?,
            otherwise: match otherwise {
                Some(x) => Some(Box::new(rewrite_post_agg(x, groups, aggs)?)),
                None => None,
            },
        }),
        leaf => Ok(leaf.clone()),
    }
}

fn display_name(e: &Expr, i: usize) -> String {
    match e {
        Expr::Column(c) => c.rsplit('.').next().unwrap_or(c).to_string(),
        Expr::Agg { func, arg, .. } => match arg {
            Some(a) => format!("{func:?}({a})").to_ascii_lowercase(),
            None => format!("{func:?}(*)").to_ascii_lowercase(),
        },
        _ if i != usize::MAX => format!("col{i}"),
        _ => format!("{e}").to_ascii_lowercase(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Statement;
    use std::collections::HashMap;

    struct Fixture {
        tables: HashMap<String, Vec<String>>,
    }

    impl SchemaProvider for Fixture {
        fn table_columns(&self, table: &str) -> Result<Vec<String>> {
            self.tables
                .get(table)
                .cloned()
                .ok_or(Error::UnknownTable { name: table.into() })
        }
    }

    fn fixture() -> Fixture {
        let mut tables = HashMap::new();
        tables.insert(
            "lineitem".to_string(),
            vec!["l_okey".into(), "l_qty".into(), "l_price".into(), "l_flag".into()],
        );
        tables.insert("orders".to_string(), vec!["o_okey".into(), "o_cust".into()]);
        tables.insert("customer".to_string(), vec!["c_id".into(), "c_name".into()]);
        Fixture { tables }
    }

    fn plan_of(sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!() };
        build_plan(&sel, &fixture()).unwrap()
    }

    #[test]
    fn simple_select_star() {
        let p = plan_of("SELECT * FROM lineitem");
        assert!(matches!(p, LogicalPlan::Scan { .. }));
        assert_eq!(p.schema().len(), 4);
        assert_eq!(p.schema()[0], "lineitem.l_okey");
    }

    #[test]
    fn filter_and_project_resolved() {
        let p = plan_of("SELECT l_qty, l_price * 2 AS dbl FROM lineitem WHERE l_okey = 5");
        let LogicalPlan::Project { input, exprs, names } = &p else { panic!("{p:?}") };
        assert_eq!(names, &vec!["l_qty".to_string(), "dbl".to_string()]);
        assert_eq!(exprs[0], Expr::ColumnIdx(1));
        let LogicalPlan::Filter { predicate, .. } = input.as_ref() else { panic!() };
        // Fully positional — no names left.
        let mut cols = Vec::new();
        predicate.columns(&mut cols);
        assert!(cols.is_empty());
    }

    #[test]
    fn explicit_join_decomposed_to_equi_pairs() {
        let p = plan_of(
            "SELECT o_cust FROM lineitem JOIN orders ON l_okey = o_okey AND l_qty > 1",
        );
        let LogicalPlan::Project { input, .. } = &p else { panic!() };
        let LogicalPlan::Join { on, filter, .. } = input.as_ref() else { panic!() };
        assert_eq!(on, &vec![(0usize, 0usize)]);
        assert!(filter.is_some(), "non-equi conjunct kept as residual");
    }

    #[test]
    fn comma_join_is_cross() {
        let p = plan_of("SELECT c_name FROM orders, customer WHERE o_cust = c_id");
        let LogicalPlan::Project { input, .. } = &p else { panic!() };
        let LogicalPlan::Filter { input: join, .. } = input.as_ref() else { panic!() };
        let LogicalPlan::Join { on, .. } = join.as_ref() else { panic!() };
        assert!(on.is_empty(), "comma join starts as cross; optimizer lifts keys");
    }

    #[test]
    fn aggregation_plan_shape() {
        let p = plan_of(
            "SELECT l_flag, SUM(l_qty) AS total, COUNT(*) FROM lineitem \
             GROUP BY l_flag HAVING SUM(l_qty) > 10 ORDER BY total DESC LIMIT 3",
        );
        let LogicalPlan::Limit { input, n } = &p else { panic!("{p:?}") };
        assert_eq!(*n, 3);
        let LogicalPlan::Sort { input, keys } = input.as_ref() else { panic!() };
        assert!(keys[0].1, "descending");
        let LogicalPlan::Project { input, names, exprs } = input.as_ref() else { panic!() };
        assert_eq!(names.len(), 3);
        // total = agg output index 1 (after 1 group col).
        assert_eq!(exprs[1], Expr::ColumnIdx(1));
        let LogicalPlan::Filter { input, .. } = input.as_ref() else { panic!() };
        let LogicalPlan::Aggregate { group_by, aggs, .. } = input.as_ref() else { panic!() };
        assert_eq!(group_by.len(), 1);
        assert_eq!(aggs.len(), 2); // SUM(l_qty) shared by select+having, COUNT(*)
    }

    #[test]
    fn scalar_over_aggregates() {
        // Q14-style: arithmetic over two aggregates.
        let p = plan_of(
            "SELECT 100.0 * SUM(CASE WHEN l_flag = 'P' THEN l_price ELSE 0 END) / SUM(l_price) \
             FROM lineitem",
        );
        let LogicalPlan::Project { input, exprs, .. } = &p else { panic!() };
        let LogicalPlan::Aggregate { aggs, group_by, .. } = input.as_ref() else { panic!() };
        assert!(group_by.is_empty());
        assert_eq!(aggs.len(), 2);
        // The projection references both agg outputs positionally.
        let mut idxs = Vec::new();
        exprs[0].visit(&mut |e| {
            if let Expr::ColumnIdx(i) = e {
                idxs.push(*i);
            }
        });
        idxs.sort();
        assert_eq!(idxs, vec![0, 1]);
    }

    #[test]
    fn group_by_violation_detected() {
        let Statement::Select(sel) =
            parse("SELECT l_qty, SUM(l_price) FROM lineitem GROUP BY l_flag").unwrap()
        else {
            panic!()
        };
        let err = build_plan(&sel, &fixture()).unwrap_err();
        assert!(matches!(err, Error::Plan { .. }), "{err:?}");
    }

    #[test]
    fn unknown_table_and_column() {
        let Statement::Select(sel) = parse("SELECT x FROM nope").unwrap() else { panic!() };
        assert!(build_plan(&sel, &fixture()).is_err());
        let Statement::Select(sel) = parse("SELECT nope FROM lineitem").unwrap() else {
            panic!()
        };
        assert!(build_plan(&sel, &fixture()).is_err());
    }

    #[test]
    fn aliases_qualify_columns() {
        let p = plan_of("SELECT l.l_qty FROM lineitem l JOIN orders o ON l.l_okey = o.o_okey");
        assert!(p.schema().len() == 1);
        assert_eq!(p.tables(), vec!["lineitem".to_string(), "orders".to_string()]);
    }

    #[test]
    fn explain_renders() {
        let p = plan_of("SELECT l_flag, COUNT(*) FROM lineitem GROUP BY l_flag");
        let text = p.explain();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Scan lineitem"));
    }

    #[test]
    fn conjunct_utilities() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Eq, Expr::col("a"), Expr::int(1)),
            Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Gt, Expr::col("b"), Expr::int(2)),
                Expr::binary(BinOp::Lt, Expr::col("c"), Expr::int(3)),
            ),
        );
        let mut parts = Vec::new();
        split_conjuncts(&e, &mut parts);
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts).unwrap();
        let mut again = Vec::new();
        split_conjuncts(&back, &mut again);
        assert_eq!(again.len(), 3);
        assert!(conjoin(vec![]).is_none());
    }
}
