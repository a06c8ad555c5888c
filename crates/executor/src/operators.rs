//! The row engine: physical operators executing logical plans over the
//! row store.
//!
//! [`execute_plan`] is the TP engine. It reads the row store only
//! (`scan_where` / `scan_all`) and never asks the provider for a column
//! index — that is the AP engine's source ([`crate::mpp`]). Execution is
//! materialized (operator at a time): each node produces a `Vec<Row>`.
//! Every inner loop accounts its work to the [`ExecCtx`], which paces AP
//! jobs (CPU governor) and aborts jobs whose time slice expired — the
//! executor-side half of §VI-C's time-slicing model.

use std::collections::HashMap;
use std::ops::Range;

use polardbx_common::{Error, Result, Row, Value};
use polardbx_sql::expr::{AggFunc, Expr};
use polardbx_sql::plan::{AggSpec, LogicalPlan};

use crate::batch::PartitionLanes;
use crate::scheduler::TickState;

/// Row source the executor reads from. One implementation wraps the DN
/// engines (row store); the optional columnar hook serves the in-memory
/// column index (§VI-E) to the AP engine, which reads a table from the
/// index exactly when the provider attaches one.
pub trait TableProvider: Send + Sync {
    /// Number of partitions (shards) of `table` — MPP parallelism units.
    fn partitions(&self, _table: &str) -> usize {
        1
    }

    /// Scan one partition of the table at the provider's snapshot.
    fn scan_partition(&self, table: &str, partition: usize) -> Result<Vec<Row>>;

    /// Scan the partitions `partitions`, one after another, into one set
    /// of column builders: what the AP engine's scan leaf reads, once
    /// [`PartitionLanes::finish`] has made them lanes. `read[c]` says
    /// whether the plan reads column `c`; the others stay all NULL. The
    /// default copies [`TableProvider::scan_partition`]'s rows in; a
    /// provider that can hand rows over borrowed overrides it.
    fn scan_lanes(
        &self,
        table: &str,
        partitions: Range<usize>,
        read: &[bool],
    ) -> Result<PartitionLanes> {
        let mut lanes = PartitionLanes::new(read);
        for p in partitions {
            lanes.next_partition();
            for row in self.scan_partition(table, p)? {
                lanes.push(&[], row.values());
            }
        }
        Ok(lanes)
    }

    /// An estimate of the rows of `table`, when the provider has one: the
    /// AP engine packs partitions it deems small into one morsel by it.
    /// Without one, every partition is a morsel task of its own.
    fn rows_estimate(&self, _table: &str) -> Option<usize> {
        None
    }

    /// Scan the whole table.
    fn scan_all(&self, table: &str) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for p in 0..self.partitions(table) {
            out.extend(self.scan_partition(table, p)?);
        }
        Ok(out)
    }

    /// The rows of the table that `predicate` (resolved against the table's
    /// columns) can possibly keep: any superset of them will do, since the
    /// caller still applies the predicate. A provider that can find rows
    /// by key overrides this; the default is the whole table.
    fn scan_where(&self, table: &str, predicate: &Expr) -> Result<Vec<Row>> {
        let _ = predicate;
        self.scan_all(table)
    }

    /// A columnar snapshot of the table, when a column index exists.
    fn columnar(&self, table: &str) -> Option<polardbx_columnar::ColumnSnapshot> {
        let _ = table;
        None
    }
}

/// Per-query execution context: work accounting + pacing + slice deadline.
pub struct ExecCtx {
    ticks: TickState,
}

impl ExecCtx {
    /// Unrestricted context (TP fast path, tests).
    pub fn unrestricted() -> ExecCtx {
        ExecCtx { ticks: TickState::unrestricted() }
    }

    /// Context with pacing/deadline from the scheduler.
    pub fn with_ticks(ticks: TickState) -> ExecCtx {
        ExecCtx { ticks }
    }

    /// A sibling context for a parallel worker: shares the governor and
    /// deadline but counts its own rows, so morsel workers stay paced
    /// instead of running unrestricted.
    pub fn fork(&self) -> ExecCtx {
        ExecCtx { ticks: self.ticks.fork() }
    }

    /// Account `rows` of work. Errors with a retryable `Throttled` when the
    /// job's time slice expired (the scheduler demotes and re-runs it).
    pub fn tick(&self, rows: u64) -> Result<()> {
        if self.ticks.tick(rows) {
            Ok(())
        } else {
            Err(Error::Throttled { rule: "time-slice expired".into() })
        }
    }
}

/// Execute a plan to completion on the row store.
pub fn execute_plan(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            let rows = provider.scan_all(table)?;
            ctx.tick(rows.len() as u64)?;
            Ok(rows)
        }
        LogicalPlan::Filter { input, predicate } => {
            let rows = match input.as_ref() {
                // A scan under a filter reads only the rows the filter can
                // name.
                LogicalPlan::Scan { table, .. } => {
                    let rows = provider.scan_where(table, predicate)?;
                    ctx.tick(rows.len() as u64)?;
                    rows
                }
                _ => execute_plan(input, provider, ctx)?,
            };
            apply_filter(rows, predicate, ctx)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = execute_plan(input, provider, ctx)?;
            apply_project(rows, exprs, ctx)
        }
        LogicalPlan::Join { left, right, on, filter } => {
            let l = execute_plan(left, provider, ctx)?;
            let r = execute_plan(right, provider, ctx)?;
            apply_join(l, r, on, filter.as_ref(), ctx)
        }
        LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
            let rows = execute_plan(input, provider, ctx)?;
            let mut table = AggTable::new(group_by.clone(), aggs.clone());
            table.update_batch(&rows, ctx)?;
            table.finish()
        }
        LogicalPlan::Sort { input, keys } => {
            let rows = execute_plan(input, provider, ctx)?;
            apply_sort(rows, keys, ctx)
        }
        LogicalPlan::Limit { input, n } => {
            let mut rows = execute_plan(input, provider, ctx)?;
            rows.truncate(*n);
            Ok(rows)
        }
    }
}

/// Filter rows by a predicate.
pub fn apply_filter(rows: Vec<Row>, predicate: &Expr, ctx: &ExecCtx) -> Result<Vec<Row>> {
    ctx.tick(rows.len() as u64)?;
    let mut out = Vec::with_capacity(rows.len() / 2);
    for row in rows {
        if predicate.eval_bool(&row)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Project rows through expressions.
pub fn apply_project(rows: Vec<Row>, exprs: &[Expr], ctx: &ExecCtx) -> Result<Vec<Row>> {
    ctx.tick(rows.len() as u64)?;
    rows.iter()
        .map(|row| {
            let vals: Result<Vec<Value>> = exprs.iter().map(|e| e.eval(row)).collect();
            Ok(Row::new(vals?))
        })
        .collect()
}

/// Hash join (cross join with optional filter when `on` is empty).
pub fn apply_join(
    left: Vec<Row>,
    right: Vec<Row>,
    on: &[(usize, usize)],
    filter: Option<&Expr>,
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    ctx.tick((left.len() + right.len()) as u64)?;
    let mut out = Vec::new();
    if on.is_empty() {
        // Nested-loop cross product.
        for l in &left {
            ctx.tick(right.len() as u64)?;
            for r in &right {
                let joined = l.concat(r);
                if match filter {
                    Some(f) => f.eval_bool(&joined)?,
                    None => true,
                } {
                    out.push(joined);
                }
            }
        }
        return Ok(out);
    }
    // Build on the left, probe with the right.
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
    for (i, l) in left.iter().enumerate() {
        let key = join_key(l, on.iter().map(|(li, _)| *li))?;
        table.entry(key).or_default().push(i);
    }
    for r in &right {
        ctx.tick(1)?;
        let key = join_key(r, on.iter().map(|(_, ri)| *ri))?;
        if let Some(matches) = table.get(&key) {
            for &i in matches {
                let joined = left[i].concat(r);
                if match filter {
                    Some(f) => f.eval_bool(&joined)?,
                    None => true,
                } {
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}

fn join_key(row: &Row, cols: impl Iterator<Item = usize>) -> Result<Vec<u8>> {
    let mut vals = Vec::new();
    for c in cols {
        vals.push(row.get(c)?.clone());
    }
    Ok(polardbx_common::Key::encode(&vals).0)
}

/// Sort rows by keys.
pub fn apply_sort(mut rows: Vec<Row>, keys: &[(Expr, bool)], ctx: &ExecCtx) -> Result<Vec<Row>> {
    ctx.tick(rows.len() as u64)?;
    // Precompute key tuples to avoid re-evaluating during comparisons.
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        let mut kv = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            kv.push(e.eval(&row)?);
        }
        keyed.push((kv, row));
    }
    keyed.sort_by(|(a, _), (b, _)| {
        for (i, (_, desc)) in keys.iter().enumerate() {
            let ord = a[i].cmp(&b[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

// --------------------------------------------------------------- aggregation

/// One aggregate's running state — supports partial evaluation + merge so
/// MPP fragments can aggregate locally and the coordinator combines.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    distinct: bool,
    count: u64,
    sum: f64,
    int_only: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct_set: Option<std::collections::BTreeSet<Value>>,
}

impl AggState {
    /// Fresh state for a spec.
    pub fn new(spec: &AggSpec) -> AggState {
        AggState {
            func: spec.func,
            distinct: spec.distinct,
            count: 0,
            sum: 0.0,
            int_only: true,
            min: None,
            max: None,
            distinct_set: spec.distinct.then(std::collections::BTreeSet::new),
        }
    }

    /// Fold one value (None = COUNT(*) row).
    pub fn update(&mut self, v: Option<&Value>) {
        match v {
            None => self.count += 1, // COUNT(*)
            Some(Value::Null) => {}
            Some(v) => {
                if self.distinct {
                    if let Some(set) = &mut self.distinct_set {
                        if !set.insert(v.clone()) {
                            return;
                        }
                    }
                }
                self.count += 1;
                if let Ok(d) = v.as_double() {
                    self.sum += d;
                    if !matches!(v, Value::Int(_)) {
                        self.int_only = false;
                    }
                }
                if self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
                if self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
        }
    }

    /// Merge a partial state from another fragment.
    pub fn merge(&mut self, other: &AggState) {
        match (&mut self.distinct_set, &other.distinct_set) {
            (Some(mine), Some(theirs)) => {
                for v in theirs {
                    if mine.insert(v.clone()) {
                        self.count += 1;
                        if let Ok(d) = v.as_double() {
                            self.sum += d;
                        }
                    }
                }
            }
            _ => {
                self.count += other.count;
                self.sum += other.sum;
            }
        }
        self.int_only &= other.int_only;
        if let Some(m) = &other.min {
            if self.min.as_ref().is_none_or(|mine| m < mine) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().is_none_or(|mine| m > mine) {
                self.max = Some(m.clone());
            }
        }
    }

    /// Final value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            func => numeric_result(func, self.count, self.sum, self.int_only),
        }
    }
}

/// The value of a COUNT, SUM or AVG from its running count, sum and
/// all-Int flag.
pub(crate) fn numeric_result(func: AggFunc, count: u64, sum: f64, int_only: bool) -> Value {
    match func {
        AggFunc::Count => Value::Int(count as i64),
        AggFunc::Sum | AggFunc::Avg if count == 0 => Value::Null,
        AggFunc::Sum if int_only => Value::Int(sum as i64),
        AggFunc::Sum => Value::Double(sum),
        AggFunc::Avg => Value::Double(sum / count as f64),
        AggFunc::Min | AggFunc::Max => unreachable!("not a numeric aggregate"),
    }
}

/// Hash-aggregation table: group keys → aggregate states.
pub struct AggTable {
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    groups: HashMap<Vec<u8>, (Vec<Value>, Vec<AggState>)>,
}

impl AggTable {
    /// Empty table for the given grouping.
    pub fn new(group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> AggTable {
        AggTable { group_by, aggs, groups: HashMap::new() }
    }

    /// Fold a batch of input rows.
    pub fn update_batch(&mut self, rows: &[Row], ctx: &ExecCtx) -> Result<()> {
        ctx.tick(rows.len() as u64)?;
        for row in rows {
            let mut key_vals = Vec::with_capacity(self.group_by.len());
            for g in &self.group_by {
                key_vals.push(g.eval(row)?);
            }
            let key = polardbx_common::Key::encode(&key_vals).0;
            let entry = self.groups.entry(key).or_insert_with(|| {
                (key_vals.clone(), self.aggs.iter().map(AggState::new).collect())
            });
            for (state, spec) in entry.1.iter_mut().zip(&self.aggs) {
                match &spec.arg {
                    Some(arg) => state.update(Some(&arg.eval(row)?)),
                    None => state.update(None),
                }
            }
        }
        Ok(())
    }

    /// Merge a partial table from another fragment.
    pub fn merge(&mut self, other: AggTable) {
        for (key, (vals, states)) in other.groups {
            match self.groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (mine, theirs) in e.get_mut().1.iter_mut().zip(&states) {
                        mine.merge(theirs);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((vals, states));
                }
            }
        }
    }

    /// Produce the output rows (group values then aggregate values).
    /// A global aggregate (no GROUP BY) over zero rows yields one row of
    /// aggregate defaults, per SQL semantics.
    pub fn finish(mut self) -> Result<Vec<Row>> {
        if self.group_by.is_empty() && self.groups.is_empty() {
            let states: Vec<AggState> = self.aggs.iter().map(AggState::new).collect();
            return Ok(vec![Row::new(states.iter().map(AggState::finish).collect())]);
        }
        let mut out = Vec::with_capacity(self.groups.len());
        for (_, (vals, states)) in self.groups.drain() {
            let mut row = vals;
            row.extend(states.iter().map(AggState::finish));
            out.push(Row::new(row));
        }
        Ok(out)
    }
}

/// A trivially simple provider over in-memory tables — used by tests here
/// and in downstream crates.
pub struct MemTables {
    tables: HashMap<String, Vec<Vec<Row>>>,
}

impl MemTables {
    /// Empty provider.
    pub fn new() -> MemTables {
        MemTables { tables: HashMap::new() }
    }

    /// Register a table as a list of partitions.
    pub fn add(&mut self, name: impl Into<String>, partitions: Vec<Vec<Row>>) {
        self.tables.insert(name.into().to_ascii_lowercase(), partitions);
    }
}

impl Default for MemTables {
    fn default() -> Self {
        Self::new()
    }
}

impl TableProvider for MemTables {
    fn partitions(&self, table: &str) -> usize {
        self.tables.get(table).map(|p| p.len()).unwrap_or(0)
    }

    fn rows_estimate(&self, table: &str) -> Option<usize> {
        self.tables.get(table).map(|parts| parts.iter().map(Vec::len).sum())
    }

    fn scan_partition(&self, table: &str, partition: usize) -> Result<Vec<Row>> {
        self.tables
            .get(table)
            .and_then(|p| p.get(partition))
            .cloned()
            .ok_or(Error::UnknownTable { name: table.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Result;

    /// Parse, plan, optimize and execute a SQL SELECT against a provider.
    fn query(
        sql: &str,
        schemas: &dyn polardbx_sql::plan::SchemaProvider,
        provider: &dyn TableProvider,
        ctx: &ExecCtx,
    ) -> Result<Vec<Row>> {
        let stmt = polardbx_sql::parse(sql)?;
        let polardbx_sql::Statement::Select(sel) = stmt else {
            return Err(Error::invalid("query() only executes SELECT"));
        };
        let plan = polardbx_sql::build_plan(&sel, schemas)?;
        let plan = polardbx_optimizer::optimize(plan);
        execute_plan(&plan, provider, ctx)
    }

    struct Schemas;
    impl polardbx_sql::plan::SchemaProvider for Schemas {
        fn table_columns(&self, table: &str) -> Result<Vec<String>> {
            match table {
                "items" => Ok(vec!["id".into(), "grp".into(), "qty".into(), "price".into()]),
                "names" => Ok(vec!["grp".into(), "label".into()]),
                _ => Err(Error::UnknownTable { name: table.into() }),
            }
        }
    }

    fn provider() -> MemTables {
        let mut p = MemTables::new();
        // 10 items across 2 partitions, groups 0/1/2.
        let rows: Vec<Row> = (0..10i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 3),
                    Value::Int(i * 2),
                    Value::Double(i as f64 * 1.5),
                ])
            })
            .collect();
        let (a, b) = rows.split_at(5);
        p.add("items", vec![a.to_vec(), b.to_vec()]);
        p.add(
            "names",
            vec![vec![
                Row::new(vec![Value::Int(0), Value::str("zero")]),
                Row::new(vec![Value::Int(1), Value::str("one")]),
                Row::new(vec![Value::Int(2), Value::str("two")]),
            ]],
        );
        p
    }

    fn run(sql: &str) -> Vec<Row> {
        query(sql, &Schemas, &provider(), &ExecCtx::unrestricted()).unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let rows = run("SELECT id, qty * 2 FROM items WHERE id >= 8");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(32));
    }

    #[test]
    fn hash_join_matches_pairs() {
        let rows = run(
            "SELECT items.id, names.label FROM items JOIN names ON items.grp = names.grp \
             WHERE items.id < 3 ORDER BY items.id",
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(1).unwrap(), &Value::str("zero"));
        assert_eq!(rows[1].get(1).unwrap(), &Value::str("one"));
        assert_eq!(rows[2].get(1).unwrap(), &Value::str("two"));
    }

    #[test]
    fn comma_join_with_where_becomes_hash_join() {
        let rows = run(
            "SELECT items.id FROM items, names WHERE items.grp = names.grp AND names.label = 'one'",
        );
        assert_eq!(rows.len(), 3); // ids 1, 4, 7
    }

    #[test]
    fn aggregation_group_by() {
        let mut rows = run("SELECT grp, COUNT(*), SUM(qty), AVG(price) FROM items GROUP BY grp");
        rows.sort_by(|a, b| a.get(0).unwrap().cmp(b.get(0).unwrap()));
        assert_eq!(rows.len(), 3);
        // Group 0: ids 0,3,6,9 → count 4, qty sum = (0+6+12+18)=36.
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(4));
        assert_eq!(rows[0].get(2).unwrap(), &Value::Int(36));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let rows = run("SELECT COUNT(*), SUM(qty), MIN(qty) FROM items WHERE id > 999");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(0));
        assert_eq!(rows[0].get(1).unwrap(), &Value::Null);
        assert_eq!(rows[0].get(2).unwrap(), &Value::Null);
    }

    #[test]
    fn distinct_count() {
        let rows = run("SELECT COUNT(DISTINCT grp) FROM items");
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));
    }

    #[test]
    fn having_and_order_and_limit() {
        let rows = run(
            "SELECT grp, SUM(qty) AS total FROM items GROUP BY grp \
             HAVING SUM(qty) > 20 ORDER BY total DESC LIMIT 1",
        );
        assert_eq!(rows.len(), 1);
        // Group 2: ids 2,5,8 → 4+10+16=30; group 0 → 36; both > 20, top is 36.
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(36));
    }

    #[test]
    fn sort_multi_key_directions() {
        let rows = run("SELECT grp, id FROM items ORDER BY grp DESC, id ASC LIMIT 4");
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(2));
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(2));
        assert_eq!(rows[1].get(1).unwrap(), &Value::Int(5));
    }

    #[test]
    fn min_max_avg() {
        let rows = run("SELECT MIN(price), MAX(price), AVG(qty) FROM items");
        assert_eq!(rows[0].get(0).unwrap(), &Value::Double(0.0));
        assert_eq!(rows[0].get(1).unwrap(), &Value::Double(13.5));
        assert_eq!(rows[0].get(2).unwrap(), &Value::Double(9.0));
    }

    #[test]
    fn agg_state_merge_partial() {
        let spec = AggSpec { func: AggFunc::Sum, arg: None, distinct: false };
        let mut a = AggState::new(&spec);
        let mut b = AggState::new(&spec);
        a.update(Some(&Value::Int(5)));
        b.update(Some(&Value::Int(7)));
        a.merge(&b);
        assert_eq!(a.finish(), Value::Int(12));
        // Distinct merge dedupes across fragments.
        let dspec = AggSpec { func: AggFunc::Count, arg: None, distinct: true };
        let mut da = AggState::new(&dspec);
        let mut db = AggState::new(&dspec);
        da.update(Some(&Value::Int(1)));
        db.update(Some(&Value::Int(1)));
        db.update(Some(&Value::Int(2)));
        da.merge(&db);
        assert_eq!(da.finish(), Value::Int(2));
    }

    #[test]
    fn slice_expiry_aborts_execution() {
        use crate::scheduler::{Deadline, TickState};
        let ctx = ExecCtx::with_ticks(TickState::new(
            None,
            Some(Deadline::after(std::time::Duration::ZERO)),
        ));
        // Enough rows to cross the tick quantum.
        let rows: Vec<Row> = (0..5000).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let pred = Expr::binary(
            polardbx_sql::expr::BinOp::Ge,
            Expr::ColumnIdx(0),
            Expr::int(0),
        );
        let err = apply_filter(rows, &pred, &ctx).unwrap_err();
        assert!(matches!(err, Error::Throttled { .. }));
    }

    #[test]
    fn query_rejects_non_select() {
        let err = query(
            "INSERT INTO items VALUES (1)",
            &Schemas,
            &provider(),
            &ExecCtx::unrestricted(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Invalid { .. }));
    }
}
