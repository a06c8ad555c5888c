//! The vectorized operator library.
//!
//! What the AP engine ([`crate::mpp::MppExecutor`]) runs over each
//! [`RowBatch`]: the filter lanes, batch projection, the hash-join build
//! and probe, the hash-aggregation table, and the fused `Filter*/Project*`
//! stages of a scan leaf. There is no driver here — the engine decides
//! where batches come from and who consumes them. Hot inner loops run as
//! typed lane loops (comparisons, numeric arithmetic, hashed group/join
//! keys with collision verification); anything a typed loop can't express
//! falls back to scalar `Expr::eval` on a materialized row, so results are
//! byte-identical to the row engine (`operators::execute_plan`) — the
//! differential property tests in `tests/properties.rs` hold the engines
//! to exactly that.
//!
//! Key identity follows `Key::encode` (variant-tagged), not SQL `=`: the
//! hashed key slots replace the row engine's per-row `Vec<u8>` key
//! allocation and per-value clones without changing which rows group or
//! join together (NULL keys match, `Int(5)` and `Double(5.0)` stay
//! distinct).

use polardbx_columnar::{ColumnData, SlotIndex};
use polardbx_common::time::Timer;
use polardbx_common::{Error, Result, Row, Value};
use polardbx_sql::expr::{like_match, AggFunc, BinOp, Expr};
use polardbx_sql::plan::{split_conjuncts, AggSpec, LogicalPlan};

use crate::batch::{
    ident_eq, ident_hash_lanes, ident_hash_one, ident_hash_value, ident_hash_values,
    str_sql_cmp, Lane, RowBatch,
};
use crate::exec_metrics::exec_metrics;
use crate::operators::{numeric_result, AggState, ExecCtx};

// ------------------------------------------------------------------ filters

/// Map a comparison operator over an ordering, exactly as the row engine's
/// `eval_binary` does.
fn cmp_keep(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Neq => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("not a comparison"),
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Narrow `live` by one conjunct. Typed lane loops for the shapes they can
/// express with row-engine-identical semantics; scalar row evaluation
/// otherwise.
fn apply_conjunct(batch: &RowBatch, pred: &Expr, live: Vec<u32>) -> Result<Vec<u32>> {
    match pred {
        Expr::Binary { op, left, right } if is_cmp(*op) => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::ColumnIdx(c), Expr::Literal(v)) if *c < batch.width() => {
                    return filter_cmp_lane(batch.lane(*c), &live, *op, v);
                }
                (Expr::Literal(v), Expr::ColumnIdx(c)) if *c < batch.width() => {
                    return filter_cmp_lane(batch.lane(*c), &live, flip_cmp(*op), v);
                }
                (Expr::ColumnIdx(a), Expr::ColumnIdx(b))
                    if *a < batch.width() && *b < batch.width() =>
                {
                    return filter_cmp_lanes(batch.lane(*a), batch.lane(*b), &live, *op);
                }
                _ => {}
            }
            filter_scalar(batch, pred, &live)
        }
        Expr::InList { expr, list, negated } => {
            let members: Option<Vec<&Value>> = list
                .iter()
                .map(|m| match m {
                    Expr::Literal(v) => Some(v),
                    _ => None,
                })
                .collect();
            match (expr.as_ref(), members) {
                (Expr::ColumnIdx(c), Some(members)) if *c < batch.width() => {
                    Ok(filter_in_lane(batch.lane(*c), &live, &members, *negated))
                }
                _ => filter_scalar(batch, pred, &live),
            }
        }
        Expr::Between { expr, low, high } => {
            match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                (Expr::ColumnIdx(c), Expr::Literal(lo), Expr::Literal(hi))
                    if *c < batch.width() =>
                {
                    Ok(filter_between_lane(batch.lane(*c), &live, lo, hi))
                }
                _ => filter_scalar(batch, pred, &live),
            }
        }
        Expr::IsNull { expr, negated } => match expr.as_ref() {
            Expr::ColumnIdx(c) if *c < batch.width() => {
                let lane = batch.lane(*c);
                Ok(live
                    .into_iter()
                    .filter(|&i| lane.is_null(i as usize) != *negated)
                    .collect())
            }
            _ => filter_scalar(batch, pred, &live),
        },
        Expr::Like { expr, pattern } => match expr.as_ref() {
            Expr::ColumnIdx(c) if *c < batch.width() => {
                match batch.lane(*c).column() {
                    Some(ColumnData::Str(codes, nulls, dict)) => {
                        if live.iter().any(|&i| nulls[i as usize]) {
                            // The row engine calls `as_str()` on the value,
                            // which errors on NULL.
                            return Err(Error::execution(format!(
                                "expected string, got {}",
                                Value::Null
                            )));
                        }
                        // Prefix patterns reduce to starts_with.
                        let prefix = (pattern.ends_with('%')
                            && !pattern[..pattern.len() - 1].contains(['%', '_']))
                        .then(|| &pattern[..pattern.len() - 1]);
                        Ok(dict.select(codes, nulls, &live, false, |s| match prefix {
                            Some(p) => s.starts_with(p),
                            None => like_match(s, pattern),
                        }))
                    }
                    _ => filter_scalar(batch, pred, &live),
                }
            }
            _ => filter_scalar(batch, pred, &live),
        },
        _ => filter_scalar(batch, pred, &live),
    }
}

fn filter_cmp_lane(lane: &Lane, live: &[u32], op: BinOp, k: &Value) -> Result<Vec<u32>> {
    // NULL on either side of a comparison evaluates to NULL → not truthy.
    if k.is_null() {
        return Ok(Vec::new());
    }
    if let (Some(ColumnData::Str(codes, nulls, dict)), Value::Str(s)) = (lane.column(), k) {
        return Ok(dict.select(codes, nulls, live, false, |e| cmp_keep(op, e.cmp(s))));
    }
    let mut out = Vec::with_capacity(live.len());
    match (lane.column(), k) {
        (Some(ColumnData::Int(data, nulls)), Value::Int(x)) => {
            for &i in live {
                if !nulls[i as usize] && cmp_keep(op, data[i as usize].cmp(x)) {
                    out.push(i);
                }
            }
        }
        (Some(ColumnData::Int(data, nulls)), Value::Double(x)) => {
            // The row engine promotes Int vs Double to f64 (`sql_cmp`).
            for &i in live {
                if nulls[i as usize] {
                    continue;
                }
                if let Some(ord) = (data[i as usize] as f64).partial_cmp(x) {
                    if cmp_keep(op, ord) {
                        out.push(i);
                    }
                }
            }
        }
        (Some(ColumnData::Double(data, nulls)), Value::Int(_) | Value::Double(_)) => {
            let x = match k {
                Value::Int(v) => *v as f64,
                Value::Double(v) => *v,
                _ => unreachable!(),
            };
            for &i in live {
                if nulls[i as usize] {
                    continue;
                }
                if let Some(ord) = data[i as usize].partial_cmp(&x) {
                    if cmp_keep(op, ord) {
                        out.push(i);
                    }
                }
            }
        }
        (Some(ColumnData::Date(data, nulls)), Value::Date(d)) => {
            for &i in live {
                if !nulls[i as usize] && cmp_keep(op, data[i as usize].cmp(d)) {
                    out.push(i);
                }
            }
        }
        _ => {
            // Generic path: exact sql_cmp semantics; incomparable pairs are
            // an execution error like the row engine's.
            for &i in live {
                if lane.is_null(i as usize) {
                    continue;
                }
                match lane.sql_cmp_const(i as usize, k) {
                    Some(ord) => {
                        if cmp_keep(op, ord) {
                            out.push(i);
                        }
                    }
                    None => {
                        return Err(Error::execution(format!(
                            "cannot compare {} and {k}",
                            lane.get(i as usize)
                        )));
                    }
                }
            }
        }
    }
    Ok(out)
}

/// `col [NOT] IN (literals)` over one lane. The row engine tests members
/// with `Value ==`: NULL equals NULL, Int against Double compares
/// numerically, and an incomparable member is simply not equal — never an
/// error. A string lane tests each dictionary entry once when it can
/// (`Dictionary::select`).
fn filter_in_lane(lane: &Lane, live: &[u32], members: &[&Value], negated: bool) -> Vec<u32> {
    use std::cmp::Ordering::Equal;
    if let Some(ColumnData::Str(codes, nulls, dict)) = lane.column() {
        let nulls_pass = members.iter().any(|m| Value::Null.sql_cmp(m) == Some(Equal)) != negated;
        return dict.select(codes, nulls, live, nulls_pass, |s| {
            members.iter().any(|m| str_sql_cmp(s, m) == Some(Equal)) != negated
        });
    }
    live.iter()
        .copied()
        .filter(|&i| {
            let found = members.iter().any(|m| lane.sql_cmp_const(i as usize, m) == Some(Equal));
            found != negated
        })
        .collect()
}

/// `col BETWEEN lo AND hi` over one lane. BETWEEN is total in the row
/// engine: incomparable bounds are simply "no match", never an error. A
/// string lane tests each dictionary entry once when it can.
fn filter_between_lane(lane: &Lane, live: &[u32], lo: &Value, hi: &Value) -> Vec<u32> {
    use std::cmp::Ordering::{self, *};
    let within = |lo: Option<Ordering>, hi: Option<Ordering>| {
        matches!(lo, Some(Greater | Equal)) && matches!(hi, Some(Less | Equal))
    };
    if let Some(ColumnData::Str(codes, nulls, dict)) = lane.column() {
        let nulls_pass = within(Value::Null.sql_cmp(lo), Value::Null.sql_cmp(hi));
        return dict.select(codes, nulls, live, nulls_pass, |s| {
            within(str_sql_cmp(s, lo), str_sql_cmp(s, hi))
        });
    }
    live.iter()
        .copied()
        .filter(|&i| within(lane.sql_cmp_const(i as usize, lo), lane.sql_cmp_const(i as usize, hi)))
        .collect()
}

/// `left ⊗ right` over two lanes, with `eval_binary`'s semantics: a NULL
/// operand makes the comparison NULL (the row is dropped), Int against
/// Double compares numerically, and an incomparable pair is an execution
/// error. Two Int lanes (TPC-H's dates and keys) get a typed loop; every
/// other pair compares exact values.
fn filter_cmp_lanes(left: &Lane, right: &Lane, live: &[u32], op: BinOp) -> Result<Vec<u32>> {
    let mut out = Vec::with_capacity(live.len());
    if let (Some(ColumnData::Int(a, an)), Some(ColumnData::Int(b, bn))) =
        (left.column(), right.column())
    {
        for &i in live {
            let r = i as usize;
            if !an[r] && !bn[r] && cmp_keep(op, a[r].cmp(&b[r])) {
                out.push(i);
            }
        }
        return Ok(out);
    }
    for &i in live {
        let r = i as usize;
        if left.is_null(r) || right.is_null(r) {
            continue;
        }
        let rv = right.get(r);
        match left.sql_cmp_const(r, &rv) {
            Some(ord) => {
                if cmp_keep(op, ord) {
                    out.push(i);
                }
            }
            None => {
                return Err(Error::execution(format!(
                    "cannot compare {} and {rv}",
                    left.get(r)
                )));
            }
        }
    }
    Ok(out)
}

/// Scalar fallback: evaluate the predicate on materialized rows.
fn filter_scalar(batch: &RowBatch, pred: &Expr, live: &[u32]) -> Result<Vec<u32>> {
    let mut out = Vec::with_capacity(live.len());
    for &i in live {
        let row = batch.row_at(i as usize);
        if pred.eval_bool(&row)? {
            out.push(i);
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- projection

/// Project a batch. Pure column reorders clone lane `Arc`s; anything else
/// evaluates scalar per row.
pub(crate) fn apply_project_batch(batch: &RowBatch, exprs: &[Expr]) -> Result<RowBatch> {
    let all_pass = exprs
        .iter()
        .all(|e| matches!(e, Expr::ColumnIdx(c) if *c < batch.width()));
    if all_pass {
        let lanes = exprs
            .iter()
            .map(|e| match e {
                Expr::ColumnIdx(c) => batch.lanes()[*c].clone(),
                _ => unreachable!(),
            })
            .collect();
        return Ok(RowBatch::new(lanes, batch.sel().map(<[u32]>::to_vec)));
    }
    let live = batch.live_rows();
    let mut cols: Vec<Vec<Value>> =
        exprs.iter().map(|_| Vec::with_capacity(live.len())).collect();
    for &i in &live {
        let row = batch.row_at(i as usize);
        for (slot, e) in cols.iter_mut().zip(exprs) {
            slot.push(e.eval(&row)?);
        }
    }
    let lanes = cols.into_iter().map(|v| std::sync::Arc::new(Lane::from_values(v))).collect();
    Ok(RowBatch::new(lanes, None))
}

// -------------------------------------------------------------------- joins

/// End of a build-row chain.
const END: u32 = u32::MAX;

/// Build side of a hash join: a [`SlotIndex`] from key hash to a chain of
/// the build rows with that hash, in build order (a head and a tail per
/// chain, a next-link per row). A probe walks its hash's chain and
/// verifies each candidate against the stored row — no per-row key
/// allocation or value clones.
pub(crate) struct JoinBuild {
    rows: Vec<Row>,
    key_cols: Vec<usize>,
    index: SlotIndex,
    /// The first build row of each chain.
    heads: Vec<u32>,
    /// The next build row of the same chain, or [`END`].
    next: Vec<u32>,
}

impl JoinBuild {
    /// Hash `rows` on `key_cols`. NULL keys participate (they match other
    /// NULLs), exactly like the row engine's encoded keys.
    pub(crate) fn build(rows: Vec<Row>, key_cols: Vec<usize>) -> Result<JoinBuild> {
        let mut index = SlotIndex::new();
        let (mut heads, mut tails): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        let mut next = vec![END; rows.len()];
        for (idx, row) in rows.iter().enumerate() {
            let hash = if let [c] = key_cols.as_slice() {
                ident_hash_one(row.get(*c)?)
            } else {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                for &c in &key_cols {
                    ident_hash_value(row.get(c)?, &mut h);
                }
                std::hash::Hasher::finish(&h)
            };
            match index.find(hash, |_| true) {
                Some(chain) => {
                    let tail = &mut tails[chain as usize];
                    next[*tail as usize] = idx as u32;
                    *tail = idx as u32;
                }
                None => {
                    index.insert(hash, heads.len() as u32);
                    heads.push(idx as u32);
                    tails.push(idx as u32);
                }
            }
        }
        Ok(JoinBuild { rows, key_cols, index, heads, next })
    }

    /// Number of build rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Probe one batch; `probe_cols` are the right-side key positions. The
    /// caller ticks the batch's rows.
    pub(crate) fn probe_batch(
        &self,
        batch: &RowBatch,
        probe_cols: &[usize],
        filter: Option<&Expr>,
    ) -> Result<Vec<Row>> {
        for &c in probe_cols {
            if c >= batch.width() {
                return Err(Error::execution(format!("column index {c} out of range")));
            }
        }
        let mut out = Vec::new();
        for &i in &batch.live_rows() {
            let phys = i as usize;
            let hash = ident_hash_lanes(batch.lanes(), probe_cols, phys);
            let Some(chain) = self.index.find(hash, |_| true) else {
                continue;
            };
            let mut right_row: Option<Row> = None;
            let mut b = self.heads[chain as usize];
            while b != END {
                let build_row = &self.rows[b as usize];
                b = self.next[b as usize];
                let matches = self.key_cols.iter().zip(probe_cols).all(|(&lc, &rc)| {
                    build_row.get(lc).map(|v| batch.lane(rc).ident_eq(phys, v)).unwrap_or(false)
                });
                if !matches {
                    continue;
                }
                let right = right_row.get_or_insert_with(|| batch.row_at(phys));
                let joined = build_row.concat(right);
                if match filter {
                    Some(f) => f.eval_bool(&joined)?,
                    None => true,
                } {
                    out.push(joined);
                }
            }
        }
        Ok(out)
    }
}

// -------------------------------------------------------------- aggregation

/// Numeric vector: the typed result of evaluating an arithmetic expression
/// over a batch. Int stays exact (wrapping ops, like the row engine); any
/// Double operand promotes the whole vector.
enum NumVec {
    Int(Vec<i64>),
    Double(Vec<f64>),
}

/// Evaluate `e` over the live rows of `batch` as a typed numeric vector
/// with a null mask, or `None` when the expression (or a referenced lane)
/// is outside the strictly-replicable subset (Add/Sub/Mul over Int/Double
/// lanes and numeric literals).
fn eval_num(e: &Expr, batch: &RowBatch, live: &[u32]) -> Option<(NumVec, Vec<bool>)> {
    match e {
        Expr::Literal(Value::Int(x)) => {
            Some((NumVec::Int(vec![*x; live.len()]), vec![false; live.len()]))
        }
        Expr::Literal(Value::Double(x)) => {
            Some((NumVec::Double(vec![*x; live.len()]), vec![false; live.len()]))
        }
        Expr::ColumnIdx(c) if *c < batch.width() => match batch.lane(*c).column() {
            Some(ColumnData::Int(data, nulls)) => Some((
                NumVec::Int(live.iter().map(|&i| data[i as usize]).collect()),
                live.iter().map(|&i| nulls[i as usize]).collect(),
            )),
            Some(ColumnData::Double(data, nulls)) => Some((
                NumVec::Double(live.iter().map(|&i| data[i as usize]).collect()),
                live.iter().map(|&i| nulls[i as usize]).collect(),
            )),
            _ => None,
        },
        Expr::Binary { op, left, right }
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
        {
            let (l, ln) = eval_num(left, batch, live)?;
            let (r, rn) = eval_num(right, batch, live)?;
            let nulls: Vec<bool> = ln.iter().zip(&rn).map(|(a, b)| *a || *b).collect();
            let v = match (l, r) {
                (NumVec::Int(a), NumVec::Int(b)) => NumVec::Int(
                    a.iter()
                        .zip(&b)
                        .map(|(x, y)| match op {
                            BinOp::Add => x.wrapping_add(*y),
                            BinOp::Sub => x.wrapping_sub(*y),
                            BinOp::Mul => x.wrapping_mul(*y),
                            _ => unreachable!(),
                        })
                        .collect(),
                ),
                (l, r) => {
                    let a = to_f64(l);
                    let b = to_f64(r);
                    NumVec::Double(
                        a.iter()
                            .zip(&b)
                            .map(|(x, y)| match op {
                                BinOp::Add => x + y,
                                BinOp::Sub => x - y,
                                BinOp::Mul => x * y,
                                _ => unreachable!(),
                            })
                            .collect(),
                    )
                }
            };
            Some((v, nulls))
        }
        _ => None,
    }
}

fn to_f64(v: NumVec) -> Vec<f64> {
    match v {
        NumVec::Int(a) => a.into_iter().map(|x| x as f64).collect(),
        NumVec::Double(a) => a,
    }
}

/// How one group-key column is read per row.
enum KeyPlan<'a> {
    Lane(&'a Lane),
    /// Evaluated, one value per live row.
    Vals(Vec<Value>),
}

/// How one aggregate argument is read per row.
enum ArgPlan<'a> {
    Star,
    Lane(&'a Lane),
    Num(NumVec, Vec<bool>),
    /// Evaluated, one value per live row.
    Vals(Vec<Value>),
}

/// Is `spec` a non-DISTINCT COUNT / SUM / AVG — an aggregate that keeps
/// only a count, a sum and an all-Int flag?
fn is_numeric(spec: &AggSpec) -> bool {
    !spec.distinct && matches!(spec.func, AggFunc::Count | AggFunc::Sum | AggFunc::Avg)
}

/// One group's state of a numeric aggregate ([`is_numeric`]): the row
/// engine's count, sum and all-Int flag.
#[derive(Clone, Copy)]
struct NumState {
    count: u64,
    sum: f64,
    int_only: bool,
}

impl NumState {
    const EMPTY: NumState = NumState { count: 0, sum: 0.0, int_only: true };

    /// Fold one value as `AggState::update` does.
    fn add(&mut self, v: &Value) {
        match v {
            Value::Null => {}
            Value::Int(x) => self.add_num(*x as f64, true),
            Value::Double(x) => self.add_num(*x, false),
            // `as_double` fails: only the count moves.
            _ => self.count += 1,
        }
    }

    fn add_num(&mut self, d: f64, int: bool) {
        self.count += 1;
        self.sum += d;
        self.int_only &= int;
    }
}

/// One aggregate's state for every group, indexed by group id.
enum AggColumn {
    /// A numeric aggregate ([`is_numeric`]).
    Num(Vec<NumState>),
    /// MIN / MAX and DISTINCT: the row engine's state.
    State(Vec<AggState>),
}

impl AggColumn {
    fn new(spec: &AggSpec) -> AggColumn {
        if is_numeric(spec) {
            AggColumn::Num(Vec::new())
        } else {
            AggColumn::State(Vec::new())
        }
    }

    fn push_group(&mut self, spec: &AggSpec) {
        match self {
            AggColumn::Num(st) => st.push(NumState::EMPTY),
            AggColumn::State(st) => st.push(AggState::new(spec)),
        }
    }

    /// Pass two: fold the argument of every live row into its group, in
    /// row order. `gids[pos]` is the group of `live[pos]`.
    fn fold(&mut self, arg: &ArgPlan, live: &[u32], gids: &[u32]) {
        let rows = || gids.iter().map(|&g| g as usize).zip(live.iter().map(|&i| i as usize));
        match (self, arg) {
            (AggColumn::Num(st), ArgPlan::Star) => {
                for &g in gids {
                    st[g as usize].count += 1;
                }
            }
            (AggColumn::Num(st), ArgPlan::Lane(lane)) => match lane.column() {
                Some(ColumnData::Int(d, n)) => {
                    for (g, i) in rows() {
                        if !n[i] {
                            st[g].add_num(d[i] as f64, true);
                        }
                    }
                }
                Some(ColumnData::Double(d, n)) => {
                    for (g, i) in rows() {
                        if !n[i] {
                            st[g].add_num(d[i], false);
                        }
                    }
                }
                // Strings and dates: `as_double` fails, only the count moves.
                Some(c) => {
                    for (g, i) in rows() {
                        if !c.is_null(i) {
                            st[g].count += 1;
                        }
                    }
                }
                None => {
                    for (g, i) in rows() {
                        st[g].add(lane.value_ref(i).expect("a value lane"));
                    }
                }
            },
            (AggColumn::Num(st), ArgPlan::Num(v, nulls)) => {
                for (pos, &g) in gids.iter().enumerate() {
                    if nulls[pos] {
                        continue;
                    }
                    match v {
                        NumVec::Int(d) => st[g as usize].add_num(d[pos] as f64, true),
                        NumVec::Double(d) => st[g as usize].add_num(d[pos], false),
                    }
                }
            }
            (AggColumn::Num(st), ArgPlan::Vals(vals)) => {
                for (&g, v) in gids.iter().zip(vals) {
                    st[g as usize].add(v);
                }
            }
            (AggColumn::State(st), ArgPlan::Star) => {
                for &g in gids {
                    st[g as usize].update(None);
                }
            }
            (AggColumn::State(st), ArgPlan::Lane(lane)) => {
                for (g, i) in rows() {
                    if !lane.is_null(i) {
                        st[g].update(Some(&lane.get(i)));
                    }
                }
            }
            (AggColumn::State(st), ArgPlan::Vals(vals)) => {
                for (&g, v) in gids.iter().zip(vals) {
                    st[g as usize].update(Some(v));
                }
            }
            (AggColumn::State(_), ArgPlan::Num(..)) => {
                unreachable!("a numeric vector feeds only a numeric aggregate")
            }
        }
    }

    /// Merge group `og` of `other`, a partial of the same aggregate, into
    /// group `into`, or append it as a new group.
    fn absorb(&mut self, into: Option<usize>, other: &AggColumn, og: usize) {
        match (self, other) {
            (AggColumn::Num(mine), AggColumn::Num(theirs)) => {
                let t = theirs[og];
                match into {
                    Some(g) => {
                        let m = &mut mine[g];
                        m.count += t.count;
                        m.sum += t.sum;
                        m.int_only &= t.int_only;
                    }
                    None => mine.push(t),
                }
            }
            (AggColumn::State(mine), AggColumn::State(theirs)) => match into {
                Some(g) => mine[g].merge(&theirs[og]),
                None => mine.push(theirs[og].clone()),
            },
            _ => unreachable!("partials of one aggregate"),
        }
    }

    fn finish(&self, g: usize, func: AggFunc) -> Value {
        match self {
            AggColumn::Num(st) => numeric_result(func, st[g].count, st[g].sum, st[g].int_only),
            AggColumn::State(st) => st[g].finish(),
        }
    }
}

/// Group ids by code tuple, for a batch whose keys are all dictionary-coded
/// strings: each distinct tuple is resolved once. A key's radix is its
/// dictionary's size plus one, digit 0 for NULL.
struct CodeMemo<'a> {
    /// `(codes, nulls, stride)` per key.
    keys: Vec<(&'a [u32], &'a [bool], usize)>,
    gids: Vec<u32>,
}

/// A [`CodeMemo`] slot not resolved yet.
const UNRESOLVED: u32 = u32::MAX;

impl<'a> CodeMemo<'a> {
    /// `None` unless every key is a coded lane and the code tuples number
    /// no more than the `rows` the batch folds.
    fn new(keys: &[KeyPlan<'a>], rows: usize) -> Option<CodeMemo<'a>> {
        let mut parts = Vec::with_capacity(keys.len());
        let mut stride = 1usize;
        for key in keys {
            let &KeyPlan::Lane(lane) = key else {
                return None;
            };
            let Some(ColumnData::Str(codes, nulls, dict)) = lane.column() else {
                return None;
            };
            parts.push((codes.as_slice(), nulls.as_slice(), stride));
            stride = stride.checked_mul(dict.len() + 1).filter(|&n| n <= rows)?;
        }
        Some(CodeMemo { keys: parts, gids: vec![UNRESOLVED; stride] })
    }

    fn slot(&self, i: usize) -> usize {
        self.keys
            .iter()
            .map(|&(codes, nulls, stride)| if nulls[i] { 0 } else { (codes[i] as usize + 1) * stride })
            .sum()
    }
}

/// Hash-aggregation over batches. Each batch folds in two passes: the
/// group id of every row — hashed straight out of the lanes and verified
/// against the group's stored key values, or, when every key is a coded
/// string, resolved once per distinct code tuple — then one typed loop per
/// aggregate over its flat per-group state array. Group keys are stored,
/// hashed and merged as `Value`s; group identity matches `Key::encode`
/// exactly, and each group adds its values in row order.
pub struct VecAggTable {
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    index: SlotIndex,
    keys: Vec<Vec<Value>>,
    /// One column per aggregate.
    states: Vec<AggColumn>,
}

impl VecAggTable {
    /// Empty table for the given grouping.
    pub fn new(group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> VecAggTable {
        let states = aggs.iter().map(AggColumn::new).collect();
        VecAggTable { group_by, aggs, index: SlotIndex::new(), keys: Vec::new(), states }
    }

    /// Fold one batch. The caller ticks its rows.
    pub fn update_batch(&mut self, batch: &RowBatch) -> Result<()> {
        let live = batch.live_rows();
        let mut keys: Vec<KeyPlan> = self
            .group_by
            .iter()
            .map(|g| match g {
                Expr::ColumnIdx(c) if *c < batch.width() => KeyPlan::Lane(batch.lane(*c)),
                _ => KeyPlan::Vals(Vec::with_capacity(live.len())),
            })
            .collect();
        let mut args: Vec<ArgPlan> = self
            .aggs
            .iter()
            .map(|spec| match &spec.arg {
                None => ArgPlan::Star,
                Some(Expr::ColumnIdx(c)) if *c < batch.width() => ArgPlan::Lane(batch.lane(*c)),
                Some(e) => match is_numeric(spec).then(|| eval_num(e, batch, &live)).flatten() {
                    Some((v, nulls)) => ArgPlan::Num(v, nulls),
                    None => ArgPlan::Vals(Vec::with_capacity(live.len())),
                },
            })
            .collect();
        self.eval_rows(batch, &live, &mut keys, &mut args)?;
        let gids = self.group_ids(&keys, &live);
        for (column, arg) in self.states.iter_mut().zip(&args) {
            column.fold(arg, &live, &gids);
        }
        Ok(())
    }

    /// Evaluate, row by row, the keys and arguments no lane loop covers.
    fn eval_rows(
        &self,
        batch: &RowBatch,
        live: &[u32],
        keys: &mut [KeyPlan],
        args: &mut [ArgPlan],
    ) -> Result<()> {
        let mut evals: Vec<(&Expr, &mut Vec<Value>)> = Vec::new();
        for (e, key) in self.group_by.iter().zip(keys) {
            if let KeyPlan::Vals(out) = key {
                evals.push((e, out));
            }
        }
        for (spec, arg) in self.aggs.iter().zip(args) {
            if let (Some(e), ArgPlan::Vals(out)) = (&spec.arg, arg) {
                evals.push((e, out));
            }
        }
        if evals.is_empty() {
            return Ok(());
        }
        for &i in live {
            let row = batch.row_at(i as usize);
            for (e, out) in &mut evals {
                out.push(e.eval(&row)?);
            }
        }
        Ok(())
    }

    /// Pass one: the group id of every live row, new groups created in row
    /// order.
    fn group_ids(&mut self, keys: &[KeyPlan], live: &[u32]) -> Vec<u32> {
        let mut gids = Vec::with_capacity(live.len());
        match CodeMemo::new(keys, live.len()) {
            Some(mut memo) => {
                for (pos, &i) in live.iter().enumerate() {
                    let slot = memo.slot(i as usize);
                    if memo.gids[slot] == UNRESOLVED {
                        memo.gids[slot] = self.resolve(keys, pos, i as usize);
                    }
                    gids.push(memo.gids[slot]);
                }
            }
            None => {
                for (pos, &i) in live.iter().enumerate() {
                    gids.push(self.resolve(keys, pos, i as usize));
                }
            }
        }
        gids
    }

    /// The group of live row `pos` (physical row `phys`), created when new.
    /// Single-column keys take the direct-mix hash (consistent with
    /// `ident_hash_values`, which `merge` uses on stored keys).
    fn resolve(&mut self, keys: &[KeyPlan], pos: usize, phys: usize) -> u32 {
        let hash = match keys {
            [KeyPlan::Lane(lane)] => lane.ident_hash_row(phys),
            [KeyPlan::Vals(v)] => ident_hash_one(&v[pos]),
            _ => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                for key in keys {
                    match key {
                        KeyPlan::Lane(lane) => lane.ident_hash(phys, &mut h),
                        KeyPlan::Vals(v) => ident_hash_value(&v[pos], &mut h),
                    }
                }
                std::hash::Hasher::finish(&h)
            }
        };
        let stored = &self.keys;
        let found = self.index.find(hash, |g| {
            keys.iter().zip(&stored[g as usize]).all(|(key, s)| match key {
                KeyPlan::Lane(lane) => lane.ident_eq(phys, s),
                KeyPlan::Vals(v) => ident_eq(&v[pos], s),
            })
        });
        if let Some(g) = found {
            return g;
        }
        let g = self.keys.len() as u32;
        self.index.insert(hash, g);
        self.keys.push(
            keys.iter()
                .map(|key| match key {
                    KeyPlan::Lane(lane) => lane.get(phys),
                    KeyPlan::Vals(v) => v[pos].clone(),
                })
                .collect(),
        );
        for (column, spec) in self.states.iter_mut().zip(&self.aggs) {
            column.push_group(spec);
        }
        g
    }

    /// Merge a partial table from another morsel worker.
    pub fn merge(&mut self, other: VecAggTable) {
        for (og, key) in other.keys.into_iter().enumerate() {
            let hash = ident_hash_values(&key);
            let keys = &self.keys;
            let found = self.index.find(hash, |g| {
                keys[g as usize].iter().zip(&key).all(|(a, b)| ident_eq(a, b))
            });
            let into = match found {
                Some(g) => Some(g as usize),
                None => {
                    self.index.insert(hash, self.keys.len() as u32);
                    self.keys.push(key);
                    None
                }
            };
            for (mine, theirs) in self.states.iter_mut().zip(&other.states) {
                mine.absorb(into, theirs, og);
            }
        }
    }

    /// Produce the output rows. A global aggregate over zero rows yields
    /// one row of aggregate defaults, like the row engine.
    pub fn finish(self) -> Result<Vec<Row>> {
        if self.group_by.is_empty() && self.keys.is_empty() {
            let states: Vec<AggState> = self.aggs.iter().map(AggState::new).collect();
            return Ok(vec![Row::new(states.iter().map(AggState::finish).collect())]);
        }
        let mut out = Vec::with_capacity(self.keys.len());
        for (g, key) in self.keys.into_iter().enumerate() {
            let mut row = key;
            row.extend(self.states.iter().zip(&self.aggs).map(|(c, spec)| c.finish(g, spec.func)));
            out.push(Row::new(row));
        }
        Ok(out)
    }
}

// ------------------------------------------- fused stages (morsel units)

/// One fused pipeline stage.
pub(crate) enum StageOp {
    Filter(Vec<Expr>),
    Project(Vec<Expr>),
}

/// Peel the `Filter*/Project*` nodes off the top of `plan`: the node they
/// sit on, and the peeled nodes as bottom-up stages — the unit a morsel
/// worker runs over each batch.
pub(crate) fn pipeline_stages(plan: &LogicalPlan) -> (&LogicalPlan, Vec<StageOp>) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (base, mut stages) = pipeline_stages(input);
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            stages.push(StageOp::Filter(conjuncts));
            (base, stages)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let (base, mut stages) = pipeline_stages(input);
            stages.push(StageOp::Project(exprs.clone()));
            (base, stages)
        }
        base => (base, Vec::new()),
    }
}

/// Run the fused stages over one batch.
pub(crate) fn run_stages(
    mut batch: RowBatch,
    stages: &[StageOp],
    ctx: &ExecCtx,
) -> Result<RowBatch> {
    for stage in stages {
        ctx.tick(batch.num_rows() as u64)?;
        match stage {
            StageOp::Filter(conjuncts) => {
                let t0 = Timer::start();
                let mut live = batch.live_rows();
                for c in conjuncts {
                    if live.is_empty() {
                        break;
                    }
                    live = apply_conjunct(&batch, c, live)?;
                }
                batch = batch.with_sel(live);
                exec_metrics()
                    .filter
                    .record(batch.num_rows() as u64, batch.bytes() as u64, t0);
            }
            StageOp::Project(exprs) => {
                let t0 = Timer::start();
                batch = apply_project_batch(&batch, exprs)?;
                exec_metrics()
                    .project
                    .record(batch.num_rows() as u64, batch.bytes() as u64, t0);
            }
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpp::MppExecutor;
    use crate::operators::{execute_plan, MemTables, TableProvider};
    use std::sync::Arc;

    fn provider() -> MemTables {
        let mut p = MemTables::new();
        let rows: Vec<Row> = (0..100i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    if i % 7 == 0 { Value::Null } else { Value::Int(i % 3) },
                    Value::Double(i as f64 * 0.5),
                    Value::str(format!("s{}", i % 5)),
                ])
            })
            .collect();
        let (a, b) = rows.split_at(60);
        p.add("t", vec![a.to_vec(), b.to_vec()]);
        p
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: vec!["t.id".into(), "t.g".into(), "t.d".into(), "t.s".into()],
        }
    }

    /// The AP engine, serial and fanned out, against the row engine.
    fn assert_same_over(p: MemTables, plan: &LogicalPlan) -> Vec<Row> {
        let p: Arc<dyn TableProvider> = Arc::new(p);
        let ctx = ExecCtx::unrestricted();
        let key = |r: &Row| format!("{r:?}");
        let mut slow = execute_plan(plan, p.as_ref(), &ctx).unwrap();
        slow.sort_by_key(key);
        for workers in [1, 4] {
            let mut fast = MppExecutor::new(workers).execute(plan, &p, &ctx).unwrap();
            fast.sort_by_key(key);
            assert_eq!(slow, fast, "{workers} workers");
        }
        slow
    }

    fn assert_same(plan: &LogicalPlan) {
        assert_same_over(provider(), plan);
    }

    #[test]
    fn filter_matches_row_engine() {
        assert_same(&LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::binary(BinOp::Ge, Expr::ColumnIdx(0), Expr::int(37)),
        });
        // Double constant against an Int lane (promotes, no truncation).
        assert_same(&LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::binary(
                BinOp::Lt,
                Expr::ColumnIdx(0),
                Expr::Literal(Value::Double(10.5)),
            ),
        });
    }

    #[test]
    fn aggregate_with_null_group_keys_matches_row_engine() {
        assert_same(&LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![Expr::ColumnIdx(1)],
            aggs: vec![
                AggSpec { func: AggFunc::Count, arg: None, distinct: false },
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Expr::binary(
                        BinOp::Mul,
                        Expr::ColumnIdx(0),
                        Expr::ColumnIdx(0),
                    )),
                    distinct: false,
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(Expr::ColumnIdx(2)),
                    distinct: false,
                },
            ],
            names: vec!["g".into(), "c".into(), "s".into(), "m".into()],
        });
    }

    #[test]
    fn join_with_null_keys_matches_row_engine() {
        // NULL join keys match each other in the row engine's encoded-key
        // table; the hashed-slot table must reproduce that.
        let plan = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            on: vec![(1, 1)],
            filter: Some(Expr::binary(BinOp::Lt, Expr::ColumnIdx(0), Expr::int(20))),
        };
        assert_same(&plan);
    }

    #[test]
    fn sort_limit_project_matches_row_engine() {
        assert_same(&LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Project {
                    input: Box::new(scan()),
                    exprs: vec![
                        Expr::ColumnIdx(0),
                        Expr::binary(BinOp::Add, Expr::ColumnIdx(2), Expr::int(1)),
                    ],
                    names: vec!["id".into(), "d1".into()],
                }),
                keys: vec![(Expr::ColumnIdx(1), true), (Expr::ColumnIdx(0), false)],
            }),
            n: 7,
        });
    }

    #[test]
    fn int_and_double_group_keys_stay_distinct() {
        let mut p = MemTables::new();
        p.add(
            "m",
            vec![vec![
                Row::new(vec![Value::Int(5), Value::Int(1)]),
                Row::new(vec![Value::Double(5.0), Value::Int(2)]),
                Row::new(vec![Value::Int(5), Value::Int(4)]),
            ]],
        );
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "m".into(),
                schema: vec!["m.k".into(), "m.v".into()],
            }),
            group_by: vec![Expr::ColumnIdx(0)],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Expr::ColumnIdx(1)),
                distinct: false,
            }],
            names: vec!["k".into(), "s".into()],
        };
        let rows = assert_same_over(p, &plan);
        assert_eq!(rows.len(), 2, "Int(5) and Double(5.0) are distinct keys");
    }

    #[test]
    fn numeric_aggregates_over_mixed_values_match_row_engine() {
        // A column mixing Int, Double, Str and NULL is a value lane: each
        // value folds as the row engine's `AggState::update` folds it (a
        // string counts but adds nothing; a Double makes SUM a Double).
        let mut p = MemTables::new();
        let vals = [Value::Int(2), Value::Double(0.5), Value::str("x"), Value::Null, Value::Int(3)];
        let rows = vals
            .iter()
            .enumerate()
            .map(|(i, v)| Row::new(vec![Value::Int(i as i64 % 2), v.clone()]))
            .collect();
        p.add("m", vec![rows]);
        let agg = |func| AggSpec { func, arg: Some(Expr::ColumnIdx(1)), distinct: false };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "m".into(),
                schema: vec!["m.g".into(), "m.v".into()],
            }),
            group_by: vec![Expr::ColumnIdx(0)],
            aggs: vec![agg(AggFunc::Count), agg(AggFunc::Sum), agg(AggFunc::Avg)],
            names: vec!["g".into(), "c".into(), "s".into(), "a".into()],
        };
        let rows = assert_same_over(p, &plan);
        let sums: Vec<(Value, Value)> =
            rows.iter().map(|r| (r.get(1).unwrap().clone(), r.get(2).unwrap().clone())).collect();
        assert!(sums.contains(&(Value::Int(3), Value::Int(5))), "2, 'x', 3: {rows:?}");
        assert!(sums.contains(&(Value::Int(1), Value::Double(0.5))), "0.5, NULL: {rows:?}");
    }

    #[test]
    fn incomparable_filter_errors_like_row_engine() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::binary(
                BinOp::Gt,
                Expr::ColumnIdx(3),
                Expr::int(1),
            ),
        };
        let p: Arc<dyn TableProvider> = Arc::new(provider());
        let ctx = ExecCtx::unrestricted();
        assert!(execute_plan(&plan, p.as_ref(), &ctx).is_err());
        for workers in [1, 4] {
            assert!(MppExecutor::new(workers).execute(&plan, &p, &ctx).is_err());
        }
    }
}
