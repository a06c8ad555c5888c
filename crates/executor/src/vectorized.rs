//! The vectorized operator library.
//!
//! What the AP engine ([`crate::mpp::MppExecutor`]) runs over each
//! [`RowBatch`]: the filter lanes, batch projection, the hash-join build
//! and probe, the hash-aggregation table, the sort and the limit, and the
//! fused `Filter*/Project*/probe` stages a morsel worker runs. There is no
//! driver here — the engine decides where batches come from and who
//! consumes them. Every operator takes batches and gives batches: a join
//! gathers its output lanes, an aggregate finishes into lanes, a sort is a
//! selection vector, so rows are built once, at the answer. Hot inner
//! loops run as typed lane loops (comparisons, numeric arithmetic and
//! CASE, hashed group/join keys with collision verification); anything a
//! typed loop can't express falls back to scalar `Expr::eval` on
//! materialized rows (counted in [`crate::ExecMetrics::materialized`]), so
//! results are byte-identical to the row engine (`operators::execute_plan`)
//! — the differential property tests in `tests/properties.rs` hold the
//! engines to exactly that.
//!
//! Key identity follows `Key::encode` (variant-tagged), not SQL `=`: the
//! hashed key slots replace the row engine's per-row `Vec<u8>` key
//! allocation and per-value clones without changing which rows group or
//! join together (NULL keys match, `Int(5)` and `Double(5.0)` stay
//! distinct).

use std::sync::Arc;

use polardbx_columnar::{ColumnData, SlotIndex};
use polardbx_common::time::Timer;
use polardbx_common::{Error, Result, Value};
use polardbx_sql::expr::{like_match, AggFunc, BinOp, Expr};
use polardbx_sql::plan::{split_conjuncts, AggSpec, LogicalPlan};

use crate::batch::{
    hash_keys, int_hash, key_hash, str_sql_cmp, KeyCol, Lane, LaneBuilder, RowBatch, NULL_HASH,
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
        // `eval`'s short circuits: the right side sees only the rows the
        // left side did not decide.
        Expr::Binary { op: BinOp::And, left, right } => {
            let live = apply_conjunct(batch, left, live)?;
            if live.is_empty() {
                return Ok(live);
            }
            apply_conjunct(batch, right, live)
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let pass = apply_conjunct(batch, left, live.clone())?;
            let rest = minus(&live, &pass);
            if rest.is_empty() {
                return Ok(pass);
            }
            let more = apply_conjunct(batch, right, rest)?;
            Ok(union_in_order(&live, &pass, &more))
        }
        Expr::Not(e) => {
            let pass = apply_conjunct(batch, e, live.clone())?;
            Ok(minus(&live, &pass))
        }
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
                Ok(select(&live, |i| lane.is_null(i) != *negated))
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
    match (lane.column(), k) {
        (Some(ColumnData::Int(d, n)), Value::Int(x)) => {
            return Ok(select_cmp(live, op, n, |i| d[i], *x))
        }
        // The row engine promotes Int vs Double to f64 (`sql_cmp`).
        (Some(ColumnData::Int(d, n)), Value::Double(x)) => {
            return Ok(select_cmp(live, op, n, |i| d[i] as f64, *x))
        }
        (Some(ColumnData::Double(d, n)), Value::Int(x)) => {
            return Ok(select_cmp(live, op, n, |i| d[i], *x as f64))
        }
        (Some(ColumnData::Double(d, n)), Value::Double(x)) => {
            return Ok(select_cmp(live, op, n, |i| d[i], *x))
        }
        (Some(ColumnData::Date(d, n)), Value::Date(x)) => {
            return Ok(select_cmp(live, op, n, |i| d[i], *x))
        }
        _ => {}
    }
    // Generic path: exact sql_cmp semantics; incomparable pairs are an
    // execution error like the row engine's.
    let mut out = Vec::with_capacity(live.len());
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
    Ok(out)
}

/// The ids of `live` whose row passes `keep`, written without a branch
/// per row.
fn select(live: &[u32], keep: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; live.len()];
    let mut n = 0;
    for &i in live {
        out[n] = i;
        n += keep(i as usize) as usize;
    }
    out.truncate(n);
    out
}

/// The non-NULL rows of `live` whose value `v(i)` stands in `op` to `k`,
/// `op` matched once, outside the loop. A comparison with NaN holds for
/// no operator, `!=` included, as `partial_cmp` decides it.
fn select_cmp<T: PartialOrd + Copy>(
    live: &[u32],
    op: BinOp,
    nulls: &[bool],
    v: impl Fn(usize) -> T,
    k: T,
) -> Vec<u32> {
    match op {
        BinOp::Eq => select(live, |i| !nulls[i] & (v(i) == k)),
        BinOp::Neq => select(live, |i| !nulls[i] & ((v(i) < k) | (v(i) > k))),
        BinOp::Lt => select(live, |i| !nulls[i] & (v(i) < k)),
        BinOp::Le => select(live, |i| !nulls[i] & (v(i) <= k)),
        BinOp::Gt => select(live, |i| !nulls[i] & (v(i) > k)),
        BinOp::Ge => select(live, |i| !nulls[i] & (v(i) >= k)),
        _ => unreachable!("not a comparison"),
    }
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
/// string lane tests each dictionary entry once when it can; an Int or
/// Double lane between numeric bounds runs a typed loop.
fn filter_between_lane(lane: &Lane, live: &[u32], lo: &Value, hi: &Value) -> Vec<u32> {
    use std::cmp::Ordering::{self, *};
    let within = |lo: Option<Ordering>, hi: Option<Ordering>| {
        matches!(lo, Some(Greater | Equal)) && matches!(hi, Some(Less | Equal))
    };
    // A NULL row is below every numeric bound (`sql_cmp`): it never passes
    // the typed loops.
    match (lane.column(), Bound::of(lo), Bound::of(hi)) {
        (Some(ColumnData::Str(codes, nulls, dict)), _, _) => {
            let nulls_pass = within(Value::Null.sql_cmp(lo), Value::Null.sql_cmp(hi));
            return dict.select(codes, nulls, live, nulls_pass, |s| {
                within(str_sql_cmp(s, lo), str_sql_cmp(s, hi))
            });
        }
        (Some(ColumnData::Int(d, n)), Some(lo), Some(hi)) => {
            return select(live, |i| !n[i] & lo.int_at_most(d[i]) & hi.int_at_least(d[i]));
        }
        (Some(ColumnData::Double(d, n)), Some(lo), Some(hi)) => {
            let (lo, hi) = (lo.f64(), hi.f64());
            return select(live, |i| !n[i] & (d[i] >= lo) & (d[i] <= hi));
        }
        _ => {}
    }
    live.iter()
        .copied()
        .filter(|&i| within(lane.sql_cmp_const(i as usize, lo), lane.sql_cmp_const(i as usize, hi)))
        .collect()
}

/// A numeric BETWEEN bound, compared as `sql_cmp` compares: an Int row
/// exactly against an Int bound and as `f64` against a Double one; a
/// Double row always as `f64` (NaN is within nothing).
#[derive(Clone, Copy)]
enum Bound {
    Int(i64),
    Double(f64),
}

impl Bound {
    fn of(v: &Value) -> Option<Bound> {
        match v {
            Value::Int(x) => Some(Bound::Int(*x)),
            Value::Double(x) => Some(Bound::Double(*x)),
            _ => None,
        }
    }

    fn f64(self) -> f64 {
        match self {
            Bound::Int(b) => b as f64,
            Bound::Double(b) => b,
        }
    }

    /// `self <= x` for an Int row `x`.
    fn int_at_most(self, x: i64) -> bool {
        match self {
            Bound::Int(b) => b <= x,
            Bound::Double(b) => b <= x as f64,
        }
    }

    /// `self >= x` for an Int row `x`.
    fn int_at_least(self, x: i64) -> bool {
        match self {
            Bound::Int(b) => b >= x,
            Bound::Double(b) => b >= x as f64,
        }
    }
}

/// `left ⊗ right` over two lanes, with `eval_binary`'s semantics: a NULL
/// operand makes the comparison NULL (the row is dropped), Int against
/// Double compares numerically, and an incomparable pair is an execution
/// error. Two Int lanes (TPC-H's dates and keys) get a typed loop; every
/// other pair compares exact values.
fn filter_cmp_lanes(left: &Lane, right: &Lane, live: &[u32], op: BinOp) -> Result<Vec<u32>> {
    if let (Some(ColumnData::Int(a, an)), Some(ColumnData::Int(b, bn))) =
        (left.column(), right.column())
    {
        let nulls = |i: usize| an[i] | bn[i];
        return Ok(match op {
            BinOp::Eq => select(live, |i| !nulls(i) & (a[i] == b[i])),
            BinOp::Neq => select(live, |i| !nulls(i) & (a[i] != b[i])),
            BinOp::Lt => select(live, |i| !nulls(i) & (a[i] < b[i])),
            BinOp::Le => select(live, |i| !nulls(i) & (a[i] <= b[i])),
            BinOp::Gt => select(live, |i| !nulls(i) & (a[i] > b[i])),
            BinOp::Ge => select(live, |i| !nulls(i) & (a[i] >= b[i])),
            _ => unreachable!("not a comparison"),
        });
    }
    let mut out = Vec::with_capacity(live.len());
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
                return Err(Error::execution(format!("cannot compare {} and {rv}", left.get(r))));
            }
        }
    }
    Ok(out)
}

/// Scalar fallback: evaluate the predicate on materialized rows.
fn filter_scalar(batch: &RowBatch, pred: &Expr, live: &[u32]) -> Result<Vec<u32>> {
    let mut out = Vec::with_capacity(live.len());
    for (&i, row) in live.iter().zip(batch.rows_of(live)) {
        if pred.eval_bool(&row)? {
            out.push(i);
        }
    }
    Ok(out)
}

/// The ids of `live` not in `pass`, a subsequence of it, in order.
fn minus(live: &[u32], pass: &[u32]) -> Vec<u32> {
    let mut pass = pass.iter().peekable();
    let mut out = Vec::with_capacity(live.len() - pass.len());
    for &i in live {
        if pass.peek() == Some(&&i) {
            pass.next();
        } else {
            out.push(i);
        }
    }
    out
}

/// The ids of `live` in `a` or in `b`, disjoint subsequences of it, in
/// order.
fn union_in_order(live: &[u32], a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    let mut out = Vec::with_capacity(a.len() + b.len());
    for &i in live {
        if a.peek() == Some(&&i) {
            a.next();
            out.push(i);
        } else if b.peek() == Some(&&i) {
            b.next();
            out.push(i);
        }
    }
    out
}

// --------------------------------------------------------------- projection

/// Project a batch. Pure column reorders clone lane `Arc`s; a computed
/// column is evaluated once per live row ([`eval_lane`]) and a plain one
/// beside it gathered.
pub(crate) fn apply_project_batch(batch: &RowBatch, exprs: &[Expr]) -> Result<RowBatch> {
    let column = |e: &Expr| match e {
        Expr::ColumnIdx(c) if *c < batch.width() => Some(*c),
        _ => None,
    };
    if exprs.iter().all(|e| column(e).is_some()) {
        let lanes = exprs.iter().filter_map(column).map(|c| batch.lanes()[c].clone()).collect();
        return Ok(RowBatch::new(lanes, batch.sel().map(<[u32]>::to_vec)));
    }
    let live = batch.live_rows();
    let ids: Arc<[u32]> = live.as_slice().into();
    let lanes = exprs
        .iter()
        .map(|e| match column(e) {
            Some(c) if batch.sel().is_none() => Ok(batch.lanes()[c].clone()),
            Some(c) => Ok(Arc::new(Lane::gather(&batch.lanes()[c], &ids))),
            None => eval_lane(e, batch, &live).map(Arc::new),
        })
        .collect::<Result<_>>()?;
    Ok(RowBatch::new(lanes, None))
}

/// `e` over the rows `live` of `batch`, as a lane with one row per live
/// row: a numeric expression by typed loops ([`NumExpr`]), anything else
/// by the row engine's `Expr::eval` on materialized rows.
pub(crate) fn eval_lane(e: &Expr, batch: &RowBatch, live: &[u32]) -> Result<Lane> {
    if let Some(num) = NumExpr::compile(e, batch, live)? {
        return Ok(num.lane(live));
    }
    let mut out = LaneBuilder::default();
    for row in batch.rows_of(live) {
        out.push(e.eval(&row)?);
    }
    Ok(out.finish())
}

// --------------------------------------------------------- numeric kernels

/// One row's number.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Double(f64),
}

impl Num {
    fn f64(self) -> f64 {
        match self {
            Num::Int(x) => x as f64,
            Num::Double(x) => x,
        }
    }
}

/// The type every row of a numeric expression has, NULL aside: `eval`
/// keeps Int with Int as Int and makes anything with a Double a Double.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NumType {
    Int,
    Double,
    /// Only NULL literals: every row is NULL.
    Null,
}

impl NumType {
    /// The type of an operator over `self` and `other`.
    fn join(self, other: NumType) -> NumType {
        match (self, other) {
            (NumType::Null, t) | (t, NumType::Null) => t,
            (NumType::Int, NumType::Int) => NumType::Int,
            _ => NumType::Double,
        }
    }

    /// The type of a CASE over arms of these types, or `None` when two
    /// arms differ: each row would have its own arm's type.
    fn of_arms(mut arms: impl Iterator<Item = NumType>) -> Option<NumType> {
        arms.try_fold(NumType::Null, |ty, arm| match (ty, arm) {
            (t, NumType::Null) | (NumType::Null, t) => Some(t),
            (t, u) => (t == u).then_some(t),
        })
    }
}

/// Rows per step of a numeric expression: its nodes' values sit in arrays
/// of this size on the stack, so no node allocates.
const CHUNK: usize = 64;

fn is_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
}

/// `out[k] = f(k, out[k])` for every `k`: one tight loop per operator.
fn each<T: Copy>(out: &mut [T], f: impl Fn(usize, T) -> T) {
    out.iter_mut().enumerate().for_each(|(k, o)| *o = f(k, *o));
}

/// `out[k] = out[k] ⊗ r(k)` — `r(k) ⊗ out[k]` when `swap` — with
/// `eval_binary`'s Int arithmetic: wrapping, and `/` or `%` by zero is
/// NULL. `null` already holds both operands' NULLs.
fn int_op(op: BinOp, out: &mut [i64], null: &mut [bool], r: impl Fn(usize) -> i64, swap: bool) {
    match (op, swap) {
        (BinOp::Add, _) => each(out, |k, a| a.wrapping_add(r(k))),
        (BinOp::Mul, _) => each(out, |k, a| a.wrapping_mul(r(k))),
        (BinOp::Sub, false) => each(out, |k, a| a.wrapping_sub(r(k))),
        (BinOp::Sub, true) => each(out, |k, a| r(k).wrapping_sub(a)),
        _ => {
            for (k, (o, n)) in out.iter_mut().zip(null.iter_mut()).enumerate() {
                let (a, b) = if swap { (r(k), *o) } else { (*o, r(k)) };
                match b {
                    _ if *n => {}
                    0 => *n = true,
                    _ if op == BinOp::Div => *o = a.wrapping_div(b),
                    _ => *o = a.wrapping_rem(b),
                }
            }
        }
    }
}

/// `out[k] = out[k] ⊗ r(k)` — `r(k) ⊗ out[k]` when `swap` — with
/// `eval_binary`'s Double arithmetic: `/` by zero is NULL.
fn double_op(op: BinOp, out: &mut [f64], null: &mut [bool], r: impl Fn(usize) -> f64, swap: bool) {
    match (op, swap) {
        (BinOp::Add, _) => each(out, |k, a| a + r(k)),
        (BinOp::Mul, _) => each(out, |k, a| a * r(k)),
        (BinOp::Sub, false) => each(out, |k, a| a - r(k)),
        (BinOp::Sub, true) => each(out, |k, a| r(k) - a),
        (BinOp::Mod, false) => each(out, |k, a| a % r(k)),
        (BinOp::Mod, true) => each(out, |k, a| r(k) % a),
        _ => {
            for (k, (o, n)) in out.iter_mut().zip(null.iter_mut()).enumerate() {
                let (a, b) = if swap { (r(k), *o) } else { (*o, r(k)) };
                if b == 0.0 {
                    *n = true;
                } else {
                    *o = a / b;
                }
            }
        }
    }
}

/// A numeric expression compiled against one batch: `+ - * / %` over Int
/// and Double lanes and numeric literals, and a CASE whose arms share a
/// type. It runs [`CHUNK`] rows at a time, node by node in typed loops,
/// with `Expr::eval`'s semantics: NULL propagates, Int with Int stays Int
/// (wrapping), a Double operand promotes the other side's value. A CASE's
/// conditions run first, as filter kernels over the rows the earlier arms
/// left, and record each row's arm; an arm's value is used only where it
/// is taken. (An Int `i64::MIN / -1`, where the row engine panics, wraps.)
enum NumExpr<'a> {
    /// A literal; `None` is NULL.
    Lit(Option<Num>),
    Int(&'a [i64], &'a [bool]),
    Double(&'a [f64], &'a [bool]),
    Bin(BinOp, NumType, Box<NumExpr<'a>>, Box<NumExpr<'a>>),
    /// The arm of each live row (`arms.len()` for ELSE), the arms, ELSE,
    /// and the type they share.
    Case(Vec<u32>, Vec<NumExpr<'a>>, Option<Box<NumExpr<'a>>>, NumType),
}

impl<'a> NumExpr<'a> {
    /// `e` over the rows `live` of `batch`, or `None` when `e` is not
    /// numeric. Errors only as a CASE condition's filter does.
    fn compile(e: &Expr, batch: &'a RowBatch, live: &[u32]) -> Result<Option<NumExpr<'a>>> {
        if NumExpr::type_of(e, batch, false).is_none() {
            return Ok(None);
        }
        NumExpr::build(e, batch, live).map(Some)
    }

    /// The type of `e` over `batch`, or `None` when it is not numeric. A
    /// CASE nested in a CASE's arm is not: its conditions would run on
    /// rows its arm never takes.
    fn type_of(e: &Expr, batch: &RowBatch, in_arm: bool) -> Option<NumType> {
        match e {
            Expr::Literal(Value::Int(_)) => Some(NumType::Int),
            Expr::Literal(Value::Double(_)) => Some(NumType::Double),
            Expr::Literal(Value::Null) => Some(NumType::Null),
            Expr::ColumnIdx(c) if *c < batch.width() => match batch.lane(*c).column() {
                Some(ColumnData::Int(..)) => Some(NumType::Int),
                Some(ColumnData::Double(..)) => Some(NumType::Double),
                _ => None,
            },
            Expr::Binary { op, left, right } if is_arith(*op) => {
                let l = NumExpr::type_of(left, batch, in_arm)?;
                let r = NumExpr::type_of(right, batch, in_arm)?;
                Some(l.join(r))
            }
            Expr::Case { when, otherwise } if !in_arm => {
                let arms = when.iter().map(|(_, v)| v).chain(otherwise.as_deref());
                let tys =
                    arms.map(|v| NumExpr::type_of(v, batch, true)).collect::<Option<Vec<_>>>()?;
                NumType::of_arms(tys.into_iter())
            }
            _ => None,
        }
    }

    fn build(e: &Expr, batch: &'a RowBatch, live: &[u32]) -> Result<NumExpr<'a>> {
        Ok(match e {
            Expr::Literal(Value::Int(x)) => NumExpr::Lit(Some(Num::Int(*x))),
            Expr::Literal(Value::Double(x)) => NumExpr::Lit(Some(Num::Double(*x))),
            Expr::Literal(_) => NumExpr::Lit(None),
            Expr::ColumnIdx(c) => match batch.lane(*c).column() {
                Some(ColumnData::Int(d, n)) => NumExpr::Int(d, n),
                Some(ColumnData::Double(d, n)) => NumExpr::Double(d, n),
                _ => unreachable!("checked by type_of"),
            },
            Expr::Binary { op, left, right } => {
                let (l, r) =
                    (NumExpr::build(left, batch, live)?, NumExpr::build(right, batch, live)?);
                NumExpr::Bin(*op, l.ty().join(r.ty()), Box::new(l), Box::new(r))
            }
            Expr::Case { when, otherwise } => {
                let mut arm = vec![when.len() as u32; live.len()];
                // The undecided rows and their positions in `live`.
                let (mut rest, mut at) =
                    (live.to_vec(), (0..live.len() as u32).collect::<Vec<_>>());
                for (k, (cond, _)) in when.iter().enumerate() {
                    if rest.is_empty() {
                        break;
                    }
                    let pass = apply_conjunct(batch, cond, rest.clone())?;
                    let mut pass = pass.iter().peekable();
                    let (mut still, mut still_at) = (Vec::new(), Vec::new());
                    for (&i, &pos) in rest.iter().zip(&at) {
                        if pass.peek() == Some(&&i) {
                            pass.next();
                            arm[pos as usize] = k as u32;
                        } else {
                            still.push(i);
                            still_at.push(pos);
                        }
                    }
                    (rest, at) = (still, still_at);
                }
                let arms: Vec<NumExpr> = when
                    .iter()
                    .map(|(_, v)| NumExpr::build(v, batch, live))
                    .collect::<Result<_>>()?;
                let otherwise = match otherwise {
                    Some(o) => Some(Box::new(NumExpr::build(o, batch, live)?)),
                    None => None,
                };
                let ty = NumType::of_arms(arms.iter().chain(otherwise.as_deref()).map(NumExpr::ty))
                    .expect("checked by type_of");
                NumExpr::Case(arm, arms, otherwise, ty)
            }
            _ => unreachable!("checked by type_of"),
        })
    }

    fn ty(&self) -> NumType {
        match self {
            NumExpr::Lit(None) => NumType::Null,
            NumExpr::Lit(Some(Num::Int(_))) | NumExpr::Int(..) => NumType::Int,
            NumExpr::Lit(Some(Num::Double(_))) | NumExpr::Double(..) => NumType::Double,
            NumExpr::Bin(_, t, ..) | NumExpr::Case(.., t) => *t,
        }
    }

    /// The Int rows `ids` (live rows `pos0..`) into `out` and `null`.
    fn ints(&self, pos0: usize, ids: &[u32], out: &mut [i64], null: &mut [bool]) {
        match self {
            NumExpr::Lit(Some(Num::Int(x))) => {
                out.fill(*x);
                null.fill(false);
            }
            NumExpr::Int(d, n) => {
                for ((o, m), &i) in out.iter_mut().zip(null.iter_mut()).zip(ids) {
                    (*o, *m) = (d[i as usize], n[i as usize]);
                }
            }
            NumExpr::Bin(op, NumType::Int, l, r) => match (l.as_ref(), r.as_ref()) {
                // A literal operand is read in the loop, not filled in.
                (_, NumExpr::Lit(Some(Num::Int(x)))) => {
                    l.ints(pos0, ids, out, null);
                    int_op(*op, out, null, |_| *x, false);
                }
                (NumExpr::Lit(Some(Num::Int(x))), _) => {
                    r.ints(pos0, ids, out, null);
                    int_op(*op, out, null, |_| *x, true);
                }
                _ => {
                    let (mut rv, mut rn) = ([0i64; CHUNK], [false; CHUNK]);
                    let (rv, rn) = (&mut rv[..ids.len()], &mut rn[..ids.len()]);
                    l.ints(pos0, ids, out, null);
                    r.ints(pos0, ids, rv, rn);
                    null.iter_mut().zip(rn.iter()).for_each(|(n, &m)| *n |= m);
                    int_op(*op, out, null, |k| rv[k], false);
                }
            },
            NumExpr::Case(.., NumType::Int) => self.case(pos0, ids, out, null, NumExpr::ints),
            // A NULL literal, or a subtree whose rows are all NULL.
            _ => null.fill(true),
        }
    }

    /// The rows `ids` as Doubles: an Int subtree is computed exactly and
    /// then converted, as `eval` promotes at the operator above it.
    fn doubles(&self, pos0: usize, ids: &[u32], out: &mut [f64], null: &mut [bool]) {
        match (self, self.ty()) {
            (_, NumType::Int) => {
                let mut v = [0i64; CHUNK];
                let v = &mut v[..ids.len()];
                self.ints(pos0, ids, v, null);
                out.iter_mut().zip(v.iter()).for_each(|(o, &x)| *o = x as f64);
            }
            (NumExpr::Lit(Some(Num::Double(x))), _) => {
                out.fill(*x);
                null.fill(false);
            }
            (NumExpr::Double(d, n), _) => {
                for ((o, m), &i) in out.iter_mut().zip(null.iter_mut()).zip(ids) {
                    (*o, *m) = (d[i as usize], n[i as usize]);
                }
            }
            (NumExpr::Bin(op, _, l, r), NumType::Double) => match (l.as_ref(), r.as_ref()) {
                (_, NumExpr::Lit(Some(x))) => {
                    l.doubles(pos0, ids, out, null);
                    double_op(*op, out, null, |_| x.f64(), false);
                }
                (NumExpr::Lit(Some(x)), _) => {
                    r.doubles(pos0, ids, out, null);
                    double_op(*op, out, null, |_| x.f64(), true);
                }
                _ => {
                    let (mut rv, mut rn) = ([0f64; CHUNK], [false; CHUNK]);
                    let (rv, rn) = (&mut rv[..ids.len()], &mut rn[..ids.len()]);
                    l.doubles(pos0, ids, out, null);
                    r.doubles(pos0, ids, rv, rn);
                    null.iter_mut().zip(rn.iter()).for_each(|(n, &m)| *n |= m);
                    double_op(*op, out, null, |k| rv[k], false);
                }
            },
            (NumExpr::Case(..), NumType::Double) => {
                self.case(pos0, ids, out, null, NumExpr::doubles)
            }
            _ => null.fill(true),
        }
    }

    /// A CASE's rows: each arm evaluated where some row takes it, and its
    /// values kept where they are taken; NULL where no arm is.
    fn case<T: Copy + Default>(
        &self,
        pos0: usize,
        ids: &[u32],
        out: &mut [T],
        null: &mut [bool],
        eval: fn(&NumExpr<'a>, usize, &[u32], &mut [T], &mut [bool]),
    ) {
        let NumExpr::Case(arm, arms, otherwise, _) = self else { unreachable!("a CASE") };
        let taken = &arm[pos0..pos0 + ids.len()];
        null.fill(true);
        let (mut v, mut n) = ([T::default(); CHUNK], [false; CHUNK]);
        let (v, n) = (&mut v[..ids.len()], &mut n[..ids.len()]);
        for (k, a) in arms.iter().map(Some).chain([otherwise.as_deref()]).enumerate() {
            let k = k as u32;
            let Some(a) = a else { continue };
            if !taken.contains(&k) {
                continue;
            }
            eval(a, pos0, ids, v, n);
            for (j, _) in taken.iter().enumerate().filter(|(_, &t)| t == k) {
                (out[j], null[j]) = (v[j], n[j]);
            }
        }
    }

    /// The rows `ids` as a typed lane of one row each.
    fn lane(&self, ids: &[u32]) -> Lane {
        let mut null = vec![false; ids.len()];
        let data = match self.ty() {
            NumType::Int => {
                let mut d = vec![0i64; ids.len()];
                for (c, chunk) in ids.chunks(CHUNK).enumerate() {
                    let at = c * CHUNK..c * CHUNK + chunk.len();
                    self.ints(c * CHUNK, chunk, &mut d[at.clone()], &mut null[at]);
                }
                ColumnData::Int(d, null)
            }
            NumType::Double => {
                let mut d = vec![0f64; ids.len()];
                for (c, chunk) in ids.chunks(CHUNK).enumerate() {
                    let at = c * CHUNK..c * CHUNK + chunk.len();
                    self.doubles(c * CHUNK, chunk, &mut d[at.clone()], &mut null[at]);
                }
                ColumnData::Double(d, null)
            }
            NumType::Null => {
                let mut b = LaneBuilder::default();
                ids.iter().for_each(|_| b.push(Value::Null));
                return b.finish();
            }
        };
        Lane::from_column(Arc::new(data))
    }
}

// -------------------------------------------------------------------- joins

/// End of a build-row chain.
const END: u32 = u32::MAX;

/// Build side of a hash join, kept as lanes: the build input as one batch
/// ([`RowBatch::concat`]) and a [`SlotIndex`] from key hash to a chain of
/// the build rows with that hash, in build order (a head per chain, a
/// next-link per build row). A probe walks its hash's chain and verifies
/// each candidate lane against lane; no build-side `Row` exists.
pub(crate) struct JoinBuild {
    batch: RowBatch,
    /// The physical row of each build row, in build order.
    rows: Vec<u32>,
    key_cols: Vec<usize>,
    index: SlotIndex,
    /// The first build row of each chain.
    heads: Vec<u32>,
    /// The next build row of the same chain, or [`END`].
    next: Vec<u32>,
}

impl JoinBuild {
    /// Chain the live rows of `batches` by the hash of their `key_cols`,
    /// one typed pass per key lane. NULL keys participate (they match
    /// other NULLs), exactly like the row engine's encoded keys; no key
    /// column (a cross join) chains every row together. `width` is the
    /// build side's column count, for when it produced no batch.
    pub(crate) fn build(
        batches: &[RowBatch],
        width: usize,
        key_cols: Vec<usize>,
    ) -> Result<JoinBuild> {
        let batch = RowBatch::concat(batches).unwrap_or_else(|| {
            RowBatch::new(
                (0..width).map(|_| Arc::new(LaneBuilder::default().finish())).collect(),
                None,
            )
        });
        let rows = batch.live_rows();
        let mut index = SlotIndex::with_capacity(rows.len());
        let mut heads = Vec::with_capacity(rows.len());
        let mut next = vec![END; rows.len()];
        if !rows.is_empty() {
            if let Some(c) = key_cols.iter().find(|&&c| c >= batch.width()) {
                return Err(Error::execution(format!("column index {c} out of range")));
            }
            let keys: Vec<(&Lane, &[u32])> =
                key_cols.iter().map(|&c| (batch.lane(c), rows.as_slice())).collect();
            // Last row first, each pushed on its chain's front: every chain
            // then lists its rows in build order, and no tail is kept.
            for (b, &hash) in hash_keys(&keys, rows.len()).iter().enumerate().rev() {
                match index.find(hash, |_| true) {
                    Some(chain) => {
                        next[b] = heads[chain as usize];
                        heads[chain as usize] = b as u32;
                    }
                    None => {
                        index.insert(hash, heads.len() as u32);
                        heads.push(b as u32);
                    }
                }
            }
        }
        Ok(JoinBuild { batch, rows, key_cols, index, heads, next })
    }

    /// Number of build rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The (build row, probe row) pairs of the rows `live` — each probe
    /// row's matches in build order — where `hash(pos, row)` is the key
    /// hash of live row `pos`, physical row `row`, and `same(build row,
    /// probe row)` says two keys are equal. One loop: hash, look up, walk
    /// the chain.
    fn pairs(
        &self,
        live: &[u32],
        hash: impl Fn(usize, usize) -> u64,
        same: impl Fn(usize, usize) -> bool,
    ) -> (Vec<u32>, Vec<u32>) {
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        for (pos, &i) in live.iter().enumerate() {
            let Some(chain) = self.index.find(hash(pos, i as usize), |_| true) else {
                continue;
            };
            let mut b = self.heads[chain as usize];
            while b != END {
                let row = self.rows[b as usize];
                b = self.next[b as usize];
                if same(row as usize, i as usize) {
                    build_rows.push(row);
                    probe_rows.push(i);
                }
            }
        }
        (build_rows, probe_rows)
    }

    /// Probe one batch on its key columns `probe_cols`: the matching
    /// (build row, probe row) pairs — each probe row's matches in build
    /// order — and the joined batch, the build lanes then the probe lanes,
    /// each gathered over them when first read ([`Lane::gather`]), so a
    /// lane nothing above reads is never copied. Gathering a small output
    /// at once instead (64 rows or fewer) made fig10's Q2 slower, so no
    /// size cut-off exists (`results/pr-51.md`). One Int key, the common
    /// shape, hashes and compares in the probe loop itself; other keys hash
    /// in one typed pass per key lane first.
    pub(crate) fn probe(&self, batch: &RowBatch, probe_cols: &[usize]) -> Result<RowBatch> {
        if let Some(c) = probe_cols.iter().find(|&&c| c >= batch.width()) {
            return Err(Error::execution(format!("column index {c} out of range")));
        }
        let live = batch.live_rows();
        let (build_rows, probe_rows) = if self.rows.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let build: Vec<KeyCol> =
                self.key_cols.iter().map(|&c| self.batch.lane(c).key_col()).collect();
            let probe: Vec<KeyCol> = probe_cols.iter().map(|&c| batch.lane(c).key_col()).collect();
            match (build.as_slice(), probe.as_slice()) {
                ([KeyCol::Int(bd, bn)], [KeyCol::Int(pd, pn)]) => self.pairs(
                    &live,
                    |_, i| if pn[i] { NULL_HASH } else { int_hash(pd[i]) },
                    |b, i| bn[b] == pn[i] && (pn[i] || bd[b] == pd[i]),
                ),
                _ => {
                    let codes: Vec<bool> = build
                        .iter()
                        .zip(&probe)
                        .map(|pair| match pair {
                            (KeyCol::Str(.., a), KeyCol::Str(.., b)) => a.codes_agree(b),
                            _ => false,
                        })
                        .collect();
                    let keyed: Vec<(&Lane, &[u32])> =
                        probe_cols.iter().map(|&c| (batch.lane(c), live.as_slice())).collect();
                    let hashes = hash_keys(&keyed, live.len());
                    let keys = || build.iter().zip(&probe).zip(&codes);
                    self.pairs(&live, |pos, _| hashes[pos], |b, i| {
                        keys().all(|((k, p), &codes)| k.same(b, p, i, codes))
                    })
                }
            }
        };
        if build_rows.is_empty() {
            // No match: a batch of no rows, its lanes one empty lane.
            let empty = Arc::new(LaneBuilder::default().finish());
            return Ok(RowBatch::new(vec![empty; self.batch.width() + batch.width()], None));
        }
        let (build_rows, probe_rows): (Arc<[u32]>, Arc<[u32]>) =
            (build_rows.into(), probe_rows.into());
        let build = self.batch.lanes().iter().map(|l| Arc::new(Lane::gather(l, &build_rows)));
        let probe = batch.lanes().iter().map(|l| Arc::new(Lane::gather(l, &probe_rows)));
        Ok(RowBatch::new(build.chain(probe).collect(), None))
    }
}

// -------------------------------------------------------------- aggregation

/// How one aggregate argument is read for live row `pos`.
enum ArgPlan<'a> {
    Star,
    /// Row `ids[pos]` of a lane.
    Lane(&'a Lane, &'a [u32]),
    /// A numeric expression at live row `pos`, physical row `ids[pos]`.
    Num(NumExpr<'a>, &'a [u32]),
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

    /// Fold in a partial of the same aggregate.
    fn merge(&mut self, t: NumState) {
        self.count += t.count;
        self.sum += t.sum;
        self.int_only &= t.int_only;
    }
}

/// Where a folded aggregate keeps its state.
#[derive(Clone, Copy)]
enum Place {
    /// Slot `s` of each group's numeric states ([`is_numeric`]).
    Num(usize),
    /// Column `c` of the row engine's states: MIN / MAX and DISTINCT.
    Row(usize),
}

/// Fold the argument of every live row into its group's state, in row
/// order, one aggregate at a time: what [`NumArg::fold`] does not read — a
/// string, date or value lane under COUNT / SUM / AVG, and every argument
/// of MIN / MAX / DISTINCT. `gids[pos]` is the group of live row `pos`.
fn fold_rest(table: &mut VecAggTable, place: Place, arg: &ArgPlan, gids: &[u32]) {
    let width = table.width;
    match (place, arg) {
        (Place::Num(slot), ArgPlan::Lane(lane, ids)) => {
            let rows = gids.iter().map(|&g| g as usize * width + slot).zip(ids.iter());
            match lane.column() {
                // Strings and dates: `as_double` fails, only the count moves.
                Some(c) => {
                    for (at, &i) in rows {
                        table.nums[at].count += !c.is_null(i as usize) as u64;
                    }
                }
                None => {
                    for (at, &i) in rows {
                        table.nums[at].add(lane.value_ref(i as usize).expect("a value lane"));
                    }
                }
            }
        }
        (Place::Row(c), ArgPlan::Star) => {
            for &g in gids {
                table.rows[c][g as usize].update(None);
            }
        }
        (Place::Row(c), ArgPlan::Lane(lane, ids)) => {
            for (&g, &i) in gids.iter().zip(*ids) {
                if !lane.is_null(i as usize) {
                    table.rows[c][g as usize].update(Some(&lane.get(i as usize)));
                }
            }
        }
        (Place::Num(_), _) => unreachable!("folded by NumArg::fold"),
        (Place::Row(_), ArgPlan::Num(..)) => {
            unreachable!("a numeric expression feeds only a numeric aggregate")
        }
    }
}

/// The argument of a numeric state as [`NumArg::fold`] reads it, a
/// [`CHUNK`] of live rows at a time.
enum NumArg<'a> {
    /// COUNT(*): every row is there and adds nothing.
    Star,
    Int(&'a [i64], &'a [bool], &'a [u32]),
    Double(&'a [f64], &'a [bool], &'a [u32]),
    Expr(&'a NumExpr<'a>, &'a [u32]),
}

impl<'a> NumArg<'a> {
    /// `arg` as a chunked numeric argument, or `None` when it is a string,
    /// date or value lane ([`fold_rest`]).
    fn of(arg: &'a ArgPlan<'a>) -> Option<NumArg<'a>> {
        Some(match arg {
            ArgPlan::Star => NumArg::Star,
            ArgPlan::Lane(lane, ids) => match lane.column()? {
                ColumnData::Int(d, n) => NumArg::Int(d, n, ids),
                ColumnData::Double(d, n) => NumArg::Double(d, n, ids),
                _ => return None,
            },
            ArgPlan::Num(e, ids) => NumArg::Expr(e, ids),
        })
    }

    /// Fold live rows `pos0..pos0 + gids.len()` into `(nums, width,
    /// slot)`: slot `slot` of their groups' states, `width` per group —
    /// row `pos0 + k` into group `gids[k]`.
    fn fold(&self, pos0: usize, gids: &[u32], into: (&mut [NumState], usize, usize)) {
        let (nums, width, slot) = into;
        let into = Fold { nums, width, slot, gids };
        let ids = |ids: &'a [u32]| &ids[pos0..pos0 + gids.len()];
        match self {
            NumArg::Star => gids.iter().for_each(|&g| into.nums[g as usize * width + slot].count += 1),
            NumArg::Int(d, n, at) => {
                let at = ids(at);
                into.rows(true, |k| {
                    let i = at[k] as usize;
                    (!n[i]).then(|| d[i] as f64)
                })
            }
            NumArg::Double(d, n, at) => {
                let at = ids(at);
                into.rows(false, |k| {
                    let i = at[k] as usize;
                    (!n[i]).then(|| d[i])
                })
            }
            NumArg::Expr(e, at) => {
                let (at, len) = (ids(at), gids.len());
                let (mut v, mut null) = ([0f64; CHUNK], [false; CHUNK]);
                let (v, null) = (&mut v[..len], &mut null[..len]);
                let int = match e.ty() {
                    NumType::Int => {
                        let mut x = [0i64; CHUNK];
                        e.ints(pos0, at, &mut x[..len], null);
                        v.iter_mut().zip(&x).for_each(|(v, &x)| *v = x as f64);
                        true
                    }
                    NumType::Double => {
                        e.doubles(pos0, at, v, null);
                        false
                    }
                    NumType::Null => return,
                };
                into.rows(int, |k| (!null[k]).then(|| v[k]))
            }
        }
    }
}

/// Where a chunk of one numeric argument folds: slot `slot` of the states
/// of group `gids[k]`, `width` states per group.
struct Fold<'s> {
    nums: &'s mut [NumState],
    width: usize,
    slot: usize,
    gids: &'s [u32],
}

impl Fold<'_> {
    /// Fold the chunk's rows: row `k` adds `val(k)` when it is there (an
    /// Int when `int`). Each group adds its values in row order — the row
    /// engine's sums, bit for bit.
    #[inline(always)]
    fn rows(self, int: bool, val: impl Fn(usize) -> Option<f64>) {
        let Fold { nums, width, slot, gids } = self;
        for (k, &g) in gids.iter().enumerate() {
            if let Some(x) = val(k) {
                let st = &mut nums[g as usize * width + slot];
                st.count += 1;
                st.sum += x;
                st.int_only &= int;
            }
        }
    }
}

/// Group ids by code tuple, for a batch whose keys are all dictionary-coded
/// strings: each distinct tuple is resolved once. A key's radix is its
/// dictionary's size plus one, digit 0 for NULL.
struct CodeMemo<'a> {
    keys: Vec<CodedKey<'a>>,
    gids: Vec<u32>,
}

/// One coded key column: live row `pos` reads row `ids[pos]`.
struct CodedKey<'a> {
    codes: &'a [u32],
    nulls: &'a [bool],
    ids: &'a [u32],
    stride: usize,
}

/// A [`CodeMemo`] slot not resolved yet.
const UNRESOLVED: u32 = u32::MAX;

impl<'a> CodeMemo<'a> {
    /// `None` unless every key is a coded lane and the code tuples number
    /// no more than the `rows` the batch folds.
    fn new(keys: &[(&'a Lane, &'a [u32])], rows: usize) -> Option<CodeMemo<'a>> {
        let mut parts = Vec::with_capacity(keys.len());
        let mut stride = 1usize;
        for &(lane, ids) in keys {
            let Some(ColumnData::Str(codes, nulls, dict)) = lane.column() else {
                return None;
            };
            parts.push(CodedKey { codes, nulls, ids, stride });
            stride = stride.checked_mul(dict.len() + 1).filter(|&n| n <= rows)?;
        }
        Some(CodeMemo { keys: parts, gids: vec![UNRESOLVED; stride] })
    }

}

/// How a batch's rows find their groups.
enum Grouping<'a> {
    /// No keys: one group.
    Global,
    /// Every key a coded string: by code tuple.
    Coded(CodeMemo<'a>),
    /// Each row's key hash, verified against the stored keys.
    Hashed(Vec<u64>),
}

impl<'a> Grouping<'a> {
    fn new(keys: &[(&'a Lane, &'a [u32])], n: usize) -> Grouping<'a> {
        if keys.is_empty() {
            return Grouping::Global;
        }
        match CodeMemo::new(keys, n) {
            Some(memo) => Grouping::Coded(memo),
            None => Grouping::Hashed(hash_keys(keys, n)),
        }
    }
}

/// Hash-aggregation over batches, one pass per chunk of [`CHUNK`] live
/// rows: the chunk's group ids — keys hashed in one typed pass per key
/// lane and verified lane against the group's stored key, or, when every
/// key is a coded string, resolved once per distinct code tuple — then one
/// loop over the chunk's rows that folds every COUNT / SUM / AVG into the
/// row's group ([`NumArg::fold`]), numeric arguments evaluated in typed
/// loops first. COUNT, SUM and AVG of one argument share a state, and the
/// numeric states are stored group-major, one row of states per group.
/// MIN, MAX and DISTINCT keep the row engine's states and fold one
/// aggregate at a time ([`fold_rest`]). Group keys are stored as one
/// growing lane per key column; group identity matches `Key::encode`
/// exactly, and each group adds its values in row order. The table
/// finishes into a batch.
pub struct VecAggTable {
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    index: SlotIndex,
    /// One column per group key: row `g` is group `g`'s key.
    keys: Vec<LaneBuilder>,
    groups: usize,
    /// The aggregates that keep a state, and where each keeps it.
    folded: Vec<usize>,
    place: Vec<Place>,
    /// Numeric states per group.
    width: usize,
    /// The numeric states: group `g`'s are `nums[g * width..][..width]`.
    nums: Vec<NumState>,
    /// One column of row-engine states per [`Place::Row`], by group.
    rows: Vec<Vec<AggState>>,
    /// Each aggregate's folded state.
    state_of: Vec<usize>,
}

impl VecAggTable {
    /// Empty table for the given grouping.
    pub fn new(group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> VecAggTable {
        let (mut folded, mut state_of) = (Vec::<usize>::new(), Vec::new());
        for (a, spec) in aggs.iter().enumerate() {
            // A count, a sum and an all-Int flag serve COUNT, SUM and AVG
            // of one argument alike.
            let shared = folded
                .iter()
                .position(|&f| is_numeric(spec) && is_numeric(&aggs[f]) && aggs[f].arg == spec.arg);
            state_of.push(shared.unwrap_or_else(|| {
                folded.push(a);
                folded.len() - 1
            }));
        }
        let (mut width, mut rows) = (0, Vec::new());
        let place = folded
            .iter()
            .map(|&a| match is_numeric(&aggs[a]) {
                true => (Place::Num(width), width += 1).0,
                false => (Place::Row(rows.len()), rows.push(Vec::new())).0,
            })
            .collect();
        let keys = group_by.iter().map(|_| LaneBuilder::default()).collect();
        let index = SlotIndex::new();
        VecAggTable {
            group_by,
            aggs,
            index,
            keys,
            groups: 0,
            folded,
            place,
            width,
            nums: Vec::new(),
            rows,
            state_of,
        }
    }

    /// Fold one batch. The caller ticks its rows.
    pub fn update_batch(&mut self, batch: &RowBatch) -> Result<()> {
        let live = batch.live_rows();
        let column = |e: &Expr| match e {
            Expr::ColumnIdx(c) if *c < batch.width() => Some(batch.lane(*c)),
            _ => None,
        };
        // The keys and the arguments no lane or numeric loop reads,
        // evaluated once per live row.
        let eval = |e: &Expr| eval_lane(e, batch, &live).map(Some);
        let own_keys: Vec<Option<Lane>> = self
            .group_by
            .iter()
            .map(|g| if column(g).is_some() { Ok(None) } else { eval(g) })
            .collect::<Result<_>>()?;
        let own_args: Vec<Option<Lane>> = self
            .folded
            .iter()
            .map(|&a| &self.aggs[a])
            .map(|spec| match &spec.arg {
                Some(e)
                    if column(e).is_none()
                        && !(is_numeric(spec) && NumExpr::type_of(e, batch, false).is_some()) =>
                {
                    eval(e)
                }
                _ => Ok(None),
            })
            .collect::<Result<_>>()?;
        let dense: Vec<u32> = match own_keys.iter().chain(&own_args).any(Option::is_some) {
            true => (0..live.len() as u32).collect(),
            false => Vec::new(),
        };
        let keys: Vec<(&Lane, &[u32])> = self
            .group_by
            .iter()
            .zip(&own_keys)
            .map(|(g, own)| match own {
                Some(lane) => (lane, dense.as_slice()),
                None => (column(g).expect("a lane key"), live.as_slice()),
            })
            .collect();
        let mut args = Vec::with_capacity(self.folded.len());
        for (&a, own) in self.folded.iter().zip(&own_args) {
            let spec = &self.aggs[a];
            args.push(match (&spec.arg, own) {
                (None, _) => ArgPlan::Star,
                (Some(_), Some(lane)) => ArgPlan::Lane(lane, &dense),
                (Some(e), None) => match column(e) {
                    Some(lane) => ArgPlan::Lane(lane, &live),
                    None => ArgPlan::Num(NumExpr::build(e, batch, &live)?, &live),
                },
            });
        }
        let mut chunked = Vec::with_capacity(args.len());
        let mut rest = Vec::new();
        for (&place, arg) in self.place.iter().zip(&args) {
            match (place, NumArg::of(arg)) {
                (Place::Num(slot), Some(arg)) => chunked.push((slot, arg)),
                _ => rest.push((place, arg)),
            }
        }
        let n = live.len();
        let mut grouping = Grouping::new(&keys, n);
        let mut gids = Vec::with_capacity(if rest.is_empty() { 0 } else { n });
        let mut chunk = [0u32; CHUNK];
        for pos0 in (0..n).step_by(CHUNK) {
            let chunk = &mut chunk[..CHUNK.min(n - pos0)];
            self.group_chunk(&keys, &mut grouping, pos0, chunk);
            for (slot, arg) in &chunked {
                arg.fold(pos0, chunk, (&mut self.nums, self.width, *slot));
            }
            if !rest.is_empty() {
                gids.extend_from_slice(chunk);
            }
        }
        for (place, arg) in rest {
            fold_rest(self, place, arg, &gids);
        }
        Ok(())
    }

    /// The group of each live row `pos0..pos0 + out.len()` into `out`,
    /// new groups created in row order.
    fn group_chunk(
        &mut self,
        keys: &[(&Lane, &[u32])],
        grouping: &mut Grouping,
        pos0: usize,
        out: &mut [u32],
    ) {
        match grouping {
            // A global aggregate: one group, once a row arrives.
            Grouping::Global => out.fill(self.resolve(keys, pos0, key_hash(std::iter::empty()))),
            Grouping::Coded(memo) => {
                let mut slots = [0usize; CHUNK];
                let slots = &mut slots[..out.len()];
                for k in &memo.keys {
                    for (slot, &i) in slots.iter_mut().zip(&k.ids[pos0..]) {
                        let i = i as usize;
                        *slot += (!k.nulls[i] as usize) * (k.codes[i] as usize + 1) * k.stride;
                    }
                }
                for (pos, (g, &slot)) in (pos0..).zip(out.iter_mut().zip(slots.iter())) {
                    if memo.gids[slot] == UNRESOLVED {
                        let hash = key_hash(keys.iter().map(|(l, ids)| l.key(ids[pos] as usize)));
                        memo.gids[slot] = self.resolve(keys, pos, hash);
                    }
                    *g = memo.gids[slot];
                }
            }
            Grouping::Hashed(hashes) => {
                for (pos, g) in (pos0..).zip(out.iter_mut()) {
                    *g = self.resolve(keys, pos, hashes[pos]);
                }
            }
        }
    }

    /// The group of live row `pos`, whose key hashes to `hash`, created
    /// when new.
    fn resolve(&mut self, keys: &[(&Lane, &[u32])], pos: usize, hash: u64) -> u32 {
        let stored = &self.keys;
        let found = self.index.find(hash, |g| {
            keys.iter()
                .zip(stored)
                .all(|((lane, ids), col)| col.key(g as usize) == lane.key(ids[pos] as usize))
        });
        if let Some(g) = found {
            return g;
        }
        for ((lane, ids), col) in keys.iter().zip(&mut self.keys) {
            col.push_key(lane.key(ids[pos] as usize));
        }
        let g = self.groups as u32;
        self.groups += 1;
        self.index.insert(hash, g);
        self.nums.resize(self.nums.len() + self.width, NumState::EMPTY);
        for (&a, place) in self.folded.iter().zip(&self.place) {
            if let Place::Row(c) = *place {
                self.rows[c].push(AggState::new(&self.aggs[a]));
            }
        }
        g
    }

    /// Merge a partial table from another morsel worker.
    pub fn merge(&mut self, other: VecAggTable) {
        let width = self.width;
        for og in 0..other.groups {
            let hash = key_hash(other.keys.iter().map(|col| col.key(og)));
            let keys = &self.keys;
            let found = self.index.find(hash, |g| {
                keys.iter()
                    .zip(&other.keys)
                    .all(|(mine, theirs)| mine.key(g as usize) == theirs.key(og))
            });
            let theirs = &other.nums[og * width..][..width];
            match found {
                Some(g) => {
                    let g = g as usize;
                    for (m, t) in self.nums[g * width..][..width].iter_mut().zip(theirs) {
                        m.merge(*t);
                    }
                    for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
                        mine[g].merge(&theirs[og]);
                    }
                }
                None => {
                    for (mine, theirs) in self.keys.iter_mut().zip(&other.keys) {
                        mine.push_key(theirs.key(og));
                    }
                    self.index.insert(hash, self.groups as u32);
                    self.groups += 1;
                    self.nums.extend_from_slice(theirs);
                    for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
                        mine.push(theirs[og].clone());
                    }
                }
            }
        }
    }

    /// The result as one batch: the key lanes, then one lane per
    /// aggregate. A global aggregate over zero rows yields one row of
    /// aggregate defaults, like the row engine.
    pub fn finish(self) -> RowBatch {
        let lane = |vals: &mut dyn Iterator<Item = Value>| {
            let mut b = LaneBuilder::default();
            vals.for_each(|v| b.push(v));
            Arc::new(b.finish())
        };
        if self.group_by.is_empty() && self.groups == 0 {
            let lanes = self
                .aggs
                .iter()
                .map(|spec| lane(&mut std::iter::once(AggState::new(spec).finish())))
                .collect();
            return RowBatch::new(lanes, None);
        }
        let mut lanes: Vec<Arc<Lane>> =
            self.keys.into_iter().map(|k| Arc::new(k.finish())).collect();
        for (spec, &f) in self.aggs.iter().zip(&self.state_of) {
            lanes.push(lane(&mut (0..self.groups).map(|g| match self.place[f] {
                Place::Num(s) => {
                    let st = self.nums[g * self.width + s];
                    numeric_result(spec.func, st.count, st.sum, st.int_only)
                }
                Place::Row(c) => self.rows[c][g].finish(),
            })));
        }
        RowBatch::new(lanes, None)
    }
}

// ------------------------------------------------------------ sort, limit

/// The live rows of `batches` ordered by `keys` (`true` = descending) as
/// the row engine's `apply_sort` orders rows — a stable sort in `Value`'s
/// total order: one batch whose selection lists its rows in that order.
/// A key that is not a column is evaluated once per row.
pub(crate) fn sort_batches(
    batches: &[RowBatch],
    keys: &[(Expr, bool)],
) -> Result<Option<RowBatch>> {
    let Some(batch) = RowBatch::concat(batches) else {
        return Ok(None);
    };
    let live = batch.live_rows();
    let dense: Vec<u32> = (0..live.len() as u32).collect();
    let own: Vec<Option<Lane>> = keys
        .iter()
        .map(|(e, _)| match e {
            Expr::ColumnIdx(c) if *c < batch.width() => Ok(None),
            e => eval_lane(e, &batch, &live).map(Some),
        })
        .collect::<Result<_>>()?;
    let cols: Vec<(&Lane, &[u32], bool)> = keys
        .iter()
        .zip(&own)
        .map(|((e, desc), own)| match (e, own) {
            (_, Some(lane)) => (lane, dense.as_slice(), *desc),
            (Expr::ColumnIdx(c), None) => (batch.lane(*c), live.as_slice(), *desc),
            _ => unreachable!("evaluated above"),
        })
        .collect();
    let mut order = dense.clone();
    order.sort_by(|&a, &b| {
        for (lane, ids, desc) in &cols {
            let ord = lane.cmp_rows(ids[a as usize] as usize, ids[b as usize] as usize);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let sel = order.into_iter().map(|p| live[p as usize]).collect();
    Ok(Some(batch.with_sel(sel)))
}

/// The first `n` live rows of `batches`.
pub(crate) fn limit_batches(batches: Vec<RowBatch>, n: usize) -> Vec<RowBatch> {
    let mut left = n;
    let mut out = Vec::new();
    for batch in batches {
        if left == 0 {
            break;
        }
        let rows = batch.num_rows();
        if rows <= left {
            left -= rows;
            out.push(batch);
        } else {
            let mut live = batch.live_rows();
            live.truncate(left);
            out.push(batch.with_sel(live));
            left = 0;
        }
    }
    out
}

// ------------------------------------------- fused stages (morsel units)

/// One fused pipeline stage.
pub(crate) enum StageOp {
    Filter(Vec<Expr>),
    Project(Vec<Expr>),
    /// Probe a join's build side on the batch's key columns; a residual
    /// join filter follows as a `Filter` stage.
    Probe(JoinBuild, Vec<usize>),
}

/// Peel the `Filter*/Project*` nodes off the top of `plan`: the node they
/// sit on, and the peeled nodes as bottom-up stages.
pub(crate) fn pipeline_stages(plan: &LogicalPlan) -> (&LogicalPlan, Vec<StageOp>) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (base, mut stages) = pipeline_stages(input);
            stages.push(StageOp::Filter(conjuncts(predicate)));
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

/// The top-level conjuncts of `predicate`, applied one after another.
pub(crate) fn conjuncts(predicate: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    split_conjuncts(predicate, &mut out);
    out
}

/// Run the fused stages over one batch.
pub(crate) fn run_stages(
    mut batch: RowBatch,
    stages: &[StageOp],
    ctx: &ExecCtx,
) -> Result<RowBatch> {
    for stage in stages {
        ctx.tick(batch.num_rows() as u64)?;
        let t0 = Timer::start();
        match stage {
            StageOp::Filter(conjuncts) => {
                let mut live = batch.live_rows();
                for c in conjuncts {
                    if live.is_empty() {
                        break;
                    }
                    live = apply_conjunct(&batch, c, live)?;
                }
                batch = batch.with_sel(live);
                exec_metrics().filter.record(batch.num_rows() as u64, batch.bytes() as u64, t0);
            }
            StageOp::Project(exprs) => {
                batch = apply_project_batch(&batch, exprs)?;
                exec_metrics().project.record(batch.num_rows() as u64, batch.bytes() as u64, t0);
            }
            StageOp::Probe(build, keys) => {
                exec_metrics().probe_rows.add(batch.num_rows() as u64);
                batch = build.probe(&batch, keys)?;
                exec_metrics().join.record(batch.num_rows() as u64, 0, t0);
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
    use polardbx_common::Row;

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

    /// The folded values of `rows` (columns: group key, Int, Double, a
    /// Double with NULLs) under `aggs`, one aggregate per table or all in
    /// one, as exact bits.
    fn fold_bits(batch: &RowBatch, aggs: &[AggSpec]) -> Vec<Vec<(u8, u64)>> {
        let bits = |v: &Value| match v {
            Value::Null => (0, 0),
            Value::Int(x) => (1, *x as u64),
            Value::Double(x) => (2, x.to_bits()),
            other => panic!("not a numeric result: {other:?}"),
        };
        let mut t = VecAggTable::new(vec![Expr::ColumnIdx(0)], aggs.to_vec());
        t.update_batch(batch).unwrap();
        let out = t.finish();
        let mut rows: Vec<Vec<(u8, u64)>> = (0..out.num_rows())
            .map(|r| {
                let key = match out.lane(0).get(r) {
                    Value::Int(k) => (1, k as u64),
                    _ => (0, 0),
                };
                std::iter::once(key)
                    .chain((1..out.width()).map(|c| bits(&out.lane(c).get(r))))
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn the_fused_fold_adds_like_one_aggregate_at_a_time() {
        // Runs of one group (appended rows) and a random mix, NULLs, and
        // Int sums that cross 2^53, where f64 addition starts to round.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let big = 1i64 << 52;
        let rows: Vec<Row> = (0..3 * CHUNK as i64 + 17)
            .map(|i| {
                let g = if i < 2 * CHUNK as i64 + 5 { 7 } else { (next() % 5) as i64 };
                let r = next();
                Row::new(vec![
                    Value::Int(g),
                    Value::Int(big + (r % 1000) as i64),
                    Value::Double((r % 10_000) as f64 / 7.0),
                    if r % 3 == 0 { Value::Null } else { Value::Double((r % 97) as f64 * 0.1) },
                ])
            })
            .collect();
        let batch = RowBatch::from_rows(rows.clone());
        let spec = |func, arg| AggSpec { func, arg, distinct: false };
        let aggs = vec![
            spec(AggFunc::Sum, Some(Expr::ColumnIdx(1))),
            spec(AggFunc::Avg, Some(Expr::ColumnIdx(1))),
            spec(AggFunc::Sum, Some(Expr::ColumnIdx(2))),
            spec(AggFunc::Sum, Some(Expr::ColumnIdx(3))),
            spec(AggFunc::Avg, Some(Expr::ColumnIdx(3))),
            spec(AggFunc::Count, Some(Expr::ColumnIdx(3))),
            spec(
                AggFunc::Sum,
                Some(Expr::binary(
                    BinOp::Mul,
                    Expr::ColumnIdx(2),
                    Expr::binary(BinOp::Sub, Expr::int(1), Expr::ColumnIdx(3)),
                )),
            ),
            spec(AggFunc::Count, None),
        ];
        let fused = fold_bits(&batch, &aggs);
        for (a, agg) in aggs.iter().enumerate() {
            let alone = fold_bits(&batch, std::slice::from_ref(agg));
            for (f, one) in fused.iter().zip(&alone) {
                assert_eq!((f[0], f[a + 1]), (one[0], one[1]), "{agg:?}");
            }
        }
        // The row engine folds value by value: the same bits.
        let mut reference = crate::operators::AggTable::new(vec![Expr::ColumnIdx(0)], aggs.clone());
        reference.update_batch(&rows, &ExecCtx::unrestricted()).unwrap();
        let mut want = RowBatch::from_rows(reference.finish().unwrap());
        want = want.with_sel(want.live_rows());
        let mut table = VecAggTable::new(vec![Expr::ColumnIdx(0)], aggs);
        table.update_batch(&batch).unwrap();
        let got = table.finish();
        let canon = |b: &RowBatch| {
            let mut rows: Vec<String> = b
                .to_rows()
                .iter()
                .map(|r| {
                    r.values()
                        .iter()
                        .map(|v| match v {
                            Value::Double(d) => format!("d{:x}", d.to_bits()),
                            v => format!("{v:?}"),
                        })
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(canon(&got), canon(&want));
    }
}
