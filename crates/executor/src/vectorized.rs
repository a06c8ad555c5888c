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

use std::collections::HashMap;

use polardbx_columnar::ColumnData;
use polardbx_common::time::Timer;
use polardbx_common::{Error, Result, Row, Value};
use polardbx_sql::expr::{like_match, AggFunc, BinOp, Expr};
use polardbx_sql::plan::{split_conjuncts, AggSpec, LogicalPlan};

use crate::batch::{
    ident_eq, ident_hash_lanes, ident_hash_one, ident_hash_value, ident_hash_values, Lane,
    RowBatch,
};
use crate::exec_metrics::exec_metrics;
use crate::operators::{AggState, ExecCtx};

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
                    // BETWEEN is total in the row engine: incomparable
                    // bounds are simply "no match", never an error.
                    let lane = batch.lane(*c);
                    let mut out = Vec::with_capacity(live.len());
                    for &i in &live {
                        use std::cmp::Ordering::*;
                        let ge = matches!(
                            lane.sql_cmp_const(i as usize, lo),
                            Some(Greater | Equal)
                        );
                        let le =
                            matches!(lane.sql_cmp_const(i as usize, hi), Some(Less | Equal));
                        if ge && le {
                            out.push(i);
                        }
                    }
                    Ok(out)
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
                    Some(ColumnData::Str(data, nulls)) => {
                        // Prefix patterns reduce to starts_with.
                        let prefix = (pattern.ends_with('%')
                            && !pattern[..pattern.len() - 1].contains(['%', '_']))
                        .then(|| &pattern[..pattern.len() - 1]);
                        let mut out = Vec::with_capacity(live.len());
                        for &i in &live {
                            if nulls[i as usize] {
                                // The row engine calls `as_str()` on the
                                // value, which errors on NULL.
                                return Err(Error::execution(format!(
                                    "expected string, got {}",
                                    Value::Null
                                )));
                            }
                            let s = &data[i as usize];
                            let keep = match prefix {
                                Some(p) => s.starts_with(p),
                                None => like_match(s, pattern),
                            };
                            if keep {
                                out.push(i);
                            }
                        }
                        Ok(out)
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
        (Some(ColumnData::Str(data, nulls)), Value::Str(s)) => {
            for &i in live {
                if !nulls[i as usize] && cmp_keep(op, data[i as usize].as_str().cmp(s)) {
                    out.push(i);
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
/// error.
fn filter_in_lane(lane: &Lane, live: &[u32], members: &[&Value], negated: bool) -> Vec<u32> {
    use std::cmp::Ordering::Equal;
    live.iter()
        .copied()
        .filter(|&i| {
            let found = members.iter().any(|m| lane.sql_cmp_const(i as usize, m) == Some(Equal));
            found != negated
        })
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

/// Build side of a hash join: hashed key slots over the build rows, with
/// collision verification against the stored rows (no per-row key
/// allocation or value clones).
pub(crate) struct JoinBuild {
    rows: Vec<Row>,
    key_cols: Vec<usize>,
    slots: HashMap<u64, Vec<u32>>,
}

impl JoinBuild {
    /// Hash `rows` on `key_cols`. NULL keys participate (they match other
    /// NULLs), exactly like the row engine's encoded keys.
    pub(crate) fn build(rows: Vec<Row>, key_cols: Vec<usize>) -> Result<JoinBuild> {
        let mut slots: HashMap<u64, Vec<u32>> = HashMap::with_capacity(rows.len());
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
            slots.entry(hash).or_default().push(idx as u32);
        }
        Ok(JoinBuild { rows, key_cols, slots })
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
            let Some(candidates) = self.slots.get(&hash) else {
                continue;
            };
            let mut right_row: Option<Row> = None;
            for &bidx in candidates {
                let build_row = &self.rows[bidx as usize];
                let matches = self
                    .key_cols
                    .iter()
                    .zip(probe_cols)
                    .all(|(&lc, &rc)| {
                        build_row
                            .get(lc)
                            .map(|v| batch.lane(rc).ident_eq(phys, v))
                            .unwrap_or(false)
                    });
                if !matches {
                    continue;
                }
                let right =
                    right_row.get_or_insert_with(|| batch.row_at(phys));
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

/// How one group-key column is produced per row.
enum KeyPlan {
    Lane(usize),
    Eval(Expr),
}

/// How one aggregate argument is produced per row.
enum ArgPlan {
    Star,
    Lane(usize),
    Num(NumVec, Vec<bool>),
    Eval(Expr),
}

/// Open-addressed slot index mapping precomputed key hashes to group ids:
/// linear probing over a power-of-two table of `(hash, gid)` pairs. The
/// caller verifies candidate groups against the stored keys, so hash
/// collisions are expected and safe. Compared with `HashMap<u64, Vec<u32>>`
/// this skips re-hashing the already-mixed u64 and the per-slot `Vec`
/// allocation — both of which sit on the per-row aggregation path.
struct SlotIndex {
    entries: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

/// Free-slot marker; group ids are bounded well below `u32::MAX` groups.
const EMPTY: u32 = u32::MAX;

impl SlotIndex {
    fn new() -> SlotIndex {
        SlotIndex { entries: vec![(0, EMPTY); 16], mask: 15, len: 0 }
    }

    /// First gid stored under `hash` for which `matches` verifies. Probing
    /// stops at the first free slot, so entries are never deleted.
    fn find(&self, hash: u64, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = hash as usize & self.mask;
        loop {
            let (h, g) = self.entries[i];
            if g == EMPTY {
                return None;
            }
            if h == hash && matches(g) {
                return Some(g);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Record a new group id under `hash` (grows at 75% load).
    fn insert(&mut self, hash: u64, gid: u32) {
        if (self.len + 1) * 4 > self.entries.len() * 3 {
            self.grow();
        }
        let mut i = hash as usize & self.mask;
        while self.entries[i].1 != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.entries[i] = (hash, gid);
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, vec![(0, EMPTY); cap]);
        self.mask = cap - 1;
        for (h, g) in old {
            if g != EMPTY {
                let mut i = h as usize & self.mask;
                while self.entries[i].1 != EMPTY {
                    i = (i + 1) & self.mask;
                }
                self.entries[i] = (h, g);
            }
        }
    }
}

/// Hash-aggregation over batches with hashed key slots: group keys hash
/// straight out of the lanes (no `Vec<u8>` encode, no value clones); a
/// collision is resolved by verifying against the group's stored key
/// values. Group identity matches `Key::encode` exactly.
pub struct VecAggTable {
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    index: SlotIndex,
    keys: Vec<Vec<Value>>,
    states: Vec<Vec<AggState>>,
}

impl VecAggTable {
    /// Empty table for the given grouping.
    pub fn new(group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> VecAggTable {
        VecAggTable {
            group_by,
            aggs,
            index: SlotIndex::new(),
            keys: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Fold one batch. The caller ticks its rows.
    pub fn update_batch(&mut self, batch: &RowBatch) -> Result<()> {
        let live = batch.live_rows();
        let key_plans: Vec<KeyPlan> = self
            .group_by
            .iter()
            .map(|g| match g {
                Expr::ColumnIdx(c) if *c < batch.width() => KeyPlan::Lane(*c),
                other => KeyPlan::Eval(other.clone()),
            })
            .collect();
        let mut arg_plans: Vec<ArgPlan> = Vec::with_capacity(self.aggs.len());
        for spec in &self.aggs {
            let plan = match &spec.arg {
                None => ArgPlan::Star,
                Some(Expr::ColumnIdx(c)) if *c < batch.width() => ArgPlan::Lane(*c),
                Some(e) => {
                    let fast = !spec.distinct
                        && matches!(spec.func, AggFunc::Count | AggFunc::Sum | AggFunc::Avg);
                    match fast.then(|| eval_num(e, batch, &live)).flatten() {
                        Some((v, nulls)) => ArgPlan::Num(v, nulls),
                        None => ArgPlan::Eval(e.clone()),
                    }
                }
            };
            arg_plans.push(plan);
        }
        let needs_row = key_plans.iter().any(|k| matches!(k, KeyPlan::Eval(_)))
            || arg_plans.iter().any(|a| matches!(a, ArgPlan::Eval(_)));

        let mut eval_keys: Vec<Value> = Vec::with_capacity(key_plans.len());
        for (pos, &i) in live.iter().enumerate() {
            let phys = i as usize;
            let row = if needs_row { Some(batch.row_at(phys)) } else { None };
            // Group hash straight from the lanes; single-column keys take
            // the direct-mix fast path (consistent with
            // `ident_hash_values`, which `merge` uses on stored keys).
            eval_keys.clear();
            let hash = if let [kp] = key_plans.as_slice() {
                match kp {
                    KeyPlan::Lane(c) => batch.lane(*c).ident_hash_row(phys),
                    KeyPlan::Eval(e) => {
                        let v = e.eval(row.as_ref().expect("row materialized"))?;
                        let h = ident_hash_one(&v);
                        eval_keys.push(v);
                        h
                    }
                }
            } else {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                for kp in &key_plans {
                    match kp {
                        KeyPlan::Lane(c) => batch.lane(*c).ident_hash(phys, &mut h),
                        KeyPlan::Eval(e) => {
                            let v = e.eval(row.as_ref().expect("row materialized"))?;
                            ident_hash_value(&v, &mut h);
                            eval_keys.push(v);
                        }
                    }
                }
                std::hash::Hasher::finish(&h)
            };
            // Find the group, verifying stored keys against the row
            // (collision handling).
            let keys = &self.keys;
            let found = self.index.find(hash, |g| {
                let stored = &keys[g as usize];
                let mut ei = 0;
                key_plans.iter().enumerate().all(|(k, kp)| match kp {
                    KeyPlan::Lane(c) => batch.lane(*c).ident_eq(phys, &stored[k]),
                    KeyPlan::Eval(_) => {
                        let ok = ident_eq(&eval_keys[ei], &stored[k]);
                        ei += 1;
                        ok
                    }
                })
            });
            let gid = match found {
                Some(g) => g as usize,
                None => {
                    let g = self.keys.len();
                    let mut ei = 0;
                    let key_vals: Vec<Value> = key_plans
                        .iter()
                        .map(|kp| match kp {
                            KeyPlan::Lane(c) => batch.lane(*c).get(phys),
                            KeyPlan::Eval(_) => {
                                let v = eval_keys[ei].clone();
                                ei += 1;
                                v
                            }
                        })
                        .collect();
                    self.index.insert(hash, g as u32);
                    self.keys.push(key_vals);
                    self.states
                        .push(self.aggs.iter().map(AggState::new).collect());
                    g
                }
            };
            // Fold the aggregates.
            let states = &mut self.states[gid];
            for ((state, spec), plan) in states.iter_mut().zip(&self.aggs).zip(&arg_plans) {
                match plan {
                    ArgPlan::Star => state.update(None),
                    ArgPlan::Lane(c) => {
                        let lane = batch.lane(*c);
                        if lane.is_null(phys) {
                            continue; // NULL never aggregates
                        }
                        if spec.distinct
                            || matches!(spec.func, AggFunc::Min | AggFunc::Max)
                        {
                            state.update(Some(&lane.get(phys)));
                        } else {
                            match lane.column() {
                                Some(ColumnData::Int(d, _)) => {
                                    state.add_num(d[phys] as f64, true)
                                }
                                Some(ColumnData::Double(d, _)) => {
                                    state.add_num(d[phys], false)
                                }
                                Some(_) => state.bump_count(),
                                None => state.update(Some(
                                    lane.value_ref(phys).expect("vals lane"),
                                )),
                            }
                        }
                    }
                    ArgPlan::Num(v, nulls) => {
                        if nulls[pos] {
                            continue;
                        }
                        match v {
                            NumVec::Int(d) => state.add_num(d[pos] as f64, true),
                            NumVec::Double(d) => state.add_num(d[pos], false),
                        }
                    }
                    ArgPlan::Eval(e) => {
                        let v = e.eval(row.as_ref().expect("row materialized"))?;
                        state.update(Some(&v));
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge a partial table from another morsel worker.
    pub fn merge(&mut self, other: VecAggTable) {
        for (key, states) in other.keys.into_iter().zip(other.states) {
            let hash = ident_hash_values(&key);
            let keys = &self.keys;
            let found = self.index.find(hash, |g| {
                keys[g as usize].iter().zip(&key).all(|(a, b)| ident_eq(a, b))
            });
            match found {
                Some(g) => {
                    for (mine, theirs) in
                        self.states[g as usize].iter_mut().zip(&states)
                    {
                        mine.merge(theirs);
                    }
                }
                None => {
                    let g = self.keys.len() as u32;
                    self.index.insert(hash, g);
                    self.keys.push(key);
                    self.states.push(states);
                }
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
        for (key, states) in self.keys.into_iter().zip(&self.states) {
            let mut row = key;
            row.extend(states.iter().map(AggState::finish));
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
