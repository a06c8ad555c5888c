//! Columnar row batches for the AP engine.
//!
//! Its operators work on [`RowBatch`]es — ~[`BATCH_ROWS`] rows cut from a
//! scanned partition, or a selection range over a column-index snapshot —
//! instead of whole `Vec<Row>`s. A batch is columnar-major: one [`Lane`]
//! per column plus an optional selection vector, so filters narrow the
//! selection without copying data and projections of plain columns are
//! `Arc` clones. Lanes are typed when the column is monomorphic
//! (`ColumnData` reuse — the kernels' layout) and fall back to a `Value`
//! vector for mixed or all-NULL columns so no value is ever coerced, which
//! keeps the vectorized engine byte-identical to the row engine. A string
//! lane is dictionary-coded either way: a column-index lane shares the
//! index's deduped dictionary, a lane cut from rows gives each value its
//! own entry.
//!
//! Byte accounting is incremental: a batch's footprint is accumulated while
//! the batch is built and cached per lane, so memory-accounting reads are
//! O(width) instead of O(rows) (`RowBatch::bytes`).

use std::hash::Hasher;
use std::sync::Arc;

use polardbx_columnar::{ColumnData, Dictionary};
use polardbx_common::{Row, Value};

/// Target rows per batch.
pub const BATCH_ROWS: usize = 1024;

/// One column of a batch: typed columnar data or raw values.
#[derive(Debug)]
pub struct Lane {
    data: LaneData,
    /// Heap footprint of the lane's payload, accumulated at build time.
    bytes: usize,
}

#[derive(Debug)]
enum LaneData {
    /// Monomorphic column in kernel layout (dense vector + null bitmap),
    /// shared with the column index when the lane came from a snapshot.
    Col(Arc<ColumnData>),
    /// Mixed-type or Bytes column: exact values, no coercion.
    Vals(Vec<Value>),
}

/// [`LaneData`] borrowed, for the per-row loops to match on.
enum LaneRef<'a> {
    Col(&'a ColumnData),
    Vals(&'a [Value]),
}

impl Lane {
    /// Wrap an existing typed column (column-index snapshots) without
    /// copying it.
    pub fn from_column(col: Arc<ColumnData>) -> Lane {
        let bytes = col.heap_size();
        Lane { data: LaneData::Col(col), bytes }
    }

    fn data(&self) -> LaneRef<'_> {
        match &self.data {
            LaneData::Col(c) => LaneRef::Col(c),
            LaneData::Vals(v) => LaneRef::Vals(v),
        }
    }

    /// Build a lane from exact values, choosing a typed layout when the
    /// column is monomorphic (NULLs allowed) and a value vector otherwise.
    pub fn from_values(vals: Vec<Value>) -> Lane {
        // Sniff: a single non-null variant (Int/Double/Str/Date) gets a
        // typed lane; Bytes, mixed variants and all-NULL columns keep the
        // exact values so nothing is coerced.
        let mut tag: Option<u8> = None;
        let mut uniform = true;
        for v in &vals {
            let t = match v {
                Value::Null => continue,
                Value::Int(_) => 1,
                Value::Double(_) => 2,
                Value::Str(_) => 3,
                Value::Date(_) => 4,
                Value::Bytes(_) => {
                    uniform = false;
                    break;
                }
            };
            match tag {
                None => tag = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => {
                    uniform = false;
                    break;
                }
            }
        }
        let mut bytes = 0usize;
        if uniform {
            if let Some(tag) = tag {
                let n = vals.len();
                let data = match tag {
                    1 => {
                        let mut d = Vec::with_capacity(n);
                        let mut nulls = Vec::with_capacity(n);
                        for v in vals {
                            bytes += v.heap_size();
                            match v {
                                Value::Int(x) => {
                                    d.push(x);
                                    nulls.push(false);
                                }
                                _ => {
                                    d.push(0);
                                    nulls.push(true);
                                }
                            }
                        }
                        ColumnData::Int(d, nulls)
                    }
                    2 => {
                        let mut d = Vec::with_capacity(n);
                        let mut nulls = Vec::with_capacity(n);
                        for v in vals {
                            bytes += v.heap_size();
                            match v {
                                Value::Double(x) => {
                                    d.push(x);
                                    nulls.push(false);
                                }
                                _ => {
                                    d.push(0.0);
                                    nulls.push(true);
                                }
                            }
                        }
                        ColumnData::Double(d, nulls)
                    }
                    3 => {
                        // Each value its own dictionary entry (a NULL's
                        // is empty): the strings move, nothing is hashed.
                        let mut d = Vec::with_capacity(n);
                        let mut nulls = Vec::with_capacity(n);
                        for v in vals {
                            bytes += v.heap_size();
                            match v {
                                Value::Str(s) => {
                                    d.push(s);
                                    nulls.push(false);
                                }
                                _ => {
                                    d.push(String::new());
                                    nulls.push(true);
                                }
                            }
                        }
                        ColumnData::Str((0..n as u32).collect(), nulls, Dictionary::from_entries(d))
                    }
                    _ => {
                        let mut d = Vec::with_capacity(n);
                        let mut nulls = Vec::with_capacity(n);
                        for v in vals {
                            bytes += v.heap_size();
                            match v {
                                Value::Date(x) => {
                                    d.push(x);
                                    nulls.push(false);
                                }
                                _ => {
                                    d.push(0);
                                    nulls.push(true);
                                }
                            }
                        }
                        ColumnData::Date(d, nulls)
                    }
                };
                return Lane { data: LaneData::Col(Arc::new(data)), bytes };
            }
        }
        bytes = vals.iter().map(Value::heap_size).sum();
        Lane { data: LaneData::Vals(vals), bytes }
    }

    /// Number of physical rows.
    pub fn len(&self) -> usize {
        match &self.data {
            LaneData::Col(c) => c.len(),
            LaneData::Vals(v) => v.len(),
        }
    }

    /// True when the lane has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap footprint of the lane payload (cached at build time).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Value at physical row `i` (clones strings).
    pub fn get(&self, i: usize) -> Value {
        match &self.data {
            LaneData::Col(c) => c.get(i),
            LaneData::Vals(v) => v[i].clone(),
        }
    }

    /// Is physical row `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            LaneData::Col(c) => c.is_null(i),
            LaneData::Vals(v) => v[i].is_null(),
        }
    }

    /// The typed column, when this lane is monomorphic.
    pub fn column(&self) -> Option<&ColumnData> {
        match &self.data {
            LaneData::Col(c) => Some(c),
            LaneData::Vals(_) => None,
        }
    }

    /// Exact value reference for `Vals` lanes (typed lanes return `None`).
    pub fn value_ref(&self, i: usize) -> Option<&Value> {
        match &self.data {
            LaneData::Vals(v) => Some(&v[i]),
            LaneData::Col(_) => None,
        }
    }

    /// Key-identity hash of physical row `i` (see [`ident_hash_value`])
    /// without materializing a `Value`.
    pub fn ident_hash(&self, i: usize, h: &mut impl Hasher) {
        match self.data() {
            LaneRef::Col(ColumnData::Int(d, n)) => {
                if n[i] {
                    h.write_u8(0);
                } else {
                    h.write_u8(1);
                    h.write_i64(d[i]);
                }
            }
            LaneRef::Col(ColumnData::Double(d, n)) => {
                if n[i] {
                    h.write_u8(0);
                } else {
                    h.write_u8(2);
                    h.write_u64(d[i].to_bits());
                }
            }
            LaneRef::Col(ColumnData::Str(codes, n, dict)) => {
                if n[i] {
                    h.write_u8(0);
                } else {
                    h.write_u8(3);
                    h.write(dict.get(codes[i]).as_bytes());
                    h.write_u8(0xff);
                }
            }
            LaneRef::Col(ColumnData::Date(d, n)) => {
                if n[i] {
                    h.write_u8(0);
                } else {
                    h.write_u8(5);
                    h.write_i32(d[i]);
                }
            }
            LaneRef::Vals(v) => ident_hash_value(&v[i], h),
        }
    }

    /// SQL comparison of physical row `i` against a constant, without
    /// cloning string payloads. Mirrors [`Value::sql_cmp`] exactly.
    pub fn sql_cmp_const(&self, i: usize, v: &Value) -> Option<std::cmp::Ordering> {
        match self.data() {
            LaneRef::Col(ColumnData::Int(d, n)) => {
                if n[i] { Value::Null.sql_cmp(v) } else { Value::Int(d[i]).sql_cmp(v) }
            }
            LaneRef::Col(ColumnData::Double(d, n)) => {
                if n[i] { Value::Null.sql_cmp(v) } else { Value::Double(d[i]).sql_cmp(v) }
            }
            LaneRef::Col(ColumnData::Str(codes, n, dict)) => {
                if n[i] {
                    Value::Null.sql_cmp(v)
                } else {
                    str_sql_cmp(dict.get(codes[i]), v)
                }
            }
            LaneRef::Col(ColumnData::Date(d, n)) => {
                if n[i] { Value::Null.sql_cmp(v) } else { Value::Date(d[i]).sql_cmp(v) }
            }
            LaneRef::Vals(vals) => vals[i].sql_cmp(v),
        }
    }

    /// Key-identity equality of physical row `i` against `v` (see
    /// [`ident_eq`]) without materializing a `Value`.
    pub fn ident_eq(&self, i: usize, v: &Value) -> bool {
        match self.data() {
            LaneRef::Col(ColumnData::Int(d, n)) => match v {
                Value::Null => n[i],
                Value::Int(x) => !n[i] && d[i] == *x,
                _ => false,
            },
            LaneRef::Col(ColumnData::Double(d, n)) => match v {
                Value::Null => n[i],
                Value::Double(x) => !n[i] && d[i].to_bits() == x.to_bits(),
                _ => false,
            },
            LaneRef::Col(ColumnData::Str(codes, n, dict)) => match v {
                Value::Null => n[i],
                Value::Str(s) => !n[i] && dict.get(codes[i]) == s,
                _ => false,
            },
            LaneRef::Col(ColumnData::Date(d, n)) => match v {
                Value::Null => n[i],
                Value::Date(x) => !n[i] && d[i] == *x,
                _ => false,
            },
            LaneRef::Vals(vals) => ident_eq(&vals[i], v),
        }
    }
}

/// [`Value::sql_cmp`] of a non-NULL string against `v`: NULL sorts first,
/// another string compares by bytes, any other type is incomparable.
pub(crate) fn str_sql_cmp(s: &str, v: &Value) -> Option<std::cmp::Ordering> {
    match v {
        Value::Null => Some(std::cmp::Ordering::Greater),
        Value::Str(k) => Some(s.cmp(k.as_str())),
        _ => None,
    }
}

/// Hash a value the way [`polardbx_common::Key::encode`] identifies it:
/// variant tag plus exact payload bits. `Int(5)` and `Double(5.0)` — which
/// compare equal under SQL — hash (and compare) as *different* keys, which
/// is exactly what the row engine's encoded group/join keys do.
pub fn ident_hash_value(v: &Value, h: &mut impl Hasher) {
    match v {
        Value::Null => h.write_u8(0),
        Value::Int(x) => {
            h.write_u8(1);
            h.write_i64(*x);
        }
        Value::Double(x) => {
            h.write_u8(2);
            h.write_u64(x.to_bits());
        }
        Value::Str(s) => {
            h.write_u8(3);
            h.write(s.as_bytes());
            h.write_u8(0xff);
        }
        Value::Bytes(b) => {
            h.write_u8(4);
            h.write(b);
            h.write_u8(0xff);
        }
        Value::Date(d) => {
            h.write_u8(5);
            h.write_i32(*d);
        }
    }
}

/// Key-identity equality: same variant and same payload bits (NULL equals
/// NULL, doubles by bit pattern) — the equivalence induced by
/// `Key::encode`, *not* SQL `=` (which coerces across numeric types).
pub fn ident_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bytes(x), Value::Bytes(y)) => x == y,
        (Value::Date(x), Value::Date(y)) => x == y,
        _ => false,
    }
}

/// splitmix64 finalizer: a cheap, well-mixed 64→64-bit hash. Identity-key
/// hashing runs once per row in joins and aggregation, and the common key
/// is a single fixed-width value — a direct integer mix skips SipHash's
/// per-hash setup and byte streaming entirely. Collisions are safe: every
/// slot lookup verifies with `ident_eq`.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// Per-variant salts so `Int(5)`, `Double(5.0)`, and `Date(5)` land in
// different buckets despite sharing payload bits.
const TAG_NULL: u64 = 0x9ae1_6a3b_2f90_404f;
const TAG_INT: u64 = 0x3c79_ac49_2ba7_b653;
const TAG_DOUBLE: u64 = 0x1c69_b3f7_4ac4_ab55;
const TAG_DATE: u64 = 0x8cb9_2ba7_2f3d_8dd7;

/// Key-identity hash of a *single* value. Same equivalence as streaming
/// [`ident_hash_value`] into a hasher, but fixed-width variants take the
/// direct-mix fast path. Every single-key index (aggregation groups, join
/// slots) must use this on both build and probe side — mixing this with
/// the streamed composite hash for the same keys silently breaks merges.
pub fn ident_hash_one(v: &Value) -> u64 {
    match v {
        Value::Null => mix64(TAG_NULL),
        Value::Int(x) => mix64(*x as u64 ^ TAG_INT),
        Value::Double(x) => mix64(x.to_bits() ^ TAG_DOUBLE),
        Value::Date(d) => mix64(*d as u64 ^ TAG_DATE),
        Value::Str(_) | Value::Bytes(_) => {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            ident_hash_value(v, &mut h);
            h.finish()
        }
    }
}

impl Lane {
    /// Single-key identity hash of physical row `i`; agrees with
    /// [`ident_hash_one`] on the equivalent `Value`.
    pub fn ident_hash_row(&self, i: usize) -> u64 {
        match self.data() {
            LaneRef::Col(ColumnData::Int(d, n)) => {
                if n[i] { mix64(TAG_NULL) } else { mix64(d[i] as u64 ^ TAG_INT) }
            }
            LaneRef::Col(ColumnData::Double(d, n)) => {
                if n[i] { mix64(TAG_NULL) } else { mix64(d[i].to_bits() ^ TAG_DOUBLE) }
            }
            LaneRef::Col(ColumnData::Date(d, n)) => {
                if n[i] { mix64(TAG_NULL) } else { mix64(d[i] as u64 ^ TAG_DATE) }
            }
            LaneRef::Col(ColumnData::Str(codes, n, dict)) => {
                if n[i] {
                    mix64(TAG_NULL)
                } else {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    h.write_u8(3);
                    h.write(dict.get(codes[i]).as_bytes());
                    h.write_u8(0xff);
                    h.finish()
                }
            }
            LaneRef::Vals(v) => ident_hash_one(&v[i]),
        }
    }
}

/// Hash a composite key from lane positions. Single-column keys take the
/// [`ident_hash_one`] fast path; wider keys stream all parts into one
/// hasher. Must stay consistent with [`ident_hash_values`].
pub fn ident_hash_lanes(lanes: &[Arc<Lane>], cols: &[usize], row: usize) -> u64 {
    if let [c] = cols {
        return lanes[*c].ident_hash_row(row);
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &c in cols {
        lanes[c].ident_hash(row, &mut h);
    }
    h.finish()
}

/// Hash a composite key from values; consistent with [`ident_hash_lanes`].
pub fn ident_hash_values(vals: &[Value]) -> u64 {
    if let [v] = vals {
        return ident_hash_one(v);
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in vals {
        ident_hash_value(v, &mut h);
    }
    h.finish()
}

/// A columnar batch of rows: shared lanes plus a selection vector.
#[derive(Debug, Clone)]
pub struct RowBatch {
    lanes: Vec<Arc<Lane>>,
    /// Physical row ids that are live; `None` means all rows.
    sel: Option<Vec<u32>>,
}

impl RowBatch {
    /// Build a batch from materialized rows (values are moved, not cloned).
    /// Columns are sniffed into typed lanes where monomorphic.
    pub fn from_rows(rows: Vec<Row>) -> RowBatch {
        let width = rows.first().map(|r| r.arity()).unwrap_or(0);
        let n = rows.len();
        let mut cols: Vec<Vec<Value>> = (0..width).map(|_| Vec::with_capacity(n)).collect();
        for row in rows {
            for (c, v) in row.into_values().into_iter().enumerate() {
                if c < width {
                    cols[c].push(v);
                }
            }
        }
        let lanes = cols.into_iter().map(|vals| Arc::new(Lane::from_values(vals))).collect();
        RowBatch { lanes, sel: None }
    }

    /// Batch with the given lanes and selection.
    pub fn new(lanes: Vec<Arc<Lane>>, sel: Option<Vec<u32>>) -> RowBatch {
        RowBatch { lanes, sel }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Number of live (selected) rows.
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.lanes.first().map(|l| l.len()).unwrap_or(0),
        }
    }

    /// The lanes.
    pub fn lanes(&self) -> &[Arc<Lane>] {
        &self.lanes
    }

    /// Lane `c`.
    pub fn lane(&self, c: usize) -> &Lane {
        &self.lanes[c]
    }

    /// The selection vector, if narrowed.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Replace the selection vector.
    pub fn with_sel(&self, sel: Vec<u32>) -> RowBatch {
        RowBatch { lanes: self.lanes.clone(), sel: Some(sel) }
    }

    /// Iterate physical row ids of live rows.
    pub fn live_rows(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.clone(),
            None => (0..self.lanes.first().map(|l| l.len()).unwrap_or(0) as u32).collect(),
        }
    }

    /// Approximate heap footprint chargeable to this batch. Reads the
    /// per-lane byte counts accumulated at build time — O(width), not
    /// O(rows).
    pub fn bytes(&self) -> usize {
        let lane_bytes: usize = self.lanes.iter().map(|l| l.bytes()).sum();
        lane_bytes + 24 * self.num_rows()
    }

    /// Materialize one physical row.
    pub fn row_at(&self, phys: usize) -> Row {
        Row::new(self.lanes.iter().map(|l| l.get(phys)).collect())
    }

    /// Materialize all live rows.
    pub fn to_rows(&self) -> Vec<Row> {
        match &self.sel {
            Some(s) => s.iter().map(|&i| self.row_at(i as usize)).collect(),
            None => (0..self.num_rows()).map(|i| self.row_at(i)).collect(),
        }
    }
}

/// Chunk rows into batches of at most [`BATCH_ROWS`].
pub fn batches_of(mut rows: Vec<Row>) -> Vec<RowBatch> {
    if rows.len() <= BATCH_ROWS {
        if rows.is_empty() {
            return Vec::new();
        }
        return vec![RowBatch::from_rows(rows)];
    }
    let mut out = Vec::with_capacity(rows.len() / BATCH_ROWS + 1);
    while !rows.is_empty() {
        let rest = rows.split_off(rows.len().min(BATCH_ROWS));
        out.push(RowBatch::from_rows(std::mem::replace(&mut rows, rest)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_lane_roundtrip_with_nulls() {
        let lane = Lane::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(lane.column().is_some(), "monomorphic column gets a typed lane");
        assert_eq!(lane.get(0), Value::Int(1));
        assert!(lane.is_null(1));
        assert_eq!(lane.get(2), Value::Int(3));
    }

    #[test]
    fn mixed_lane_preserves_exact_values() {
        let lane = Lane::from_values(vec![Value::Int(1), Value::Double(2.5)]);
        assert!(lane.column().is_none(), "mixed column must not coerce");
        assert_eq!(lane.get(0), Value::Int(1));
        assert!(matches!(lane.get(1), Value::Double(_)));
    }

    #[test]
    fn ident_semantics_match_key_encoding() {
        // Int(5) and Double(5.0) compare equal under SQL but are distinct
        // encoded keys — ident_eq must keep them distinct.
        assert_eq!(Value::Int(5), Value::Double(5.0));
        assert!(!ident_eq(&Value::Int(5), &Value::Double(5.0)));
        assert!(ident_eq(&Value::Null, &Value::Null));
        assert!(!ident_eq(&Value::Double(0.0), &Value::Double(-0.0)));
        assert_ne!(
            ident_hash_values(&[Value::Int(5)]),
            ident_hash_values(&[Value::Double(5.0)])
        );
    }

    #[test]
    fn lane_hash_agrees_with_value_hash() {
        let vals =
            vec![Value::Int(7), Value::Null, Value::str("abc"), Value::Double(1.25)];
        for v in &vals {
            let lane = Lane::from_values(vec![v.clone()]);
            let mut a = std::collections::hash_map::DefaultHasher::new();
            lane.ident_hash(0, &mut a);
            let mut b = std::collections::hash_map::DefaultHasher::new();
            ident_hash_value(v, &mut b);
            assert_eq!(
                std::hash::Hasher::finish(&a),
                std::hash::Hasher::finish(&b),
                "lane/value hash mismatch for {v:?}"
            );
            assert!(lane.ident_eq(0, v));
        }
    }

    #[test]
    fn batch_bytes_is_incremental_and_matches_row_accounting() {
        let rows: Vec<Row> = (0..10)
            .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("s{i}"))]))
            .collect();
        let row_total: usize = rows.iter().map(Row::heap_size).sum();
        let batch = RowBatch::from_rows(rows);
        assert_eq!(batch.bytes(), row_total);
    }

    #[test]
    fn batches_of_chunks_and_roundtrips() {
        let rows: Vec<Row> =
            (0..2500i64).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let batches = batches_of(rows.clone());
        assert_eq!(batches.len(), 3);
        let back: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        assert_eq!(back, rows);
    }
}
