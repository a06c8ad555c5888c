//! Columnar row batches for the AP engine.
//!
//! Its operators work on [`RowBatch`]es — ~[`BATCH_ROWS`] rows cut from a
//! scanned partition, a selection range over a column-index snapshot, or
//! what a join, an aggregate or a sort made of those — instead of whole
//! `Vec<Row>`s. A batch is columnar-major: one [`Lane`] per column plus an
//! optional selection vector, so filters narrow the selection without
//! copying data, projections of plain columns are `Arc` clones, and a join
//! gathers each output lane at most once — when something first reads it
//! (a pending lane, [`Lane::lazy`]): a column nothing above the join reads
//! is never copied. Lanes are typed when the column is monomorphic
//! (`ColumnData` reuse — the kernels' layout) and fall back to a `Value`
//! vector for mixed or all-NULL columns so no value is ever coerced, which
//! keeps the vectorized engine byte-identical to the row engine. A string
//! lane is dictionary-coded either way: a column-index lane shares the
//! index's deduped dictionary, and so does every lane gathered out of it;
//! a lane cut from rows interns each distinct value once.
//!
//! Rows exist only where a batch is turned into them: the answer, counted
//! in [`crate::ExecMetrics::materialized`], and the scalar fallback for an
//! expression no lane loop covers, counted there too.
//!
//! Byte accounting is incremental: a batch's footprint is accumulated while
//! the batch is built and cached per lane, so memory-accounting reads are
//! O(width) instead of O(rows) (`RowBatch::bytes`).

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use polardbx_columnar::{ColumnData, Dictionary};
use polardbx_common::{Row, Value};

use crate::exec_metrics::exec_metrics;

/// Target rows per batch.
pub const BATCH_ROWS: usize = 1024;

/// One column of a batch: typed columnar data or raw values, or rows of
/// other lanes still to be copied.
#[derive(Debug)]
pub struct Lane {
    state: LaneState,
    /// Heap footprint of the lane's payload, accumulated at build time. A
    /// pending lane counts 8 bytes a row, whatever it will hold: a lower
    /// bound for strings and `Value`s.
    bytes: usize,
}

#[derive(Debug)]
enum LaneState {
    Ready(LaneData),
    /// The rows `ids` of each part, one part after another, copied into a
    /// lane of their own the first time anything reads one: the lanes of
    /// a join's output, or of its build side, that nothing above reads are
    /// never copied. The copy takes the parts, so the lanes they hold are
    /// released once it is made.
    Pending {
        parts: Mutex<Box<[Part]>>,
        len: usize,
        done: OnceLock<Box<Lane>>,
    },
}

/// Rows of a lane: which, and in what order.
pub(crate) type Part = (Arc<Lane>, Arc<[u32]>);

#[derive(Debug)]
enum LaneData {
    /// Monomorphic column in kernel layout (dense vector + null bitmap),
    /// shared with the column index when the lane came from a snapshot.
    Col(Arc<ColumnData>),
    /// Mixed-type or Bytes column: exact values, no coercion.
    Vals(Vec<Value>),
}

/// One value of a group or join key, borrowed from wherever it lives (a
/// lane, a key column being built, a `Value`). Equality is key identity,
/// the equivalence `Key::encode` induces: same variant and same payload
/// bits, so NULL equals NULL, doubles compare by bit pattern, and `Int(5)`
/// and `Double(5.0)` — equal under SQL — are different keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyRef<'a> {
    Null,
    Int(i64),
    /// The bit pattern.
    Double(u64),
    Str(&'a str),
    Date(i32),
    Bytes(&'a [u8]),
}

impl<'a> KeyRef<'a> {
    pub(crate) fn of(v: &'a Value) -> KeyRef<'a> {
        match v {
            Value::Null => KeyRef::Null,
            Value::Int(x) => KeyRef::Int(*x),
            Value::Double(x) => KeyRef::Double(x.to_bits()),
            Value::Str(s) => KeyRef::Str(s),
            Value::Date(d) => KeyRef::Date(*d),
            Value::Bytes(b) => KeyRef::Bytes(b),
        }
    }

    fn to_value(self) -> Value {
        match self {
            KeyRef::Null => Value::Null,
            KeyRef::Int(x) => Value::Int(x),
            KeyRef::Double(b) => Value::Double(f64::from_bits(b)),
            KeyRef::Str(s) => Value::Str(s.to_string()),
            KeyRef::Date(d) => Value::Date(d),
            KeyRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }

    /// [`Value::heap_size`] of the value this key reads.
    fn heap_size(self) -> usize {
        match self {
            KeyRef::Null => 0,
            KeyRef::Int(_) | KeyRef::Double(_) | KeyRef::Date(_) => 8,
            KeyRef::Str(s) => s.len() + 24,
            KeyRef::Bytes(b) => b.len() + 24,
        }
    }

    /// The key-identity hash. Each typed lane loop ([`hash_keys`]) computes
    /// exactly this per row.
    pub(crate) fn hash(self) -> u64 {
        match self {
            KeyRef::Null => NULL_HASH,
            KeyRef::Int(x) => int_hash(x),
            KeyRef::Double(b) => mix64(b ^ TAG_DOUBLE),
            KeyRef::Str(s) => bytes_hash(s.as_bytes(), TAG_STR),
            KeyRef::Date(d) => date_hash(d),
            KeyRef::Bytes(b) => bytes_hash(b, TAG_BYTES),
        }
    }
}

/// A key lane's data, resolved once per batch: what a join probe hashes
/// and compares row by row without going through the lane each time.
#[derive(Clone, Copy)]
pub(crate) enum KeyCol<'a> {
    Int(&'a [i64], &'a [bool]),
    Double(&'a [f64], &'a [bool]),
    Date(&'a [i32], &'a [bool]),
    Str(&'a [u32], &'a [bool], &'a Dictionary),
    Vals(&'a [Value]),
}

impl KeyCol<'_> {
    /// Physical row `i` as a key.
    pub(crate) fn key(&self, i: usize) -> KeyRef<'_> {
        match *self {
            KeyCol::Int(_, n) | KeyCol::Double(_, n) | KeyCol::Date(_, n) | KeyCol::Str(_, n, _)
                if n[i] =>
            {
                KeyRef::Null
            }
            KeyCol::Int(d, _) => KeyRef::Int(d[i]),
            KeyCol::Double(d, _) => KeyRef::Double(d[i].to_bits()),
            KeyCol::Date(d, _) => KeyRef::Date(d[i]),
            KeyCol::Str(codes, _, dict) => KeyRef::Str(dict.get(codes[i])),
            KeyCol::Vals(v) => KeyRef::of(&v[i]),
        }
    }

    /// Do row `i` of `self` and row `j` of `other` hold the same key?
    /// `codes` says the two are coded strings whose codes agree
    /// ([`Dictionary::codes_agree`]): one code then stands for one string
    /// on both sides, so equal codes are equal keys. Different codes still
    /// compare their strings — a dictionary cut from rows holds a string
    /// once per row.
    pub(crate) fn same(&self, i: usize, other: &KeyCol, j: usize, codes: bool) -> bool {
        fn typed<T: PartialEq>(a: (&[T], &[bool]), i: usize, b: (&[T], &[bool]), j: usize) -> bool {
            a.1[i] == b.1[j] && (a.1[i] || a.0[i] == b.0[j])
        }
        match (*self, *other) {
            (KeyCol::Int(a, an), KeyCol::Int(b, bn)) => typed((a, an), i, (b, bn), j),
            (KeyCol::Date(a, an), KeyCol::Date(b, bn)) => typed((a, an), i, (b, bn), j),
            (KeyCol::Str(a, an, _), KeyCol::Str(b, bn, _))
                if codes && (an[i] || bn[j] || a[i] == b[j]) =>
            {
                an[i] == bn[j]
            }
            _ => self.key(i) == other.key(j),
        }
    }
}

/// splitmix64 finalizer: a cheap, well-mixed 64→64-bit hash. Identity-key
/// hashing runs once per row in joins and aggregation; collisions are safe,
/// because every slot lookup verifies the key.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// Per-variant salts so `Int(5)`, `Double(5.0)`, and `Date(5)` land in
// different buckets despite sharing payload bits.
const TAG_INT: u64 = 0x3c79_ac49_2ba7_b653;
const TAG_DOUBLE: u64 = 0x1c69_b3f7_4ac4_ab55;
const TAG_DATE: u64 = 0x8cb9_2ba7_2f3d_8dd7;
const TAG_STR: u64 = 0x5851_f42d_4c95_7f2d;
const TAG_BYTES: u64 = 0x1405_7b7e_f767_814f;
pub(crate) const NULL_HASH: u64 = 0x2545_f491_4f6c_dd1d;

/// The hash of a key with no columns (a cross join's).
const EMPTY_KEY: u64 = 0;

#[inline]
pub(crate) fn int_hash(x: i64) -> u64 {
    mix64(x as u64 ^ TAG_INT)
}

#[inline]
fn date_hash(d: i32) -> u64 {
    mix64(d as u64 ^ TAG_DATE)
}

/// A string's or byte string's hash, eight bytes per mixing round.
fn bytes_hash(b: &[u8], tag: u64) -> u64 {
    let mut h = tag ^ b.len() as u64;
    let mut chunks = b.chunks_exact(8);
    for c in &mut chunks {
        h = mix64(h ^ u64::from_le_bytes(c.try_into().expect("eight bytes")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = mix64(h ^ u64::from_le_bytes(tail));
    }
    mix64(h)
}

/// Fold one more key column's hash into a composite key's.
#[inline]
fn combine(acc: u64, h: u64) -> u64 {
    mix64(acc.rotate_left(23) ^ h)
}

/// The composite hash of a key's columns, as [`hash_keys`] computes it.
pub(crate) fn key_hash<'a>(parts: impl IntoIterator<Item = KeyRef<'a>>) -> u64 {
    parts.into_iter().map(KeyRef::hash).reduce(combine).unwrap_or(EMPTY_KEY)
}

/// The key hash of `n` rows over key columns `keys`: column `k` reads row
/// `ids[pos]` of its lane for row `pos`. One typed pass per column; a
/// coded string column hashes each dictionary entry once when the
/// dictionary is no larger than the rows. Agrees with [`key_hash`].
pub(crate) fn hash_keys(keys: &[(&Lane, &[u32])], n: usize) -> Vec<u64> {
    let mut out = vec![EMPTY_KEY; n];
    for (k, (lane, ids)) in keys.iter().enumerate() {
        lane.hash_into(ids, &mut out, k == 0);
    }
    out
}

impl Lane {
    /// Wrap an existing typed column (column-index snapshots) without
    /// copying it.
    pub fn from_column(col: Arc<ColumnData>) -> Lane {
        let bytes = col.heap_size();
        Lane { state: LaneState::Ready(LaneData::Col(col)), bytes }
    }

    /// `n` rows of NULL: what stands in for a column nothing reads.
    pub(crate) fn nulls(n: usize) -> Lane {
        Lane::from_column(Arc::new(ColumnData::Int(vec![0; n], vec![true; n])))
    }

    /// The rows `ids` of each part's lane, one part after another, copied
    /// when first read ([`Lane::concat_now`]). A part's `ids` may be shared
    /// by every lane of its batch.
    pub(crate) fn lazy(parts: Vec<Part>) -> Lane {
        let len = parts.iter().map(|(_, ids)| ids.len()).sum();
        let state =
            LaneState::Pending { parts: Mutex::new(parts.into()), len, done: OnceLock::new() };
        Lane { state, bytes: len * 8 }
    }

    /// The rows `ids` of `lane`, in that order, copied when first read.
    pub(crate) fn gather(lane: &Arc<Lane>, ids: &Arc<[u32]>) -> Lane {
        Lane::lazy(vec![(Arc::clone(lane), Arc::clone(ids))])
    }

    /// The lane's data, copying a pending lane's rows on first use.
    fn data(&self) -> &LaneData {
        match &self.state {
            LaneState::Ready(data) => data,
            LaneState::Pending { parts, done, .. } => done
                .get_or_init(|| {
                    let taken = std::mem::take(&mut *parts.lock());
                    let parts: Vec<(&Lane, &[u32])> =
                        taken.iter().map(|(lane, ids)| (lane.as_ref(), ids.as_ref())).collect();
                    Box::new(Lane::concat_now(&parts))
                })
                .data(),
        }
    }

    /// Number of physical rows.
    pub fn len(&self) -> usize {
        match &self.state {
            LaneState::Pending { len, .. } => *len,
            LaneState::Ready(LaneData::Col(c)) => c.len(),
            LaneState::Ready(LaneData::Vals(v)) => v.len(),
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
        match self.data() {
            LaneData::Col(c) => c.get(i),
            LaneData::Vals(v) => v[i].clone(),
        }
    }

    /// Is physical row `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match self.data() {
            LaneData::Col(c) => c.is_null(i),
            LaneData::Vals(v) => v[i].is_null(),
        }
    }

    /// The typed column, when this lane is monomorphic.
    pub fn column(&self) -> Option<&ColumnData> {
        match self.data() {
            LaneData::Col(c) => Some(c),
            LaneData::Vals(_) => None,
        }
    }

    /// Exact value reference for `Vals` lanes (typed lanes return `None`).
    pub fn value_ref(&self, i: usize) -> Option<&Value> {
        match self.data() {
            LaneData::Vals(v) => Some(&v[i]),
            LaneData::Col(_) => None,
        }
    }

    /// Physical row `i` as a key, without materializing a `Value`.
    pub(crate) fn key(&self, i: usize) -> KeyRef<'_> {
        match self.data() {
            LaneData::Col(c) => match c.as_ref() {
                _ if c.is_null(i) => KeyRef::Null,
                ColumnData::Int(d, _) => KeyRef::Int(d[i]),
                ColumnData::Double(d, _) => KeyRef::Double(d[i].to_bits()),
                ColumnData::Str(codes, _, dict) => KeyRef::Str(dict.get(codes[i])),
                ColumnData::Date(d, _) => KeyRef::Date(d[i]),
            },
            LaneData::Vals(v) => KeyRef::of(&v[i]),
        }
    }

    /// The lane's data as a key column.
    pub(crate) fn key_col(&self) -> KeyCol<'_> {
        match self.data() {
            LaneData::Col(c) => match c.as_ref() {
                ColumnData::Int(d, n) => KeyCol::Int(d, n),
                ColumnData::Double(d, n) => KeyCol::Double(d, n),
                ColumnData::Date(d, n) => KeyCol::Date(d, n),
                ColumnData::Str(codes, n, dict) => KeyCol::Str(codes, n, dict),
            },
            LaneData::Vals(v) => KeyCol::Vals(v),
        }
    }

    /// Set (`first`) or fold into `out[pos]` the key hash of row `ids[pos]`.
    fn hash_into(&self, ids: &[u32], out: &mut [u64], first: bool) {
        let mut put = |pos: usize, h: u64| out[pos] = if first { h } else { combine(out[pos], h) };
        let col = match self.data() {
            LaneData::Col(c) => c.as_ref(),
            LaneData::Vals(v) => {
                for (pos, &i) in ids.iter().enumerate() {
                    put(pos, KeyRef::of(&v[i as usize]).hash());
                }
                return;
            }
        };
        match col {
            ColumnData::Int(d, n) => {
                for (pos, &i) in ids.iter().enumerate() {
                    let i = i as usize;
                    put(pos, if n[i] { NULL_HASH } else { int_hash(d[i]) });
                }
            }
            ColumnData::Double(d, n) => {
                for (pos, &i) in ids.iter().enumerate() {
                    let i = i as usize;
                    put(pos, if n[i] { NULL_HASH } else { mix64(d[i].to_bits() ^ TAG_DOUBLE) });
                }
            }
            ColumnData::Date(d, n) => {
                for (pos, &i) in ids.iter().enumerate() {
                    let i = i as usize;
                    put(pos, if n[i] { NULL_HASH } else { date_hash(d[i]) });
                }
            }
            ColumnData::Str(codes, n, dict) => {
                let per_entry: Option<Vec<u64>> = (dict.len() <= ids.len()).then(|| {
                    (0..dict.len() as u32)
                        .map(|c| bytes_hash(dict.get(c).as_bytes(), TAG_STR))
                        .collect()
                });
                for (pos, &i) in ids.iter().enumerate() {
                    let i = i as usize;
                    let h = match &per_entry {
                        _ if n[i] => NULL_HASH,
                        Some(h) => h[codes[i] as usize],
                        None => bytes_hash(dict.get(codes[i]).as_bytes(), TAG_STR),
                    };
                    put(pos, h);
                }
            }
        }
    }

    /// SQL comparison of physical row `i` against a constant, without
    /// cloning string payloads. Mirrors [`Value::sql_cmp`] exactly.
    pub fn sql_cmp_const(&self, i: usize, v: &Value) -> Option<Ordering> {
        match self.data() {
            LaneData::Col(c) => match c.as_ref() {
                _ if c.is_null(i) => Value::Null.sql_cmp(v),
                ColumnData::Int(d, _) => Value::Int(d[i]).sql_cmp(v),
                ColumnData::Double(d, _) => Value::Double(d[i]).sql_cmp(v),
                ColumnData::Str(codes, _, dict) => str_sql_cmp(dict.get(codes[i]), v),
                ColumnData::Date(d, _) => Value::Date(d[i]).sql_cmp(v),
            },
            LaneData::Vals(vals) => vals[i].sql_cmp(v),
        }
    }

    /// Rows `i` and `j` of this lane in `Value`'s total order (NULL first,
    /// incomparable pairs by type rank), without materializing either.
    pub(crate) fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        let col = match self.data() {
            LaneData::Col(c) => c.as_ref(),
            LaneData::Vals(v) => return v[i].cmp(&v[j]),
        };
        match (col.is_null(i), col.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match col {
            ColumnData::Int(d, _) => d[i].cmp(&d[j]),
            // NaN is incomparable to everything, and of the same type rank.
            ColumnData::Double(d, _) => d[i].partial_cmp(&d[j]).unwrap_or(Ordering::Equal),
            ColumnData::Str(codes, _, dict) => dict.get(codes[i]).cmp(dict.get(codes[j])),
            ColumnData::Date(d, _) => d[i].cmp(&d[j]),
        }
    }

    /// The rows `ids` of this lane, in that order, now. A typed lane
    /// copies its slots; a coded string lane gathers its codes and shares
    /// the dictionary.
    fn gather_now(&self, ids: &[u32]) -> Lane {
        fn pick<T: Copy>(v: &[T], n: &[bool], ids: &[u32]) -> (Vec<T>, Vec<bool>) {
            (
                ids.iter().map(|&i| v[i as usize]).collect(),
                ids.iter().map(|&i| n[i as usize]).collect(),
            )
        }
        let col = match self.data() {
            LaneData::Col(c) => c.as_ref(),
            LaneData::Vals(v) => {
                return Lane::vals(ids.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        let data = match col {
            ColumnData::Int(v, n) => {
                let (v, n) = pick(v, n, ids);
                ColumnData::Int(v, n)
            }
            ColumnData::Double(v, n) => {
                let (v, n) = pick(v, n, ids);
                ColumnData::Double(v, n)
            }
            ColumnData::Date(v, n) => {
                let (v, n) = pick(v, n, ids);
                ColumnData::Date(v, n)
            }
            ColumnData::Str(codes, n, dict) => {
                let (codes, n) = pick(codes, n, ids);
                ColumnData::Str(codes, n, dict.share())
            }
        };
        Lane::from_column(Arc::new(data))
    }

    /// The rows `ids` of each part, one part after another, as one lane,
    /// now. Parts that are one lane gather; typed parts of one type concatenate
    /// their slots. Coded strings keep their codes and share the
    /// dictionary when the parts' dictionaries agree (lanes gathered out
    /// of one column), and are re-coded once into one dictionary otherwise
    /// (each part's entries looked up once when its dictionary is no
    /// larger than its rows); anything else is built value by value.
    fn concat_now(parts: &[(&Lane, &[u32])]) -> Lane {
        let Some(&(first, _)) = parts.first() else {
            return Lane::vals(Vec::new());
        };
        if parts.iter().all(|(l, _)| std::ptr::eq(*l, first)) {
            let ids: Vec<u32> = parts.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
            return first.gather_now(&ids);
        }
        let n: usize = parts.iter().map(|(_, ids)| ids.len()).sum();
        let cols: Option<Vec<&ColumnData>> = parts.iter().map(|(l, _)| l.column()).collect();
        let same_type = |cols: &[&ColumnData]| {
            cols.iter().all(|c| std::mem::discriminant(*c) == std::mem::discriminant(cols[0]))
        };
        match cols {
            Some(cols) if same_type(&cols) => {
                let nulls = || {
                    let mut out = Vec::with_capacity(n);
                    for ((_, ids), c) in parts.iter().zip(&cols) {
                        out.extend(ids.iter().map(|&i| c.is_null(i as usize)));
                    }
                    out
                };
                fn slots<T: Copy>(
                    parts: &[(&Lane, &[u32])],
                    n: usize,
                    data: impl Fn(&ColumnData) -> &[T],
                ) -> Vec<T> {
                    let mut out = Vec::with_capacity(n);
                    for (lane, ids) in parts {
                        let d = data(lane.column().expect("a typed part"));
                        out.extend(ids.iter().map(|&i| d[i as usize]));
                    }
                    out
                }
                let data = match cols[0] {
                    ColumnData::Int(..) => ColumnData::Int(
                        slots(parts, n, |c| c.as_int().expect("an Int part")),
                        nulls(),
                    ),
                    ColumnData::Double(..) => ColumnData::Double(
                        slots(parts, n, |c| c.as_double().expect("a Double part")),
                        nulls(),
                    ),
                    ColumnData::Date(..) => ColumnData::Date(
                        slots(parts, n, |c| match c {
                            ColumnData::Date(d, _) => d,
                            _ => unreachable!("a Date part"),
                        }),
                        nulls(),
                    ),
                    ColumnData::Str(..) => {
                        let dicts = cols.iter().map(|c| match c {
                            ColumnData::Str(_, _, d) => d,
                            _ => unreachable!("a Str part"),
                        });
                        let longest = dicts.clone().max_by_key(|d| d.len()).expect("a part");
                        if dicts.clone().all(|d| d.codes_agree(longest)) {
                            // Lanes gathered out of one column: the codes
                            // stand, the dictionary is shared.
                            let codes = slots(parts, n, |c| match c {
                                ColumnData::Str(codes, ..) => codes,
                                _ => unreachable!("a Str part"),
                            });
                            return Lane::from_column(Arc::new(ColumnData::Str(
                                codes,
                                nulls(),
                                longest.share(),
                            )));
                        }
                        const UNSEEN: u32 = u32::MAX;
                        let mut dict = Dictionary::default();
                        let mut codes = Vec::with_capacity(n);
                        for ((_, ids), c) in parts.iter().zip(&cols) {
                            let ColumnData::Str(from, nulls, from_dict) = c else {
                                unreachable!("a Str part")
                            };
                            let mut memo = (from_dict.len() <= ids.len())
                                .then(|| vec![UNSEEN; from_dict.len()]);
                            for &i in *ids {
                                let i = i as usize;
                                if nulls[i] {
                                    codes.push(0);
                                    continue;
                                }
                                let code = match &mut memo {
                                    Some(memo) => {
                                        let slot = &mut memo[from[i] as usize];
                                        if *slot == UNSEEN {
                                            *slot = dict.intern(from_dict.get(from[i]));
                                        }
                                        *slot
                                    }
                                    None => dict.intern(from_dict.get(from[i])),
                                };
                                codes.push(code);
                            }
                        }
                        ColumnData::Str(codes, nulls(), dict)
                    }
                };
                Lane::from_column(Arc::new(data))
            }
            _ => {
                let mut b = LaneBuilder::default();
                for (lane, ids) in parts {
                    for &i in *ids {
                        b.push_key(lane.key(i as usize));
                    }
                }
                b.finish()
            }
        }
    }

    fn vals(vals: Vec<Value>) -> Lane {
        let bytes = vals.iter().map(Value::heap_size).sum();
        Lane { state: LaneState::Ready(LaneData::Vals(vals)), bytes }
    }
}

/// [`Value::sql_cmp`] of a non-NULL string against `v`: NULL sorts first,
/// another string compares by bytes, any other type is incomparable.
pub(crate) fn str_sql_cmp(s: &str, v: &Value) -> Option<Ordering> {
    match v {
        Value::Null => Some(Ordering::Greater),
        Value::Str(k) => Some(s.cmp(k.as_str())),
        _ => None,
    }
}

/// A lane built row by row, from values or from other lanes' rows. It
/// stays typed while every row it is given has one type (or is NULL) and
/// turns into exact values at the first that does not, so no value is
/// coerced; a typed row read from a lane is appended without a `Value`.
#[derive(Default)]
pub(crate) struct LaneBuilder {
    data: Building,
    bytes: usize,
}

enum Building {
    /// Only NULLs so far: how many.
    Nulls(usize),
    Int(Vec<i64>, Vec<bool>),
    Double(Vec<f64>, Vec<bool>),
    /// Codes into a dictionary that holds each distinct string once.
    Str(Vec<u32>, Vec<bool>, Dictionary),
    Date(Vec<i32>, Vec<bool>),
    Vals(Vec<Value>),
}

impl LaneBuilder {
    /// Append `v`.
    pub(crate) fn push(&mut self, v: Value) {
        self.bytes += v.heap_size();
        let v = match (&mut self.data, v) {
            (Building::Nulls(n), Value::Null) => return *n += 1,
            (Building::Int(d, n), Value::Int(x)) => return push_slot(d, n, Some(x)),
            (Building::Int(d, n), Value::Null) => return push_slot(d, n, None),
            (Building::Double(d, n), Value::Double(x)) => return push_slot(d, n, Some(x)),
            (Building::Double(d, n), Value::Null) => return push_slot(d, n, None),
            (Building::Date(d, n), Value::Date(x)) => return push_slot(d, n, Some(x)),
            (Building::Date(d, n), Value::Null) => return push_slot(d, n, None),
            (Building::Str(d, n, dict), Value::Str(s)) => return push_str(d, n, dict, Some(&s)),
            (Building::Str(d, n, dict), Value::Null) => return push_str(d, n, dict, None),
            (Building::Vals(vals), v) => return vals.push(v),
            (_, v) => v,
        };
        // The first typed value after NULLs picks the type; any other
        // value turns the lane into exact values.
        if let Building::Nulls(n) = self.data {
            fn typed<T: Default + Clone>(n: usize, x: T) -> (Vec<T>, Vec<bool>) {
                let mut d = vec![T::default(); n];
                let mut nulls = vec![true; n];
                d.push(x);
                nulls.push(false);
                (d, nulls)
            }
            let data = match v {
                Value::Int(x) => Some(typed(n, x)).map(|(d, n)| Building::Int(d, n)),
                Value::Double(x) => Some(typed(n, x)).map(|(d, n)| Building::Double(d, n)),
                Value::Date(x) => Some(typed(n, x)).map(|(d, n)| Building::Date(d, n)),
                Value::Str(ref s) => {
                    let mut dict = Dictionary::default();
                    let code = dict.intern(s);
                    Some(typed(n, code)).map(|(d, n)| Building::Str(d, n, dict))
                }
                _ => None,
            };
            if let Some(data) = data {
                self.data = data;
                return;
            }
        }
        let mut vals = self.take_values();
        vals.push(v);
        self.data = Building::Vals(vals);
    }

    /// Append a copy of `v`: a typed value of the builder's type, or NULL,
    /// without a `Value` in between.
    pub(crate) fn push_ref(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (Building::Int(d, n), Value::Int(x)) => push_slot(d, n, Some(*x)),
            (Building::Double(d, n), Value::Double(x)) => push_slot(d, n, Some(*x)),
            (Building::Date(d, n), Value::Date(x)) => push_slot(d, n, Some(*x)),
            (Building::Str(d, n, dict), Value::Str(s)) => push_str(d, n, dict, Some(s)),
            (Building::Int(d, n), Value::Null) => push_slot(d, n, None),
            (Building::Double(d, n), Value::Null) => push_slot(d, n, None),
            (Building::Date(d, n), Value::Null) => push_slot(d, n, None),
            (Building::Str(d, n, dict), Value::Null) => push_str(d, n, dict, None),
            _ => return self.push(v.clone()),
        }
        self.bytes += v.heap_size();
    }

    /// Append a key read from a lane or another builder; a typed row of the
    /// builder's type is appended without a `Value`.
    pub(crate) fn push_key(&mut self, k: KeyRef) {
        match (&mut self.data, k) {
            (Building::Int(d, n), KeyRef::Int(x)) => push_slot(d, n, Some(x)),
            (Building::Double(d, n), KeyRef::Double(b)) => push_slot(d, n, Some(f64::from_bits(b))),
            (Building::Date(d, n), KeyRef::Date(x)) => push_slot(d, n, Some(x)),
            (Building::Str(d, n, dict), KeyRef::Str(s)) => push_str(d, n, dict, Some(s)),
            _ => return self.push(k.to_value()),
        }
        self.bytes += k.heap_size();
    }

    /// Make room for `n` rows of the type the lane has taken.
    fn reserve(&mut self, n: usize) {
        fn slots<T>(d: &mut Vec<T>, nulls: &mut Vec<bool>, n: usize) {
            d.reserve(n);
            nulls.reserve(n);
        }
        match &mut self.data {
            Building::Int(d, nulls) => slots(d, nulls, n),
            Building::Double(d, nulls) => slots(d, nulls, n),
            Building::Str(d, nulls, _) => slots(d, nulls, n),
            Building::Date(d, nulls) => slots(d, nulls, n),
            Building::Vals(v) => v.reserve(n),
            Building::Nulls(_) => {}
        }
    }

    /// Keep the first `n` rows. A string a dropped row held stays in the
    /// dictionary, and the dropped rows stay counted in the lane's bytes.
    fn truncate(&mut self, n: usize) {
        fn slots<T>(d: &mut Vec<T>, nulls: &mut Vec<bool>, n: usize) {
            d.truncate(n);
            nulls.truncate(n);
        }
        match &mut self.data {
            Building::Int(d, nulls) => slots(d, nulls, n),
            Building::Double(d, nulls) => slots(d, nulls, n),
            Building::Str(d, nulls, _) => slots(d, nulls, n),
            Building::Date(d, nulls) => slots(d, nulls, n),
            Building::Vals(v) => v.truncate(n),
            Building::Nulls(k) => *k = n.min(*k),
        }
    }

    /// Row `g` as a key.
    pub(crate) fn key(&self, g: usize) -> KeyRef<'_> {
        match &self.data {
            Building::Nulls(_) => KeyRef::Null,
            Building::Int(_, n)
            | Building::Double(_, n)
            | Building::Str(_, n, _)
            | Building::Date(_, n)
                if n[g] =>
            {
                KeyRef::Null
            }
            Building::Int(d, _) => KeyRef::Int(d[g]),
            Building::Double(d, _) => KeyRef::Double(d[g].to_bits()),
            Building::Str(d, _, dict) => KeyRef::Str(dict.get(d[g])),
            Building::Date(d, _) => KeyRef::Date(d[g]),
            Building::Vals(v) => KeyRef::of(&v[g]),
        }
    }

    /// The rows so far as exact values.
    fn take_values(&mut self) -> Vec<Value> {
        fn values<T>(d: Vec<T>, n: Vec<bool>, f: impl Fn(T) -> Value) -> Vec<Value> {
            d.into_iter().zip(n).map(|(x, null)| if null { Value::Null } else { f(x) }).collect()
        }
        match std::mem::take(&mut self.data) {
            Building::Nulls(n) => vec![Value::Null; n],
            Building::Int(d, n) => values(d, n, Value::Int),
            Building::Double(d, n) => values(d, n, Value::Double),
            Building::Str(d, n, dict) => values(d, n, |c| Value::Str(dict.get(c).to_string())),
            Building::Date(d, n) => values(d, n, Value::Date),
            Building::Vals(v) => v,
        }
    }

    /// The lane: typed unless the rows mixed types, held Bytes or were all
    /// NULL. A string lane is coded into a dictionary of its distinct
    /// strings.
    pub(crate) fn finish(mut self) -> Lane {
        let data = match std::mem::take(&mut self.data) {
            Building::Int(d, n) => ColumnData::Int(d, n),
            Building::Double(d, n) => ColumnData::Double(d, n),
            Building::Date(d, n) => ColumnData::Date(d, n),
            Building::Str(d, n, dict) => ColumnData::Str(d, n, dict),
            other => {
                self.data = other;
                let vals = self.take_values();
                return Lane { state: LaneState::Ready(LaneData::Vals(vals)), bytes: self.bytes };
            }
        };
        Lane { state: LaneState::Ready(LaneData::Col(Arc::new(data))), bytes: self.bytes }
    }
}

impl Default for Building {
    fn default() -> Building {
        Building::Nulls(0)
    }
}

fn push_slot<T: Default>(d: &mut Vec<T>, n: &mut Vec<bool>, x: Option<T>) {
    n.push(x.is_none());
    d.push(x.unwrap_or_default());
}

/// Append string `s` (NULL for `None`, code 0 as the column index keeps
/// it) to a coded column: a string the dictionary holds already costs no
/// allocation.
fn push_str(d: &mut Vec<u32>, n: &mut Vec<bool>, dict: &mut Dictionary, s: Option<&str>) {
    n.push(s.is_none());
    d.push(s.map_or(0, |s| dict.intern(s)));
}

/// A columnar batch of rows: shared lanes plus a selection vector.
#[derive(Debug, Clone)]
pub struct RowBatch {
    lanes: Vec<Arc<Lane>>,
    /// Physical row ids that are live, in order; `None` means all rows.
    sel: Option<Sel>,
}

/// A batch's selection: its own ids, or a range of ids it shares with
/// the other morsels of one scan.
#[derive(Debug, Clone)]
enum Sel {
    Own(Vec<u32>),
    Shared(Arc<[u32]>, Range<usize>),
}

impl Sel {
    fn ids(&self) -> &[u32] {
        match self {
            Sel::Own(ids) => ids,
            Sel::Shared(ids, range) => &ids[range.clone()],
        }
    }
}

impl RowBatch {
    /// Build a batch from materialized rows (values are moved, not cloned).
    /// Columns are sniffed into typed lanes where monomorphic.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: Vec<Row>) -> RowBatch {
        let width = rows.first().map(|r| r.arity()).unwrap_or(0);
        let n = rows.len();
        let mut cols: Vec<LaneBuilder> = (0..width).map(|_| LaneBuilder::default()).collect();
        for (r, row) in rows.into_iter().enumerate() {
            for (col, v) in cols.iter_mut().zip(row.into_values()) {
                col.push(v);
                if r == 0 {
                    col.reserve(n);
                }
            }
        }
        let lanes = cols.into_iter().map(|b| Arc::new(b.finish())).collect();
        RowBatch { lanes, sel: None }
    }

    /// Batch with the given lanes and selection.
    pub fn new(lanes: Vec<Arc<Lane>>, sel: Option<Vec<u32>>) -> RowBatch {
        RowBatch { lanes, sel: sel.map(Sel::Own) }
    }

    /// Batch with the given lanes whose live rows are `ids[range]`, shared
    /// not copied.
    pub(crate) fn over(lanes: Vec<Arc<Lane>>, ids: &Arc<[u32]>, range: Range<usize>) -> RowBatch {
        RowBatch { lanes, sel: Some(Sel::Shared(Arc::clone(ids), range)) }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Number of live (selected) rows.
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.ids().len(),
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
        self.sel.as_ref().map(Sel::ids)
    }

    /// Replace the selection vector.
    pub fn with_sel(&self, sel: Vec<u32>) -> RowBatch {
        RowBatch { lanes: self.lanes.clone(), sel: Some(Sel::Own(sel)) }
    }

    /// Iterate physical row ids of live rows.
    pub fn live_rows(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.ids().to_vec(),
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

    /// Materialize the physical rows `ids`, counted in
    /// [`crate::ExecMetrics::materialized`].
    pub(crate) fn rows_of<'a>(&'a self, ids: &'a [u32]) -> impl Iterator<Item = Row> + 'a {
        exec_metrics().materialized.add(ids.len() as u64);
        ids.iter().map(|&i| Row::new(self.lanes.iter().map(|l| l.get(i as usize)).collect()))
    }

    /// Materialize all live rows, counted in
    /// [`crate::ExecMetrics::materialized`].
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows_of(&self.live_rows()).collect()
    }

    /// The live rows of `batches`, in order, as one batch; `None` when
    /// there are none. Batches that share their lanes — the morsels of one
    /// column-index snapshot, and what their filters and projections keep —
    /// concatenate their selections and copy nothing; otherwise each lane
    /// is concatenated once, when first read ([`Lane::lazy`]).
    pub(crate) fn concat(batches: &[RowBatch]) -> Option<RowBatch> {
        let first = batches.first()?;
        if batches.len() == 1 {
            return Some(first.clone());
        }
        let shared = batches.iter().all(|b| {
            b.width() == first.width()
                && b.lanes.iter().zip(&first.lanes).all(|(a, b)| Arc::ptr_eq(a, b))
        });
        if shared {
            let sel = batches.iter().flat_map(RowBatch::live_rows).collect();
            return Some(first.with_sel(sel));
        }
        let live: Vec<Arc<[u32]>> = batches.iter().map(|b| b.live_rows().into()).collect();
        let lanes = (0..first.width())
            .map(|c| {
                let parts = batches
                    .iter()
                    .zip(&live)
                    .map(|(b, ids)| (Arc::clone(&b.lanes[c]), Arc::clone(ids)));
                Arc::new(Lane::lazy(parts.collect()))
            })
            .collect();
        Some(RowBatch { lanes, sel: None })
    }
}

/// The visible rows of one or more row partitions, built into lanes as a
/// storage scan hands them over borrowed: no row and no key is copied,
/// only each value the plan reads into its column; a column nothing reads
/// is one shared all-NULL lane. The scan visits a partition's lock shards
/// one after another, so its rows arrive in key order within a shard only;
/// [`PartitionLanes::finish`] puts each partition's rows in key order, as
/// a scan returns them, the partitions one after another. Rows pushed with
/// no key keep the order they came in.
pub struct PartitionLanes {
    /// One builder per column read, `None` for a column nothing reads.
    cols: Vec<Option<LaneBuilder>>,
    /// Every row's encoded key, back to back: row `r`'s ends at `ends[r]`.
    keys: Vec<u8>,
    ends: Vec<usize>,
    /// The first row of each partition but the first.
    starts: Vec<usize>,
}

/// Rows a [`PartitionLanes`] makes room for up front: a partition of up to
/// this many rows is built without growing a column (a 19-row `customer`
/// partition of TPC-H: 4.4 → 3.0 µs to build its 8 columns).
const PARTITION_ROWS: usize = 64;

impl PartitionLanes {
    /// No rows yet, of `read.len()` columns, column `c` built when
    /// `read[c]`.
    pub fn new(read: &[bool]) -> PartitionLanes {
        let cols = read.iter().map(|&r| r.then(LaneBuilder::default)).collect();
        let ends = Vec::with_capacity(PARTITION_ROWS);
        let keys = Vec::with_capacity(PARTITION_ROWS * 16);
        PartitionLanes { cols, keys, ends, starts: Vec::new() }
    }

    /// The rows pushed from here on are the next partition's.
    pub fn next_partition(&mut self) {
        if !self.ends.is_empty() {
            self.starts.push(self.ends.len());
        }
    }

    /// Drop the rows the current partition has pushed so far: a scan that
    /// waited out a PREPARED writer visits it again from the start.
    pub fn restart_partition(&mut self) {
        let start = self.starts.last().copied().unwrap_or(0);
        for col in self.cols.iter_mut().flatten() {
            col.truncate(start);
        }
        self.ends.truncate(start);
        self.keys.truncate(self.ends.last().copied().unwrap_or(0));
    }

    /// Append the row stored under `key`: the values of its first
    /// `read.len()` columns — a hidden primary key after them stays out.
    pub fn push(&mut self, key: &[u8], row: &[Value]) {
        let first = self.ends.is_empty();
        for (col, v) in self.cols.iter_mut().zip(row) {
            if let Some(col) = col {
                col.push_ref(v);
                if first {
                    // Room for a small partition's rows at once.
                    col.reserve(PARTITION_ROWS);
                }
            }
        }
        self.keys.extend_from_slice(key);
        self.ends.push(self.keys.len());
    }

    /// The rows pushed so far.
    pub(crate) fn rows(&self) -> usize {
        self.ends.len()
    }

    /// The rows, each partition's in key order, as batches of at most
    /// [`BATCH_ROWS`] that share the lanes and one run of row ids.
    pub fn finish(self) -> Vec<RowBatch> {
        let n = self.ends.len();
        if n == 0 {
            return Vec::new();
        }
        let key = |r: usize| &self.keys[if r == 0 { 0 } else { self.ends[r - 1] }..self.ends[r]];
        let bounds: Vec<usize> =
            std::iter::once(0).chain(self.starts.iter().copied()).chain([n]).collect();
        let unsorted = |w: &[usize]| (w[0] + 1..w[1]).any(|r| key(r - 1) > key(r));
        let order = bounds.windows(2).any(unsorted).then(|| {
            let mut order: Vec<u32> = (0..n as u32).collect();
            for w in bounds.windows(2) {
                order[w[0]..w[1]].sort_unstable_by(|&a, &b| key(a as usize).cmp(key(b as usize)));
            }
            order
        });
        let unread = OnceLock::new();
        let lanes: Vec<Arc<Lane>> = self
            .cols
            .into_iter()
            .map(|col| match (col, &order) {
                (Some(col), None) => Arc::new(col.finish()),
                (Some(col), Some(order)) => Arc::new(col.finish().gather_now(order)),
                (None, _) => Arc::clone(unread.get_or_init(|| Arc::new(Lane::nulls(n)))),
            })
            .collect();
        if n <= BATCH_ROWS {
            return vec![RowBatch::new(lanes, None)];
        }
        let ids: Arc<[u32]> = (0..n as u32).collect();
        (0..n)
            .step_by(BATCH_ROWS)
            .map(|r0| RowBatch::over(lanes.clone(), &ids, r0..n.min(r0 + BATCH_ROWS)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_of(vals: Vec<Value>) -> Lane {
        let mut b = LaneBuilder::default();
        for v in vals {
            b.push(v);
        }
        b.finish()
    }

    #[test]
    fn typed_lane_roundtrip_with_nulls() {
        let lane = lane_of(vec![Value::Null, Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(lane.column().is_some(), "monomorphic column gets a typed lane");
        assert!(lane.is_null(0));
        assert_eq!(lane.get(1), Value::Int(1));
        assert!(lane.is_null(2));
        assert_eq!(lane.get(3), Value::Int(3));
    }

    #[test]
    fn mixed_lane_preserves_exact_values() {
        let lane = lane_of(vec![Value::Int(1), Value::Null, Value::Double(2.5)]);
        assert!(lane.column().is_none(), "mixed column must not coerce");
        assert_eq!(lane.get(0), Value::Int(1));
        assert!(lane.is_null(1));
        assert!(matches!(lane.get(2), Value::Double(_)));
        let nulls = lane_of(vec![Value::Null, Value::Null]);
        assert!(nulls.column().is_none() && nulls.len() == 2, "all-NULL keeps values");
    }

    #[test]
    fn key_identity_matches_key_encoding() {
        // Int(5) and Double(5.0) compare equal under SQL but are distinct
        // encoded keys — key identity must keep them distinct.
        assert_eq!(Value::Int(5), Value::Double(5.0));
        let (int, double) = (Value::Int(5), Value::Double(5.0));
        assert_ne!(KeyRef::of(&int), KeyRef::of(&double));
        assert_ne!(KeyRef::of(&int).hash(), KeyRef::of(&double).hash());
        assert_eq!(KeyRef::of(&Value::Null), KeyRef::Null);
        let (zero, neg_zero) = (Value::Double(0.0), Value::Double(-0.0));
        assert_ne!(KeyRef::of(&zero), KeyRef::of(&neg_zero));
    }

    #[test]
    fn lane_hash_agrees_with_key_hash() {
        let vals = vec![
            Value::Int(7),
            Value::Null,
            Value::str("abc"),
            Value::str("a longer string of many bytes"),
            Value::Double(1.25),
            Value::Date(3),
        ];
        for v in &vals {
            let lane = lane_of(vec![v.clone(), Value::Int(1)]);
            assert_eq!(lane.key(0), KeyRef::of(v));
            let one = hash_keys(&[(&lane, &[0])], 1);
            assert_eq!(one[0], KeyRef::of(v).hash(), "{v:?}");
            let two = hash_keys(&[(&lane, &[0]), (&lane, &[1])], 1);
            assert_eq!(two[0], key_hash([KeyRef::of(v), KeyRef::Int(1)]), "{v:?}");
        }
    }

    #[test]
    fn batch_bytes_is_incremental_and_matches_row_accounting() {
        let rows: Vec<Row> =
            (0..10).map(|i| Row::new(vec![Value::Int(i), Value::str(format!("s{i}"))])).collect();
        let row_total: usize = rows.iter().map(Row::heap_size).sum();
        let batch = RowBatch::from_rows(rows);
        assert_eq!(batch.bytes(), row_total);
    }


    #[test]
    fn partition_lanes_sort_by_key_chunk_and_null_unread_columns() {
        // Two "shards", each in key order: odd keys, then even ones.
        let order = (1..2500u32).step_by(2).chain((0..2500).step_by(2));
        let mut lanes = PartitionLanes::new(&[true, false, true]);
        for k in order {
            let row = [Value::Int(k as i64), Value::Int(-1), Value::str(format!("s{k}"))];
            lanes.push(&k.to_be_bytes(), &row);
        }
        let batches = lanes.finish();
        assert_eq!(batches.iter().map(RowBatch::num_rows).collect::<Vec<_>>(), [1024, 1024, 452]);
        let back: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        let want: Vec<Row> = (0..2500)
            .map(|k| Row::new(vec![Value::Int(k), Value::Null, Value::str(format!("s{k}"))]))
            .collect();
        assert_eq!(back, want);
    }

    #[test]
    fn partition_lanes_order_each_partition_by_key_and_restart_the_current_one() {
        let row = |k: u32, s: Value| [Value::Int(k as i64), s];
        let mut lanes = PartitionLanes::new(&[true, true]);
        lanes.next_partition();
        for k in [3u32, 1, 2] {
            lanes.push(&k.to_be_bytes(), &row(k, Value::str("a")));
        }
        lanes.next_partition();
        lanes.push(&9u32.to_be_bytes(), &row(9, Value::Double(0.5)));
        lanes.restart_partition();
        for k in [5u32, 0] {
            lanes.push(&k.to_be_bytes(), &row(k, Value::str("b")));
        }
        let back: Vec<Row> = lanes.finish().iter().flat_map(|b| b.to_rows()).collect();
        let want: Vec<Row> = [(1, "a"), (2, "a"), (3, "a"), (0, "b"), (5, "b")]
            .into_iter()
            .map(|(k, s)| Row::new(row(k, Value::str(s)).to_vec()))
            .collect();
        assert_eq!(back, want, "each partition in key order, the restarted pass's row gone");
    }

    #[test]
    fn a_string_lane_cut_from_rows_holds_each_distinct_string_once() {
        let mut lanes = PartitionLanes::new(&[true]);
        for (k, s) in ["x", "y", "x", "x", "y"].into_iter().enumerate() {
            lanes.push(&[k as u8], &[Value::str(s)]);
        }
        lanes.push(&[9], &[Value::Null]);
        let batch = &lanes.finish()[0];
        let Some(ColumnData::Str(codes, nulls, dict)) = batch.lane(0).column() else {
            panic!("a coded lane")
        };
        assert_eq!((dict.len(), &codes[..5]), (2, &[0, 1, 0, 0, 1][..]));
        assert_eq!(nulls, &[false, false, false, false, false, true]);
    }

    fn strs(vals: &[Option<&str>]) -> RowBatch {
        let rows = vals
            .iter()
            .map(|v| Row::new(vec![v.map_or(Value::Null, Value::str), Value::Int(1)]))
            .collect();
        RowBatch::from_rows(rows)
    }

    #[test]
    fn concat_recodes_strings_into_one_dictionary() {
        let a = strs(&[Some("x"), None, Some("y")]).with_sel(vec![0, 1, 2]);
        let b = strs(&[Some("y"), Some("x"), Some("z")]).with_sel(vec![2, 0]);
        let one = RowBatch::concat(&[a, b]).unwrap();
        let Some(ColumnData::Str(codes, nulls, dict)) = one.lane(0).column() else {
            panic!("a coded lane")
        };
        assert_eq!(dict.len(), 3, "x, y and z once each");
        assert_eq!(nulls, &[false, true, false, false, false]);
        assert_eq!(codes[2], codes[4], "both y rows share a code");
        let rows: Vec<Value> = one.to_rows().iter().map(|r| r.get(0).unwrap().clone()).collect();
        let want =
            [Value::str("x"), Value::Null, Value::str("y"), Value::str("z"), Value::str("y")];
        assert_eq!(rows, want);
    }

    #[test]
    fn morsels_of_one_snapshot_concatenate_without_copying() {
        let whole = strs(&[Some("x"), Some("y"), Some("z"), None]);
        let (a, b) = (whole.with_sel(vec![3, 1]), whole.with_sel(vec![0]));
        let one = RowBatch::concat(&[a, b]).unwrap();
        assert!(Arc::ptr_eq(&one.lanes()[0], &whole.lanes()[0]));
        assert_eq!(one.sel(), Some(&[3, 1, 0][..]));
        // A gather copies nothing until read, then keeps the order it was
        // given and shares the dictionary.
        let g = Lane::gather(&whole.lanes()[0], &Arc::from([2, 3, 2]));
        let copied = |l: &Lane| match &l.state {
            LaneState::Pending { done, .. } => done.get().is_some(),
            LaneState::Ready(_) => true,
        };
        assert!(!copied(&g) && g.len() == 3);
        assert_eq!((g.get(0), g.get(1), g.get(2)), (Value::str("z"), Value::Null, Value::str("z")));
        assert!(copied(&g));
    }

    #[test]
    fn builder_stays_typed_until_a_second_type_arrives() {
        let lane = lane_of(vec![Value::Int(1), Value::Null]);
        let mut b = LaneBuilder::default();
        b.push_key(KeyRef::Null);
        b.push_key(lane.key(0));
        b.push_key(lane.key(1));
        assert_eq!(b.key(1), KeyRef::Int(1));
        let typed = std::mem::take(&mut b).finish();
        assert!(matches!(typed.column(), Some(ColumnData::Int(..))));
        b.push(Value::Int(2));
        b.push(Value::str("s"));
        let mixed = b.finish();
        assert!(mixed.column().is_none());
        assert_eq!((mixed.get(0), mixed.get(1)), (Value::Int(2), Value::str("s")));
    }
}
