//! Typed column vectors.
//!
//! Numbers and dates are dense typed vectors. Strings are dictionary-coded,
//! the layout of PolarDB-IMCI's column index: one `u32` code per row into a
//! [`Dictionary`] of strings, so a predicate can be tested once per distinct
//! string ([`Dictionary::select`]) and a GROUP BY can key on codes. Every
//! variant keeps a slot for NULL rows (a default value; code 0 for strings)
//! beside a null bitmap, so row ids index all columns uniformly.
//!
//! A column built by [`ColumnData::push`] — the column index's — or by
//! [`Dictionary::intern`] — a string lane cut from rows — holds each
//! distinct string once.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use polardbx_common::{DataType, Error, Result, Value};

use crate::slots::SlotIndex;

/// A column of values in columnar layout: a dense typed vector plus a null
/// bitmap. The vector keeps a slot for NULL rows (default value) so row ids
/// index all columns uniformly.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>, Vec<bool>),
    /// Doubles.
    Double(Vec<f64>, Vec<bool>),
    /// Strings: one code per row into the dictionary.
    Str(Vec<u32>, Vec<bool>, Dictionary),
    /// Dates (days).
    Date(Vec<i32>, Vec<bool>),
}

/// The strings of a coded column, in code order.
///
/// Entries sit in shared blocks. A clone — what a write that meets a live
/// snapshot makes of its column — copies the block pointers and the lookup
/// table, never a string; an append never changes a block another clone
/// holds but opens a block of its own, so a string appended later is
/// invisible to a clone taken before it.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// `(code of the first entry, entries)`.
    blocks: Vec<(u32, Arc<Vec<String>>)>,
    len: u32,
    /// Heap footprint of the entries.
    bytes: usize,
    /// Entry hash → code over the first `hashed` entries: what
    /// [`Dictionary::intern`] dedupes against.
    lookup: SlotIndex,
    hashed: u32,
}

fn entry_bytes(s: &str) -> usize {
    s.len() + 24
}

fn hash_str(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

impl Dictionary {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The string of `code`.
    pub fn get(&self, code: u32) -> &str {
        let b = match self.blocks.len() {
            1 => 0,
            _ => self.blocks.partition_point(|(start, _)| *start <= code) - 1,
        };
        let (start, block) = &self.blocks[b];
        &block[(code - start) as usize]
    }

    /// The entries in code order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.blocks.iter().flat_map(|(_, b)| b.iter().map(String::as_str))
    }

    /// Heap footprint of the entries, kept as they are appended.
    fn heap_size(&self) -> usize {
        self.bytes
    }

    /// A clone that shares the entries and leaves the lookup table behind:
    /// what a column gathered out of this one holds. Interning into it
    /// rebuilds the table first.
    pub fn share(&self) -> Dictionary {
        Dictionary { blocks: self.blocks.clone(), len: self.len, bytes: self.bytes, ..Dictionary::default() }
    }

    /// Does every code of the shorter of `self` and `other` stand for the
    /// same string in both? So it is when the shorter's blocks are the
    /// longer's first blocks: dictionaries shared out of one column, at
    /// any two of its versions.
    pub fn codes_agree(&self, other: &Dictionary) -> bool {
        let (short, long) = if self.len <= other.len { (self, other) } else { (other, self) };
        short.blocks.len() <= long.blocks.len()
            && short
                .blocks
                .iter()
                .zip(&long.blocks)
                .all(|((s, a), (t, b))| s == t && Arc::ptr_eq(a, b))
    }

    /// The code of `s`, appending it when no entry holds it yet.
    pub fn intern(&mut self, s: &str) -> u32 {
        while self.hashed < self.len {
            let code = self.hashed;
            self.lookup.insert(hash_str(self.get(code)), code);
            self.hashed += 1;
        }
        let hash = hash_str(s);
        if let Some(code) = self.lookup.find(hash, |c| self.get(c) == s) {
            return code;
        }
        let code = self.append(s.to_string());
        self.lookup.insert(hash, code);
        self.hashed += 1;
        code
    }

    fn append(&mut self, s: String) -> u32 {
        let code = self.len;
        self.bytes += entry_bytes(&s);
        // With no clone left holding a block, fold them back into one.
        if self.blocks.len() > 1 && self.blocks.iter_mut().all(|(_, b)| Arc::get_mut(b).is_some())
        {
            let mut merged = Vec::with_capacity(self.len as usize + 1);
            for (_, b) in self.blocks.drain(..) {
                merged.extend(Arc::try_unwrap(b).expect("checked unique"));
            }
            self.blocks.push((0, Arc::new(merged)));
        }
        match self.blocks.last_mut().and_then(|(_, b)| Arc::get_mut(b)) {
            Some(block) => block.push(s),
            None => self.blocks.push((code, Arc::new(vec![s]))),
        }
        self.len = self.len.checked_add(1).expect("fewer than 2^32 entries");
        code
    }

    /// The ids of `selection` whose string passes `keep`, over a column's
    /// `codes` and `nulls`; a NULL row passes when `nulls_pass`. `keep`
    /// runs once per entry when the dictionary is no larger than the
    /// selection, once per selected row otherwise.
    pub fn select(
        &self,
        codes: &[u32],
        nulls: &[bool],
        selection: &[u32],
        nulls_pass: bool,
        keep: impl Fn(&str) -> bool,
    ) -> Vec<u32> {
        let per_entry: Option<Vec<bool>> =
            (self.len() <= selection.len()).then(|| self.iter().map(&keep).collect());
        let mut out = Vec::with_capacity(selection.len());
        for &id in selection {
            let i = id as usize;
            let kept = match &per_entry {
                _ if nulls[i] => nulls_pass,
                Some(pass) => pass[codes[i] as usize],
                None => keep(self.get(codes[i])),
            };
            if kept {
                out.push(id);
            }
        }
        out
    }
}

impl ColumnData {
    /// An empty column of the given type. `Bytes` columns are stored as
    /// strings (lossy) — none of the paper's workloads use raw bytes.
    pub fn new(ty: DataType) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::new(), Vec::new()),
            DataType::Double => ColumnData::Double(Vec::new(), Vec::new()),
            DataType::Str | DataType::Bytes => {
                ColumnData::Str(Vec::new(), Vec::new(), Dictionary::default())
            }
            DataType::Date => ColumnData::Date(Vec::new(), Vec::new()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nulls().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn nulls(&self) -> &[bool] {
        match self {
            ColumnData::Int(_, n)
            | ColumnData::Double(_, n)
            | ColumnData::Str(_, n, _)
            | ColumnData::Date(_, n) => n,
        }
    }

    /// Append a value (coercing compatible types); NULL appends a default
    /// slot with the null bit set. A string takes the code of the equal
    /// entry when the dictionary holds one.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match self {
            ColumnData::Int(data, nulls) => {
                match v {
                    Value::Null => {
                        data.push(0);
                        nulls.push(true);
                    }
                    other => {
                        data.push(other.as_int()?);
                        nulls.push(false);
                    }
                };
            }
            ColumnData::Double(data, nulls) => {
                match v {
                    Value::Null => {
                        data.push(0.0);
                        nulls.push(true);
                    }
                    other => {
                        data.push(other.as_double()?);
                        nulls.push(false);
                    }
                };
            }
            ColumnData::Str(codes, nulls, dict) => {
                let code = match v {
                    Value::Null => None,
                    Value::Str(s) => Some(dict.intern(s)),
                    Value::Bytes(b) => Some(dict.intern(&String::from_utf8_lossy(b))),
                    other => {
                        return Err(Error::execution(format!(
                            "cannot store {other} in string column"
                        )))
                    }
                };
                codes.push(code.unwrap_or(0));
                nulls.push(code.is_none());
            }
            ColumnData::Date(data, nulls) => {
                match v {
                    Value::Null => {
                        data.push(0);
                        nulls.push(true);
                    }
                    other => {
                        data.push(other.as_date()?);
                        nulls.push(false);
                    }
                };
            }
        }
        Ok(())
    }

    /// Read row `i` back as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(_, n) | ColumnData::Double(_, n) | ColumnData::Date(_, n)
                if n[i] =>
            {
                Value::Null
            }
            ColumnData::Str(_, n, _) if n[i] => Value::Null,
            ColumnData::Int(v, _) => Value::Int(v[i]),
            ColumnData::Double(v, _) => Value::Double(v[i]),
            ColumnData::Str(codes, _, dict) => Value::Str(dict.get(codes[i]).to_string()),
            ColumnData::Date(v, _) => Value::Date(v[i]),
        }
    }

    /// Is row `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls()[i]
    }

    /// Dense i64 view (errors on other types) — fast path for kernels.
    pub fn as_int(&self) -> Result<&[i64]> {
        match self {
            ColumnData::Int(v, _) => Ok(v),
            _ => Err(Error::execution("column is not Int")),
        }
    }

    /// Dense f64 view.
    pub fn as_double(&self) -> Result<&[f64]> {
        match self {
            ColumnData::Double(v, _) => Ok(v),
            _ => Err(Error::execution("column is not Double")),
        }
    }

    /// The rows `ids`, in that order, as a column of their own. A string
    /// column is re-coded: its dictionary keeps only the entries those rows
    /// use, each string copied once.
    pub(crate) fn gather(&self, ids: &[usize]) -> ColumnData {
        fn pick<T: Copy>(v: &[T], n: &[bool], ids: &[usize]) -> (Vec<T>, Vec<bool>) {
            (ids.iter().map(|&i| v[i]).collect(), ids.iter().map(|&i| n[i]).collect())
        }
        match self {
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
                const UNSEEN: u32 = u32::MAX;
                let mut recode = vec![UNSEEN; dict.len()];
                let mut fresh = Dictionary::default();
                let codes = ids
                    .iter()
                    .map(|&i| {
                        if n[i] {
                            return 0;
                        }
                        let new = &mut recode[codes[i] as usize];
                        if *new == UNSEEN {
                            *new = fresh.intern(dict.get(codes[i]));
                        }
                        *new
                    })
                    .collect();
                ColumnData::Str(codes, ids.iter().map(|&i| n[i]).collect(), fresh)
            }
        }
    }

    /// A copy with room for as many rows again: what a write makes of a
    /// column a snapshot still holds. A plain clone has no spare capacity,
    /// so the append right after it would reallocate and copy once more.
    pub(crate) fn copy_with_room(&self) -> ColumnData {
        fn room<T: Copy>(v: &[T]) -> Vec<T> {
            let mut copy = Vec::with_capacity(2 * v.len().max(8));
            copy.extend_from_slice(v);
            copy
        }
        match self {
            ColumnData::Int(v, n) => ColumnData::Int(room(v), room(n)),
            ColumnData::Double(v, n) => ColumnData::Double(room(v), room(n)),
            ColumnData::Str(codes, n, dict) => ColumnData::Str(room(codes), room(n), dict.clone()),
            ColumnData::Date(v, n) => ColumnData::Date(room(v), room(n)),
        }
    }

    /// Approximate heap footprint in bytes; a string column's dictionary
    /// keeps its own count, so this is O(1).
    pub fn heap_size(&self) -> usize {
        match self {
            ColumnData::Int(v, n) => v.len() * 8 + n.len(),
            ColumnData::Double(v, n) => v.len() * 8 + n.len(),
            ColumnData::Str(codes, n, dict) => codes.len() * 4 + n.len() + dict.heap_size(),
            ColumnData::Date(v, n) => v.len() * 4 + n.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_col(vals: &[Option<&str>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Str);
        for v in vals {
            c.push(&v.map(Value::str).unwrap_or(Value::Null)).unwrap();
        }
        c
    }

    fn dict(c: &ColumnData) -> &Dictionary {
        match c {
            ColumnData::Str(_, _, d) => d,
            _ => panic!("not a string column"),
        }
    }

    #[test]
    fn int_roundtrip_with_nulls() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(&Value::Int(5)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get(1), Value::Null);
        assert!(c.is_null(1));
        assert_eq!(c.get(2), Value::Int(-3));
        assert_eq!(c.as_int().unwrap(), &[5, 0, -3]);
    }

    #[test]
    fn double_column_coerces_ints() {
        let mut c = ColumnData::new(DataType::Double);
        c.push(&Value::Int(2)).unwrap();
        c.push(&Value::Double(2.5)).unwrap();
        assert_eq!(c.as_double().unwrap(), &[2.0, 2.5]);
    }

    #[test]
    fn str_column_dedupes_into_codes() {
        let c = str_col(&[Some("b"), Some("a"), Some("b"), Some("a"), Some("c")]);
        match &c {
            ColumnData::Str(codes, _, d) => {
                assert_eq!(codes, &[0, 1, 0, 1, 2]);
                assert_eq!(d.iter().collect::<Vec<_>>(), ["b", "a", "c"]);
            }
            _ => unreachable!(),
        }
        assert_eq!(c.get(2), Value::str("b"));
        let mut c = c;
        assert!(c.push(&Value::Int(5)).is_err());
    }

    #[test]
    fn null_rows_in_a_coded_column_take_no_entry() {
        let c = str_col(&[None, Some("x"), None, Some("x")]);
        assert_eq!(dict(&c).len(), 1);
        assert_eq!((c.get(0), c.get(1), c.get(2)), (Value::Null, Value::str("x"), Value::Null));
        assert!(c.is_null(2) && !c.is_null(3));
        let ColumnData::Str(codes, nulls, d) = &c else { unreachable!() };
        let all = [0u32, 1, 2, 3];
        assert_eq!(d.select(codes, nulls, &all, false, |s| s == "x"), vec![1, 3]);
        assert_eq!(d.select(codes, nulls, &all, true, |_| false), vec![0, 2]);
    }

    #[test]
    fn bytes_are_stored_as_a_lossy_string() {
        let mut c = ColumnData::new(DataType::Bytes);
        c.push(&Value::Bytes(vec![b'b'])).unwrap();
        c.push(&Value::Bytes(vec![0xff, b'z'])).unwrap();
        c.push(&Value::str("b")).unwrap();
        assert_eq!(c.get(0), Value::str("b"));
        assert_eq!(c.get(1), Value::str("\u{fffd}z"));
        assert_eq!(dict(&c).len(), 2, "the lossy string and the equal Str share an entry");
    }

    #[test]
    fn a_clone_shares_the_strings_and_never_sees_a_later_entry() {
        let mut c = str_col(&[Some("a"), Some("b")]);
        let before = c.clone();
        c.push(&Value::str("c")).unwrap();
        c.push(&Value::str("a")).unwrap();
        assert_eq!((dict(&before).len(), dict(&c).len()), (2, 3));
        assert_eq!(before.len(), 2);
        let (ColumnData::Str(_, _, old), ColumnData::Str(_, _, new)) = (&before, &c) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&old.blocks[0].1, &new.blocks[0].1), "the strings are shared");
        assert_eq!(old.iter().collect::<Vec<_>>(), ["a", "b"], "the shared block did not grow");
        assert_eq!(new.iter().collect::<Vec<_>>(), ["a", "b", "c"]);
        // Once the clone is gone, the next entry folds the blocks into one.
        drop(before);
        c.push(&Value::str("d")).unwrap();
        assert_eq!(dict(&c).blocks.len(), 1);
        assert_eq!(dict(&c).get(3), "d");
    }

    #[test]
    fn select_agrees_per_entry_and_per_row() {
        let c = str_col(&[Some("a"), Some("b"), Some("c"), Some("a"), None]);
        let ColumnData::Str(codes, nulls, d) = &c else { unreachable!() };
        let keep = |s: &str| s != "b";
        // Three entries: per entry over five rows, per row over two.
        assert_eq!(d.select(codes, nulls, &[0, 1, 2, 3, 4], false, keep), vec![0, 2, 3]);
        assert_eq!(d.select(codes, nulls, &[1, 3], false, keep), vec![3]);
    }

    #[test]
    fn gather_recodes_and_drops_unused_entries() {
        let c = str_col(&[Some("a"), Some("b"), None, Some("c"), Some("b")]);
        let g = c.gather(&[4, 2, 1]);
        let ColumnData::Str(codes, nulls, d) = &g else { unreachable!() };
        assert_eq!((codes.as_slice(), nulls.as_slice()), (&[0, 0, 0][..], &[false, true, false][..]));
        assert_eq!(d.iter().collect::<Vec<_>>(), ["b"]);
        let ints = {
            let mut c = ColumnData::new(DataType::Int);
            [1, 2, 3].iter().for_each(|&x| c.push(&Value::Int(x)).unwrap());
            c
        };
        assert_eq!(ints.gather(&[2, 0]).as_int().unwrap(), &[3, 1]);
    }

    #[test]
    fn type_mismatch_accessors() {
        let c = ColumnData::new(DataType::Int);
        assert!(c.as_double().is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn heap_size_counts_each_entry_once() {
        let one = str_col(&[Some("hello")]);
        let many = str_col(&[Some("hello"); 100]);
        assert!(one.heap_size() > 5);
        assert_eq!(many.heap_size() - one.heap_size(), 99 * 5, "codes and null bits only");
    }
}
