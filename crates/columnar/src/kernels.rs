//! Reference kernels over column snapshots.
//!
//! The shape of loop behind §VI-E's claim that "in a column store … the
//! execution of certain operations such as filter, join, aggregation
//! becomes much faster": a tight pass over a dense typed vector driven by a
//! selection vector, no per-row boxing. Queries do not run through these —
//! the AP engine has its own lane loops over the same `ColumnData`
//! (`polardbx-executor`'s `vectorized`) — the benchmarks time them as the
//! cost floor of a filtered columnar scan.

use polardbx_common::{Error, Result, Value};

use crate::column::ColumnData;

/// Comparison operators supported by the filter kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn keep(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Neq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Filter `selection` by comparing `column` against a constant, as
/// `Value::sql_cmp` would: an `Int` column against a `Double` constant
/// compares as `f64`, never by truncating the constant. NULL rows never
/// match. A string column compares once per dictionary entry when the
/// dictionary is no larger than the selection ([`Dictionary::select`]).
///
/// [`Dictionary::select`]: crate::Dictionary::select
pub fn filter_cmp(
    column: &ColumnData,
    selection: &[u32],
    op: CmpOp,
    constant: &Value,
) -> Result<Vec<u32>> {
    let mut out = Vec::with_capacity(selection.len() / 2);
    match (column, constant) {
        (ColumnData::Int(data, nulls), Value::Double(c)) => {
            for &id in selection {
                let i = id as usize;
                if !nulls[i] && (data[i] as f64).partial_cmp(c).is_some_and(|ord| op.keep(ord)) {
                    out.push(id);
                }
            }
        }
        (ColumnData::Int(data, nulls), c) => {
            let c = c.as_int()?;
            for &id in selection {
                let i = id as usize;
                if !nulls[i] && op.keep(data[i].cmp(&c)) {
                    out.push(id);
                }
            }
        }
        (ColumnData::Double(data, nulls), c) => {
            let c = c.as_double()?;
            for &id in selection {
                let i = id as usize;
                if !nulls[i] {
                    if let Some(ord) = data[i].partial_cmp(&c) {
                        if op.keep(ord) {
                            out.push(id);
                        }
                    }
                }
            }
        }
        (ColumnData::Str(codes, nulls, dict), Value::Str(c)) => {
            return Ok(dict.select(codes, nulls, selection, false, |s| op.keep(s.cmp(c))));
        }
        (ColumnData::Date(data, nulls), c) => {
            let c = c.as_date()?;
            for &id in selection {
                let i = id as usize;
                if !nulls[i] && op.keep(data[i].cmp(&c)) {
                    out.push(id);
                }
            }
        }
        _ => return Err(Error::execution("filter_cmp: incompatible column/constant")),
    }
    Ok(out)
}

/// Sum a numeric column over a selection (NULLs skipped).
pub fn sum(column: &ColumnData, selection: &[u32]) -> Result<f64> {
    match column {
        ColumnData::Int(data, nulls) => Ok(selection
            .iter()
            .map(|&id| {
                let i = id as usize;
                if nulls[i] { 0 } else { data[i] }
            })
            .sum::<i64>() as f64),
        ColumnData::Double(data, nulls) => Ok(selection
            .iter()
            .map(|&id| {
                let i = id as usize;
                if nulls[i] { 0.0 } else { data[i] }
            })
            .sum()),
        _ => Err(Error::execution("sum on non-numeric column")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::DataType;

    fn int_col(vals: &[Option<i64>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Int);
        for v in vals {
            c.push(&v.map(Value::Int).unwrap_or(Value::Null)).unwrap();
        }
        c
    }

    fn all(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn filter_cmp_int() {
        let c = int_col(&[Some(1), Some(5), None, Some(10), Some(5)]);
        let sel = all(5);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Eq, &Value::Int(5)).unwrap(), vec![1, 4]);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Gt, &Value::Int(4)).unwrap(), vec![1, 3, 4]);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Le, &Value::Int(1)).unwrap(), vec![0]);
        // NULL row 2 never matches.
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Neq, &Value::Int(-1)).unwrap().len(), 4);
    }

    #[test]
    fn filter_respects_selection_vector() {
        let c = int_col(&[Some(1), Some(2), Some(3)]);
        let sel = vec![0u32, 2];
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Ge, &Value::Int(2)).unwrap(), vec![2]);
    }

    #[test]
    fn int_column_against_double_constant_compares_as_f64() {
        let c = int_col(&[Some(9), Some(10), None, Some(11)]);
        let sel = all(4);
        let half = Value::Double(10.5);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Lt, &half).unwrap(), vec![0, 1]);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Le, &half).unwrap(), vec![0, 1]);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Gt, &half).unwrap(), vec![3]);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Eq, &half).unwrap(), Vec::<u32>::new());
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Eq, &Value::Double(10.0)).unwrap(), vec![1]);
        assert_eq!(filter_cmp(&c, &sel, CmpOp::Lt, &Value::Double(f64::NAN)).unwrap(), vec![]);
    }

    #[test]
    fn filter_cmp_str_per_entry_and_per_row() {
        let mut c = ColumnData::new(DataType::Str);
        for v in ["MAIL", "SHIP", "AIR", "MAIL"] {
            c.push(&Value::str(v)).unwrap();
        }
        c.push(&Value::Null).unwrap();
        let k = Value::str("MAIL");
        // Three entries over five rows: once per entry.
        assert_eq!(filter_cmp(&c, &all(5), CmpOp::Eq, &k).unwrap(), vec![0, 3]);
        assert_eq!(filter_cmp(&c, &all(5), CmpOp::Neq, &k).unwrap(), vec![1, 2]);
        // Over two rows: once per row, the same answer.
        assert_eq!(filter_cmp(&c, &[2, 3], CmpOp::Lt, &k).unwrap(), vec![2]);
        assert_eq!(filter_cmp(&c, &[1, 4], CmpOp::Gt, &k).unwrap(), vec![1]);
    }

    #[test]
    fn sum_skips_nulls() {
        let c = int_col(&[Some(1), Some(2), None, Some(4)]);
        assert_eq!(sum(&c, &all(4)).unwrap(), 7.0);
    }

    #[test]
    fn type_errors_surface() {
        let c = int_col(&[Some(1)]);
        let mut s = ColumnData::new(DataType::Str);
        s.push(&Value::str("a")).unwrap();
        assert!(sum(&s, &all(1)).is_err());
        assert!(filter_cmp(&c, &all(1), CmpOp::Eq, &Value::str("a")).is_err());
    }
}
