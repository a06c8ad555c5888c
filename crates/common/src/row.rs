//! Rows: ordered tuples of values matching a table schema.

use std::fmt;

use crate::error::{Error, Result};
use crate::key::Key;
use crate::value::Value;

/// A row of a table: values positionally aligned with the schema's columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// Empty row (used as a seed for projections).
    pub fn empty() -> Row {
        Row { values: Vec::new() }
    }

    /// Value at column `idx`.
    pub fn get(&self, idx: usize) -> Result<&Value> {
        self.values
            .get(idx)
            .ok_or_else(|| Error::execution(format!("column index {idx} out of range")))
    }

    /// Mutable value at column `idx`.
    pub fn set(&mut self, idx: usize, v: Value) -> Result<()> {
        let slot = self
            .values
            .get_mut(idx)
            .ok_or_else(|| Error::execution(format!("column index {idx} out of range")))?;
        *slot = v;
        Ok(())
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Encode the given columns as an order-preserving key.
    pub fn key_of(&self, cols: &[usize]) -> Result<Key> {
        let mut vals = Vec::with_capacity(cols.len());
        for &c in cols {
            vals.push(self.get(c)?.clone());
        }
        Ok(Key::encode(&vals))
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut vals = Vec::with_capacity(self.arity() + other.arity());
        vals.extend_from_slice(&self.values);
        vals.extend_from_slice(&other.values);
        Row::new(vals)
    }

    /// Approximate heap footprint for memory accounting.
    pub fn heap_size(&self) -> usize {
        24 + self.values.iter().map(Value::heap_size).sum::<usize>()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![Value::Int(1), Value::str("bob"), Value::Double(9.5)])
    }

    #[test]
    fn get_and_set() {
        let mut r = sample();
        assert_eq!(r.get(1).unwrap(), &Value::str("bob"));
        r.set(1, Value::str("alice")).unwrap();
        assert_eq!(r.get(1).unwrap(), &Value::str("alice"));
        assert!(r.get(9).is_err());
    }

    #[test]
    fn key_of_is_order_preserving() {
        let a = Row::new(vec![Value::Int(1), Value::str("a")]);
        let b = Row::new(vec![Value::Int(2), Value::str("a")]);
        assert!(a.key_of(&[0]).unwrap() < b.key_of(&[0]).unwrap());
    }

    #[test]
    fn concat_joins_rows() {
        let j = sample().concat(&Row::new(vec![Value::Null]));
        assert_eq!(j.arity(), 4);
        assert_eq!(j.get(3).unwrap(), &Value::Null);
    }
}
