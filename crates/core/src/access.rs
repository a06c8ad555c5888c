//! Which rows can a predicate possibly name?
//!
//! [`key_access`] turns a WHERE clause into the set of primary keys it can
//! match, when the clause pins every key column to a few constants. The
//! SELECT path ([`crate::provider::ClusterProvider`]) and the DML path
//! (`session::dml`) both go only to those rows. The contract is that the
//! answer is a **superset** of the rows the predicate keeps: callers still
//! evaluate the predicate on every row that comes back, so answering
//! [`KeyAccess::All`] costs time and never rows.

use polardbx_common::{DataType, Row, TableSchema, Value};
use polardbx_sql::expr::{BinOp, Expr};

/// Most keys a predicate may enumerate to before a scan is the better plan.
/// A key costs one point lookup — for DML, one more message in the round
/// that carries the statement's whole read set — where a scan examines, and
/// DML ships to the CN, every row of the table. Keys therefore win until
/// they approach the table's row count, which this module does not know;
/// the bound only keeps the enumeration (a cross product) and a round's
/// bookkeeping (quadratic in its messages) too small to matter.
const MAX_KEYS: usize = 64;

/// The rows a statement has to visit.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyAccess {
    /// Only these keys. Each is a *key row*: full table arity, the primary
    /// key and partition columns set, every other column NULL — what
    /// `TableSchema::pk_of` and `Gms::route_row` take.
    Keys(Vec<Row>),
    /// Every row of every shard.
    All,
}

/// As `EXPLAIN` prints it: `keys(n)` or `all shards`.
impl std::fmt::Display for KeyAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyAccess::Keys(keys) => write!(f, "keys({})", keys.len()),
            KeyAccess::All => f.write_str("all shards"),
        }
    }
}

/// What the conjuncts say about one key column.
#[derive(Default)]
struct Bound {
    /// Values an `=` / `IN` conjunct allows.
    among: Option<Vec<Value>>,
    /// Tightest inclusive integer range from `<`, `<=`, `>`, `>=`, `BETWEEN`.
    low: Option<i64>,
    high: Option<i64>,
}

/// The columns that say where a row lives: the primary key (its storage
/// key), then any partition column outside it (its shard).
pub fn key_columns(schema: &TableSchema) -> Vec<usize> {
    let mut cols = schema.primary_key.clone();
    for c in schema.partition_col_indexes() {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

/// The key columns of a table and what is known about each.
struct KeyBounds<'a> {
    schema: &'a TableSchema,
    cols: Vec<usize>,
    bounds: Vec<Bound>,
}

/// Derive the access set of `predicate`, which is resolved against
/// `schema.columns` (the SELECT planner resolves against the visible
/// columns, a prefix of them).
///
/// Only the top-level `AND` conjuncts count, and only those of the form
/// `col = const`, `col IN (consts)` or, for an integer column, a closed
/// range of at most [`MAX_KEYS`] values. A constant is any expression that
/// evaluates without a row (`5`, `-5`, `2 + 3`). Everything else — `OR` /
/// `NOT` at the top, a key column left unbound, a table with an implicit
/// primary key — is [`KeyAccess::All`].
pub fn key_access(schema: &TableSchema, predicate: &Expr) -> KeyAccess {
    if schema.implicit_pk {
        return KeyAccess::All;
    }
    let cols = key_columns(schema);
    let bounds = cols.iter().map(|_| Bound::default()).collect();
    let mut keys = KeyBounds { schema, cols, bounds };
    keys.narrow(predicate);

    let mut rows = vec![vec![Value::Null; schema.arity()]];
    for (&col, bound) in keys.cols.iter().zip(keys.bounds) {
        let Some(values) = bound.values() else { return KeyAccess::All };
        if rows.len() * values.len() > MAX_KEYS {
            return KeyAccess::All;
        }
        rows = rows
            .iter()
            .flat_map(|row| {
                values.iter().map(move |v| {
                    let mut row = row.clone();
                    row[col] = v.clone();
                    row
                })
            })
            .collect();
    }
    KeyAccess::Keys(rows.into_iter().map(Row::new).collect())
}

impl KeyBounds<'_> {
    /// The bound of key column `col`, if a constant of type `ty` encodes the
    /// way the column's stored values do. A column whose type admits two
    /// encodings of one number (DOUBLE and DATE also accept an integer) has
    /// rows `eval_bool` would match under a key this module would not
    /// enumerate, so it never binds.
    fn bound_of(&mut self, col: usize, ty: DataType) -> Option<&mut Bound> {
        let slot = self.cols.iter().position(|&k| k == col)?;
        (self.schema.columns[col].ty == ty).then(|| &mut self.bounds[slot])
    }

    /// Walk the top-level `AND` conjuncts of `e`, narrowing the bound of
    /// each key column a conjunct constrains. A conjunct of any other shape
    /// is skipped, which only widens the set.
    fn narrow(&mut self, e: &Expr) {
        match e {
            Expr::Binary { op: BinOp::And, left, right } => {
                self.narrow(left);
                self.narrow(right);
            }
            Expr::Binary { op, left, right } => {
                // `col op const`, or `const op col` with the operator mirrored.
                let (col, constant, op) = match (left.as_ref(), right.as_ref()) {
                    (Expr::ColumnIdx(c), k) => (*c, k, *op),
                    (k, Expr::ColumnIdx(c)) => (*c, k, mirror(*op)),
                    _ => return,
                };
                let Some((v, ty)) = constant_of(constant) else { return };
                let Some(bound) = self.bound_of(col, ty) else { return };
                match (op, &v) {
                    (BinOp::Eq, _) => bound.allow(vec![v]),
                    (BinOp::Ge, Value::Int(i)) => bound.at_least(Some(*i)),
                    (BinOp::Gt, Value::Int(i)) => bound.at_least(i.checked_add(1)),
                    (BinOp::Le, Value::Int(i)) => bound.at_most(Some(*i)),
                    (BinOp::Lt, Value::Int(i)) => bound.at_most(i.checked_sub(1)),
                    _ => {}
                }
            }
            Expr::Between { expr, low, high } => {
                let Expr::ColumnIdx(col) = expr.as_ref() else { return };
                let (Some((Value::Int(lo), _)), Some((Value::Int(hi), _))) =
                    (constant_of(low), constant_of(high))
                else {
                    return;
                };
                if let Some(bound) = self.bound_of(*col, DataType::Int) {
                    bound.at_least(Some(lo));
                    bound.at_most(Some(hi));
                }
            }
            Expr::InList { expr, list, negated: false } => {
                let Expr::ColumnIdx(col) = expr.as_ref() else { return };
                let Some(values) = list.iter().map(constant_of).collect::<Option<Vec<_>>>()
                else {
                    return;
                };
                // One list, one type: a stray `2.0` or NULL among integers
                // would match rows these keys do not name.
                let Some(&(_, ty)) = values.first() else { return };
                if values.iter().any(|(_, t)| *t != ty) {
                    return;
                }
                if let Some(bound) = self.bound_of(*col, ty) {
                    bound.allow(values.into_iter().map(|(v, _)| v).collect());
                }
            }
            _ => {}
        }
    }
}

impl Bound {
    fn allow(&mut self, values: Vec<Value>) {
        match &mut self.among {
            Some(among) => among.retain(|v| values.contains(v)),
            None => self.among = Some(values),
        }
    }

    /// `None` is a bound past `i64`: skipping it only widens the set.
    fn at_least(&mut self, lo: Option<i64>) {
        if let Some(lo) = lo {
            self.low = Some(self.low.map_or(lo, |cur| cur.max(lo)));
        }
    }

    fn at_most(&mut self, hi: Option<i64>) {
        if let Some(hi) = hi {
            self.high = Some(self.high.map_or(hi, |cur| cur.min(hi)));
        }
    }

    /// The distinct values the column can take, or `None` when unbounded
    /// (or bounded too loosely to enumerate).
    fn values(self) -> Option<Vec<Value>> {
        let mut values: Vec<Value> = match (self.among, self.low, self.high) {
            (Some(among), ..) => among,
            (None, Some(lo), Some(hi)) if hi.saturating_sub(lo) < MAX_KEYS as i64 => {
                (lo..=hi).map(Value::Int).collect()
            }
            _ => return None,
        };
        values.sort();
        values.dedup();
        Some(values)
    }
}

/// The value of `e` if it needs no row, with the one column type whose key
/// encoding that value has. NULL and doubles have none: `id = 5.0` is true
/// of the row keyed `Int(5)`, but encodes to another key.
fn constant_of(e: &Expr) -> Option<(Value, DataType)> {
    // Evaluation against the empty row fails at the first column reference,
    // so success means the expression never looked at a row.
    let v = e.eval(&Row::empty()).ok()?;
    let ty = match v {
        Value::Int(_) => DataType::Int,
        Value::Str(_) => DataType::Str,
        Value::Bytes(_) => DataType::Bytes,
        Value::Null | Value::Double(_) | Value::Date(_) => return None,
    };
    Some((v, ty))
}

fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{ColumnDef, PartitionSpec, TableId};
    use polardbx_sql::Statement;

    fn columns() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("g", DataType::Int).not_null(),
            ColumnDef::new("s", DataType::Str).not_null(),
            ColumnDef::new("d", DataType::Double),
            ColumnDef::new("v", DataType::Int),
        ]
    }

    fn table(pk: &[&str], partition: &[&str]) -> TableSchema {
        TableSchema::new(
            TableId(1),
            "t",
            columns(),
            pk.iter().map(|c| c.to_string()).collect(),
            PartitionSpec::Hash {
                columns: partition.iter().map(|c| c.to_string()).collect(),
                shards: 4,
            },
        )
        .unwrap()
    }

    /// The key rows `predicate` names on `schema`, projected onto the key
    /// columns (`None` = all shards).
    fn access(schema: &TableSchema, predicate: &str) -> Option<Vec<Vec<Value>>> {
        let Statement::Select(sel) =
            polardbx_sql::parse(&format!("SELECT * FROM t WHERE {predicate}")).unwrap()
        else {
            unreachable!()
        };
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let resolved = sel.predicate.unwrap().resolve(&names).unwrap();
        match key_access(schema, &resolved) {
            KeyAccess::All => None,
            KeyAccess::Keys(rows) => Some(
                rows.iter()
                    .map(|r| {
                        r.values().iter().filter(|v| !v.is_null()).cloned().collect::<Vec<_>>()
                    })
                    .collect(),
            ),
        }
    }

    fn ints(keys: &[i64]) -> Option<Vec<Vec<Value>>> {
        Some(keys.iter().map(|&k| vec![Value::Int(k)]).collect())
    }

    #[test]
    fn single_column_key_binds_from_eq_in_and_closed_ranges() {
        let t = table(&["id"], &["id"]);
        assert_eq!(access(&t, "id = 5"), ints(&[5]));
        assert_eq!(access(&t, "5 = id AND v > 3"), ints(&[5]));
        assert_eq!(access(&t, "id = 2 + 3"), ints(&[5]), "constants fold");
        assert_eq!(access(&t, "id = -5"), ints(&[-5]));
        assert_eq!(access(&t, "id IN (7, 3, 7)"), ints(&[3, 7]), "distinct keys");
        assert_eq!(access(&t, "id >= 4 AND id < 4 + 3"), ints(&[4, 5, 6]));
        assert_eq!(access(&t, "id BETWEEN 1 AND 3"), ints(&[1, 2, 3]));
        assert_eq!(access(&t, "3 >= id AND 1 < id"), ints(&[2, 3]), "mirrored operators");
        assert_eq!(access(&t, "id = 5 AND id = 6"), ints(&[]), "contradiction names nothing");
        assert_eq!(access(&t, "id > 5 AND id < 5"), ints(&[]));
        assert_eq!(access(&t, "id IN (1, 2, 3) AND id IN (2, 3, 4)"), ints(&[2, 3]));
    }

    #[test]
    fn anything_else_scans() {
        let t = table(&["id"], &["id"]);
        for p in [
            "v = 5",
            "id = 5 OR id = 6",
            "NOT (id = 5)",
            "NOT (NOT (id = 5))",
            "id != 5",
            "id NOT IN (5)",
            "id > 5",
            "id >= 0 AND id < 65",
            "id >= -9223372036854775807 AND id <= 9223372036854775807",
            "id = g",
            "id + 1 = 6",
            "id IS NULL",
        ] {
            assert_eq!(access(&t, p), None, "{p}");
        }
        assert_eq!(access(&t, "id >= 0 AND id < 64").map(|k| k.len()), Some(MAX_KEYS));
        // The bound is on the cross product over the key columns.
        let by_g = table(&["id"], &["g"]);
        let eight = "g IN (0, 1, 2, 3, 4, 5, 6, 7)";
        assert_eq!(access(&by_g, &format!("id >= 0 AND id < 9 AND {eight}")), None);
        assert_eq!(
            access(&by_g, &format!("id >= 0 AND id < 8 AND {eight}")).map(|k| k.len()),
            Some(MAX_KEYS)
        );
    }

    #[test]
    fn a_constant_must_encode_like_the_column() {
        let t = table(&["id"], &["id"]);
        // Equal under `eval_bool`, but another `Key`.
        for p in ["id = 5.0", "id IN (5, 6.0)", "id BETWEEN 1.0 AND 3", "id = 10 / 4.0"] {
            assert_eq!(access(&t, p), None, "{p}");
        }
        // Never true, or an execution error: the scan decides which.
        for p in ["id = NULL", "id IN (5, NULL)", "id = '5'", "id = 1 / 0"] {
            assert_eq!(access(&t, p), None, "{p}");
        }
        // A usable conjunct still binds beside an unusable one.
        assert_eq!(access(&t, "id = 5 AND id = 5.0"), ints(&[5]));
        // DOUBLE admits `Int(5)` and `Double(5.0)` rows alike: never a key.
        let d = table(&["d"], &["d"]);
        assert_eq!(access(&d, "d = 5.0"), None);
        assert_eq!(access(&d, "d = 5"), None);
        let s = table(&["s"], &["s"]);
        assert_eq!(access(&s, "s = 'a'"), Some(vec![vec![Value::str("a")]]));
        assert_eq!(access(&s, "s = 5"), None);
        assert_eq!(access(&s, "s >= 'a' AND s <= 'b'"), None, "only integer ranges enumerate");
    }

    #[test]
    fn composite_and_partition_columns_must_all_bind() {
        let t = table(&["id", "s"], &["id"]);
        assert_eq!(access(&t, "id = 1"), None, "partly bound key");
        assert_eq!(access(&t, "s = 'a'"), None);
        assert_eq!(
            access(&t, "id IN (1, 2) AND s = 'a'"),
            Some(vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("a")],
            ])
        );
        assert_eq!(
            access(&t, "id BETWEEN 1 AND 3 AND s IN ('a', 'b', 'c')").map(|k| k.len()),
            Some(9),
            "the cross product"
        );
        // Partitioned by a column outside the primary key: the key says
        // which row, the partition column which shard; both are needed.
        let p = table(&["id"], &["g"]);
        assert_eq!(access(&p, "id = 1"), None);
        assert_eq!(access(&p, "g = 2"), None);
        assert_eq!(access(&p, "id = 1 AND g = 2"), Some(vec![vec![Value::Int(1), Value::Int(2)]]));
    }

    #[test]
    fn implicit_primary_key_always_scans() {
        let t = TableSchema::hash_on_pk(TableId(1), "t", columns(), vec![], 4).unwrap();
        assert_eq!(access(&t, "id = 5"), None);
    }

    #[test]
    fn key_rows_route_and_encode_like_stored_rows() {
        let t = table(&["id", "s"], &["id"]);
        let stored = Row::new(vec![
            Value::Int(7),
            Value::Int(1),
            Value::str("x"),
            Value::Double(0.5),
            Value::Int(9),
        ]);
        let names: Vec<String> = t.columns.iter().map(|c| c.name.clone()).collect();
        let p = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Eq, Expr::Column("id".into()), Expr::int(7)),
            Expr::binary(BinOp::Eq, Expr::Column("s".into()), Expr::Literal(Value::str("x"))),
        )
        .resolve(&names)
        .unwrap();
        let KeyAccess::Keys(keys) = key_access(&t, &p) else { panic!("expected keys") };
        assert_eq!(keys.len(), 1);
        assert_eq!(t.pk_of(&keys[0]).unwrap(), t.pk_of(&stored).unwrap());
        assert_eq!(t.shard_of(&keys[0]).unwrap(), t.shard_of(&stored).unwrap());
    }
}
