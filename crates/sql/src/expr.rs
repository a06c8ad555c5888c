//! Scalar expressions: representation, resolution and evaluation.

use std::fmt;

use polardbx_common::{Error, Result, Row, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
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
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(x)`
    Count,
    /// `SUM(x)`
    Sum,
    /// `AVG(x)`
    Avg,
    /// `MIN(x)`
    Min,
    /// `MAX(x)`
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// A scalar expression. Parsed expressions reference columns by name
/// ([`Expr::Column`]); [`Expr::resolve`] rewrites them to positional
/// [`Expr::ColumnIdx`] against an output schema so evaluation is
/// lookup-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// The statement's `i`-th literal, left out of a cached plan template;
    /// [`Expr::bind`] puts the value back before anything evaluates it.
    Param(usize),
    /// Column by (optionally qualified) name, e.g. `l_qty` or `lineitem.l_qty`.
    Column(String),
    /// Column by position (after resolution).
    ColumnIdx(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `x IS NULL` / `x IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `x BETWEEN lo AND hi`.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
    },
    /// `x IN (v1, v2, …)`.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `x LIKE 'pat%'` — supports `%` and `_` wildcards.
    Like {
        /// Operand.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
    },
    /// `CASE WHEN c1 THEN v1 [WHEN …] [ELSE e] END`.
    Case {
        /// (condition, result) arms.
        when: Vec<(Expr, Expr)>,
        /// ELSE result (NULL when absent).
        otherwise: Option<Box<Expr>>,
    },
    /// An aggregate application, e.g. `SUM(l_qty * l_price)`. Only legal in
    /// select/having position; the planner rewrites it into an aggregate
    /// node output before execution.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Argument (`None` for `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// DISTINCT flag.
        distinct: bool,
    },
}

impl Expr {
    /// Shorthand: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Shorthand: column reference.
    #[cfg(test)]
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into().to_ascii_lowercase())
    }

    /// Shorthand: binary expression.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// Resolve column names to positions against `schema` (lowercased
    /// column names; qualified names match their suffix after `.`).
    pub fn resolve(&self, schema: &[String]) -> Result<Expr> {
        let lookup = |name: &str| -> Result<usize> {
            let lname = name.to_ascii_lowercase();
            // Exact match first, then unqualified-suffix match.
            if let Some(i) = schema.iter().position(|c| *c == lname) {
                return Ok(i);
            }
            let suffix = lname.rsplit('.').next().unwrap_or(&lname);
            let mut hit = None;
            for (i, c) in schema.iter().enumerate() {
                let csuffix = c.rsplit('.').next().unwrap_or(c);
                if csuffix == suffix {
                    if hit.is_some() {
                        return Err(Error::Plan {
                            message: format!("ambiguous column {name}"),
                        });
                    }
                    hit = Some(i);
                }
            }
            hit.ok_or(Error::UnknownColumn { name: lname })
        };
        self.transform(&|e| match e {
            Expr::Column(name) => Ok(Expr::ColumnIdx(lookup(&name)?)),
            other => Ok(other),
        })
    }

    /// Bottom-up transformation: `f` maps each node, its children already
    /// mapped.
    pub fn transform(&self, f: &impl Fn(Expr) -> Result<Expr>) -> Result<Expr> {
        let rebuilt = match self {
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.transform(f)?),
                right: Box::new(right.transform(f)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.transform(f)?)),
            Expr::Neg(e) => Expr::Neg(Box::new(e.transform(f)?)),
            Expr::IsNull { expr, negated } => {
                Expr::IsNull { expr: Box::new(expr.transform(f)?), negated: *negated }
            }
            Expr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(expr.transform(f)?),
                low: Box::new(low.transform(f)?),
                high: Box::new(high.transform(f)?),
            },
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: Box::new(expr.transform(f)?),
                list: list.iter().map(|e| e.transform(f)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Like { expr, pattern } => {
                Expr::Like { expr: Box::new(expr.transform(f)?), pattern: pattern.clone() }
            }
            Expr::Case { when, otherwise } => Expr::Case {
                when: when
                    .iter()
                    .map(|(c, v)| Ok((c.transform(f)?, v.transform(f)?)))
                    .collect::<Result<_>>()?,
                otherwise: match otherwise {
                    Some(e) => Some(Box::new(e.transform(f)?)),
                    None => None,
                },
            },
            Expr::Agg { func, arg, distinct } => Expr::Agg {
                func: *func,
                arg: match arg {
                    Some(e) => Some(Box::new(e.transform(f)?)),
                    None => None,
                },
                distinct: *distinct,
            },
            leaf => leaf.clone(),
        };
        f(rebuilt)
    }

    /// Walk the tree, invoking `f` on every node (children first).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Not(e) | Expr::Neg(e) => e.visit(f),
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => expr.visit(f),
            Expr::Between { expr, low, high } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Case { when, otherwise } => {
                for (c, v) in when {
                    c.visit(f);
                    v.visit(f);
                }
                if let Some(e) = otherwise {
                    e.visit(f);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit(f);
                }
            }
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) | Expr::ColumnIdx(_) => {}
        }
        f(self);
    }

    /// This expression with every [`Expr::Param`]`(i)` replaced by the
    /// literal `literals[i]`.
    pub fn bind(&self, literals: &[Value]) -> Expr {
        self.transform(&|e| match e {
            Expr::Param(i) => Ok(Expr::Literal(literals[i].clone())),
            other => Ok(other),
        })
        .expect("binding cannot fail")
    }

    /// Collect all referenced column names (pre-resolution).
    pub fn columns(&self, out: &mut Vec<String>) {
        self.visit(&mut |e| {
            if let Expr::Column(name) = e {
                out.push(name.clone());
            }
        });
    }

    /// Evaluate against `row`. Requires resolution ([`Expr::ColumnIdx`]);
    /// unresolved columns are an execution error.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(i) => Err(Error::execution(format!("unbound parameter {i}"))),
            Expr::Column(name) => {
                Err(Error::execution(format!("unresolved column {name}")))
            }
            Expr::ColumnIdx(i) => Ok(row.get(*i)?.clone()),
            Expr::Binary { op, left, right } => {
                let l = left.eval(row)?;
                // Short-circuit logic operators.
                match op {
                    BinOp::And => {
                        return if !truthy(&l) {
                            Ok(Value::Int(0))
                        } else {
                            Ok(Value::Int(truthy(&right.eval(row)?) as i64))
                        }
                    }
                    BinOp::Or => {
                        return if truthy(&l) {
                            Ok(Value::Int(1))
                        } else {
                            Ok(Value::Int(truthy(&right.eval(row)?) as i64))
                        }
                    }
                    _ => {}
                }
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Not(e) => Ok(Value::Int(!truthy(&e.eval(row)?) as i64)),
            Expr::Neg(e) => match e.eval(row)? {
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Double(v) => Ok(Value::Double(-v)),
                other => Err(Error::execution(format!("cannot negate {other}"))),
            },
            Expr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Value::Int((isnull != *negated) as i64))
            }
            Expr::Between { expr, low, high } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                let ge = matches!(
                    v.sql_cmp(&lo),
                    Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                );
                let le = matches!(
                    v.sql_cmp(&hi),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                );
                Ok(Value::Int((ge && le) as i64))
            }
            Expr::InList { expr, list, negated } => {
                let v = expr.eval(row)?;
                let mut found = false;
                for cand in list {
                    if v == cand.eval(row)? {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Int((found != *negated) as i64))
            }
            Expr::Like { expr, pattern } => {
                let v = expr.eval(row)?;
                let s = v.as_str()?;
                Ok(Value::Int(like_match(s, pattern) as i64))
            }
            Expr::Case { when, otherwise } => {
                for (cond, result) in when {
                    if truthy(&cond.eval(row)?) {
                        return result.eval(row);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            Expr::Agg { .. } => {
                Err(Error::execution("aggregate evaluated outside aggregation"))
            }
        }
    }

    /// Evaluate as a boolean predicate.
    pub fn eval_bool(&self, row: &Row) -> Result<bool> {
        Ok(truthy(&self.eval(row)?))
    }
}

/// SQL truthiness: non-zero numeric, NULL is false.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Double(d) => *d != 0.0,
        Value::Str(s) => !s.is_empty(),
        Value::Bytes(b) => !b.is_empty(),
        Value::Date(_) => true,
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    // NULL propagates through arithmetic and comparisons.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Add | Sub | Mul | Div | Mod => {
            // Integer arithmetic when both sides are Int; else double.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                let v = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Div => {
                        if *b == 0 {
                            return Ok(Value::Null);
                        }
                        a / b
                    }
                    Mod => {
                        if *b == 0 {
                            return Ok(Value::Null);
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                return Ok(Value::Int(v));
            }
            let a = l.as_double()?;
            let b = r.as_double()?;
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                Mod => a % b,
                _ => unreachable!(),
            };
            Ok(Value::Double(v))
        }
        Eq | Neq | Lt | Le | Gt | Ge => {
            let ord = l
                .sql_cmp(r)
                .ok_or_else(|| Error::execution(format!("cannot compare {l} and {r}")))?;
            use std::cmp::Ordering::*;
            let b = match op {
                Eq => ord == Equal,
                Neq => ord != Equal,
                Lt => ord == Less,
                Le => ord != Greater,
                Gt => ord == Greater,
                Ge => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Int(b as i64))
        }
        And | Or => unreachable!("handled in eval"),
    }
}

/// SQL LIKE with `%` (any run) and `_` (single char), case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Try every split point.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "?{i}"),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::ColumnIdx(i) => write!(f, "#{i}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op:?} {right})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Between { expr, low, high } => write!(f, "{expr} BETWEEN {low} AND {high}"),
            Expr::InList { expr, list, negated } => {
                write!(f, "{expr} {}IN ({} items)", if *negated { "NOT " } else { "" }, list.len())
            }
            Expr::Like { expr, pattern } => write!(f, "{expr} LIKE '{pattern}'"),
            Expr::Case { when, .. } => write!(f, "CASE ({} arms)", when.len()),
            Expr::Agg { func, arg, .. } => match arg {
                Some(a) => write!(f, "{func:?}({a})"),
                None => write!(f, "{func:?}(*)"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new(vec![Value::Int(10), Value::str("hello"), Value::Double(2.5), Value::Null])
    }

    #[test]
    fn arithmetic() {
        let e = Expr::binary(BinOp::Add, Expr::ColumnIdx(0), Expr::int(5));
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(15));
        let e = Expr::binary(BinOp::Mul, Expr::ColumnIdx(2), Expr::Literal(Value::Double(2.0)));
        assert_eq!(e.eval(&row()).unwrap(), Value::Double(5.0));
        // Mixed int/double promotes.
        let e = Expr::binary(BinOp::Add, Expr::ColumnIdx(0), Expr::ColumnIdx(2));
        assert_eq!(e.eval(&row()).unwrap(), Value::Double(12.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::binary(BinOp::Div, Expr::int(5), Expr::int(0));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagation() {
        let e = Expr::binary(BinOp::Add, Expr::ColumnIdx(3), Expr::int(1));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        let e = Expr::binary(BinOp::Eq, Expr::ColumnIdx(3), Expr::ColumnIdx(3));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null, "NULL = NULL is NULL");
    }

    #[test]
    fn comparisons_and_logic() {
        let gt = Expr::binary(BinOp::Gt, Expr::ColumnIdx(0), Expr::int(5));
        assert!(gt.eval_bool(&row()).unwrap());
        let and = Expr::binary(
            BinOp::And,
            gt.clone(),
            Expr::binary(BinOp::Lt, Expr::ColumnIdx(0), Expr::int(20)),
        );
        assert!(and.eval_bool(&row()).unwrap());
        let not = Expr::Not(Box::new(gt));
        assert!(!not.eval_bool(&row()).unwrap());
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // RHS would fail (unresolved column), but LHS already decides.
        let e = Expr::binary(
            BinOp::And,
            Expr::int(0),
            Expr::Column("nope".into()),
        );
        assert!(!e.eval_bool(&row()).unwrap());
        let e = Expr::binary(BinOp::Or, Expr::int(1), Expr::Column("nope".into()));
        assert!(e.eval_bool(&row()).unwrap());
    }

    #[test]
    fn is_null_between_in() {
        let isnull = Expr::IsNull { expr: Box::new(Expr::ColumnIdx(3)), negated: false };
        assert!(isnull.eval_bool(&row()).unwrap());
        let between = Expr::Between {
            expr: Box::new(Expr::ColumnIdx(0)),
            low: Box::new(Expr::int(5)),
            high: Box::new(Expr::int(10)),
        };
        assert!(between.eval_bool(&row()).unwrap());
        let inlist = Expr::InList {
            expr: Box::new(Expr::ColumnIdx(0)),
            list: vec![Expr::int(1), Expr::int(10)],
            negated: false,
        };
        assert!(inlist.eval_bool(&row()).unwrap());
        let notin = Expr::InList {
            expr: Box::new(Expr::ColumnIdx(0)),
            list: vec![Expr::int(1)],
            negated: true,
        };
        assert!(notin.eval_bool(&row()).unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(!like_match("hello", "h_"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case {
            when: vec![
                (Expr::binary(BinOp::Gt, Expr::ColumnIdx(0), Expr::int(100)), Expr::int(1)),
                (Expr::binary(BinOp::Gt, Expr::ColumnIdx(0), Expr::int(5)), Expr::int(2)),
            ],
            otherwise: Some(Box::new(Expr::int(3))),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(2));
        let no_else = Expr::Case {
            when: vec![(Expr::int(0), Expr::int(1))],
            otherwise: None,
        };
        assert_eq!(no_else.eval(&row()).unwrap(), Value::Null);
    }

    #[test]
    fn resolution_qualified_and_ambiguous() {
        let schema = vec!["t.a".to_string(), "t.b".to_string(), "u.a".to_string()];
        // Qualified exact match.
        let e = Expr::col("t.a").resolve(&schema).unwrap();
        assert_eq!(e, Expr::ColumnIdx(0));
        // Unqualified unique suffix.
        let e = Expr::col("b").resolve(&schema).unwrap();
        assert_eq!(e, Expr::ColumnIdx(1));
        // Unqualified ambiguous suffix.
        assert!(Expr::col("a").resolve(&schema).is_err());
        // Unknown.
        assert!(Expr::col("zzz").resolve(&schema).is_err());
    }

    #[test]
    fn bind_replaces_every_parameter_and_nothing_else() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Eq, Expr::ColumnIdx(0), Expr::Param(1)),
            Expr::InList {
                expr: Box::new(Expr::ColumnIdx(1)),
                list: vec![Expr::Param(2), Expr::int(4)],
                negated: false,
            },
        );
        assert!(e.eval(&row()).is_err(), "a parameter does not evaluate");
        let e = e.bind(&[Value::Int(99), Value::Int(10), Value::str("hello")]);
        assert!(e.eval_bool(&row()).unwrap());
        let mut params = 0;
        e.visit(&mut |x| params += matches!(x, Expr::Param(_)) as usize);
        assert_eq!(params, 0);
    }

    #[test]
    fn columns_collection() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Eq, Expr::col("x"), Expr::int(1)),
            Expr::binary(BinOp::Lt, Expr::col("y"), Expr::col("z")),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(cols, vec!["x", "y", "z"]);
    }
}
