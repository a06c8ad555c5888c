//! Recursive-descent parser for the SQL subset.

use polardbx_common::{DataType, Error, Result, Value};

use crate::ast::*;
use crate::expr::{AggFunc, BinOp, Expr};
use crate::token::{lex, Lexed, Symbol, Token};

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    parse_lexed(&lex(sql)?)
}

/// Parse a lexed statement; every literal stays a literal.
pub fn parse_lexed(lexed: &Lexed<'_>) -> Result<Statement> {
    Parser::new(lexed, false).run().map(|(stmt, _)| stmt)
}

/// Parse a lexed statement for the plan cache. Every literal that is an
/// operand of a `WHERE` or `SET` expression becomes [`Expr::Param`]`(i)`,
/// `i` its place in [`Lexed::literals`]; the returned list names those
/// places. Every other literal — `LIMIT n`, a `LIKE` pattern, the select
/// list, `GROUP BY` / `HAVING` / `ORDER BY`, `JOIN … ON`, `VALUES` — stays a
/// literal: the plan depends on its value.
pub fn parse_with_params(lexed: &Lexed<'_>) -> Result<(Statement, Vec<usize>)> {
    Parser::new(lexed, true).run()
}

/// The parser state.
pub struct Parser<'t, 'a> {
    tokens: &'t [(Token<'a>, usize)],
    pos: usize,
    /// Literal tokens consumed so far.
    literals: usize,
    /// Turn operand literals into parameters.
    with_params: bool,
    /// Inside a `WHERE` or `SET` operand.
    in_operand: bool,
    /// The literals that became parameters.
    params: Vec<usize>,
}

impl<'t, 'a> Parser<'t, 'a> {
    fn new(lexed: &'t Lexed<'a>, with_params: bool) -> Parser<'t, 'a> {
        Parser {
            tokens: lexed.tokens(),
            pos: 0,
            literals: 0,
            with_params,
            in_operand: false,
            params: Vec::new(),
        }
    }

    fn run(mut self) -> Result<(Statement, Vec<usize>)> {
        let stmt = self.statement()?;
        self.eat_symbol(Symbol::Semi); // optional trailing semicolon
        self.expect_eof()?;
        Ok((stmt, self.params))
    }

    fn peek(&self) -> &'t Token<'a> {
        &self.tokens[self.pos].0
    }

    fn position(&self) -> usize {
        self.tokens[self.pos].1
    }

    fn bump(&mut self) -> &'t Token<'a> {
        let t = &self.tokens[self.pos].0;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        if t.is_literal() {
            self.literals += 1;
        }
        t
    }

    /// The literal just consumed: a parameter inside an operand of a
    /// statement parsed with parameters, else its value.
    fn literal(&mut self, value: impl FnOnce() -> Value) -> Expr {
        if self.with_params && self.in_operand {
            let i = self.literals - 1;
            self.params.push(i);
            Expr::Param(i)
        } else {
            Expr::Literal(value())
        }
    }

    /// Parse a `WHERE` / `SET` operand.
    fn operand(&mut self) -> Result<Expr> {
        let outer = std::mem::replace(&mut self.in_operand, true);
        let e = self.expr();
        self.in_operand = outer;
        e
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse { message: msg.into(), position: self.position() }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if *self.peek() == Token::Symbol(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        match self.peek() {
            Token::Eof => Ok(()),
            other => Err(self.err(format!("unexpected trailing {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s.to_ascii_lowercase()),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn integer(&mut self) -> Result<i64> {
        match self.bump() {
            Token::Int(v) => Ok(*v),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    // ------------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement> {
        if self.peek().is_kw("select") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_kw("insert") {
            self.insert()
        } else if self.eat_kw("update") {
            self.update()
        } else if self.eat_kw("delete") {
            self.delete()
        } else if self.eat_kw("create") {
            self.create()
        } else {
            Err(self.err(format!("unsupported statement start {:?}", self.peek())))
        }
    }

    fn create(&mut self) -> Result<Statement> {
        if self.eat_kw("table") {
            return self.create_table();
        }
        // CREATE [GLOBAL|LOCAL] [CLUSTERED] [UNIQUE] INDEX
        let mut placement = IndexPlacement::Global;
        let mut unique = false;
        let mut saw_placement = false;
        loop {
            if self.eat_kw("global") {
                placement = IndexPlacement::Global;
                saw_placement = true;
            } else if self.eat_kw("local") {
                placement = IndexPlacement::Local;
                saw_placement = true;
            } else if self.eat_kw("clustered") {
                placement = IndexPlacement::GlobalClustered;
                saw_placement = true;
            } else if self.eat_kw("unique") {
                unique = true;
            } else {
                break;
            }
        }
        let _ = saw_placement;
        self.expect_kw("index")?;
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect_symbol(Symbol::LParen)?;
        let columns = self.ident_list()?;
        self.expect_symbol(Symbol::RParen)?;
        Ok(Statement::CreateIndex(CreateIndex { name, table, columns, placement, unique }))
    }

    fn ident_list(&mut self) -> Result<Vec<String>> {
        let mut out = vec![self.ident()?];
        while self.eat_symbol(Symbol::Comma) {
            out.push(self.ident()?);
        }
        Ok(out)
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident()?;
        // Optional length suffix like VARCHAR(32) / DECIMAL(12,2).
        if self.eat_symbol(Symbol::LParen) {
            let _ = self.integer()?;
            if self.eat_symbol(Symbol::Comma) {
                let _ = self.integer()?;
            }
            self.expect_symbol(Symbol::RParen)?;
        }
        match name.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "tinyint" => Ok(DataType::Int),
            "double" | "float" | "decimal" | "numeric" | "real" => Ok(DataType::Double),
            "varchar" | "char" | "text" | "string" => Ok(DataType::Str),
            "varbinary" | "blob" | "bytes" => Ok(DataType::Bytes),
            "date" | "datetime" | "timestamp" => Ok(DataType::Date),
            other => Err(self.err(format!("unknown type {other}"))),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                self.expect_symbol(Symbol::LParen)?;
                primary_key = self.ident_list()?;
                self.expect_symbol(Symbol::RParen)?;
            } else {
                let col = self.ident()?;
                let ty = self.data_type()?;
                let mut not_null = false;
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    not_null = true;
                } else {
                    let _ = self.eat_kw("null");
                }
                columns.push((col, ty, not_null));
            }
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        let mut partition = None;
        let mut table_group = None;
        loop {
            if self.eat_kw("partition") {
                self.expect_kw("by")?;
                self.expect_kw("hash")?;
                self.expect_symbol(Symbol::LParen)?;
                let cols = self.ident_list()?;
                self.expect_symbol(Symbol::RParen)?;
                self.expect_kw("partitions")?;
                let n = self.integer()?;
                if n <= 0 {
                    return Err(self.err("PARTITIONS must be positive"));
                }
                partition = Some((cols, n as u32));
            } else if self.eat_kw("tablegroup") {
                table_group = Some(self.ident()?);
            } else {
                break;
            }
        }
        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            primary_key,
            partition,
            table_group,
        }))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_symbol(Symbol::LParen) {
            let cols = self.ident_list()?;
            self.expect_symbol(Symbol::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut values = Vec::new();
        loop {
            self.expect_symbol(Symbol::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                row.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            values.push(row);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert { table, columns, values }))
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol(Symbol::Eq)?;
            assignments.push((col, self.operand()?));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let predicate = if self.eat_kw("where") { Some(self.operand()?) } else { None };
        Ok(Statement::Update(Update { table, assignments, predicate }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("from")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("where") { Some(self.operand()?) } else { None };
        Ok(Statement::Delete(Delete { table, predicate }))
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        // Optional alias: bare identifier that is not a clause keyword.
        let alias = match self.peek() {
            Token::Ident(s) if !is_clause_kw(s) => Some(self.ident()?),
            _ => {
                if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                }
            }
        };
        Ok(TableRef { name, alias })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        loop {
            if self.eat_symbol(Symbol::Star) {
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    // Bare alias (not a clause keyword).
                    match self.peek() {
                        Token::Ident(s) if !is_clause_kw(s) => Some(self.ident()?),
                        _ => None,
                    }
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.eat_symbol(Symbol::Comma) {
                from.push(self.table_ref()?);
            } else if self.eat_kw("join") || {
                if self.eat_kw("inner") {
                    self.expect_kw("join")?;
                    true
                } else {
                    false
                }
            } {
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(Join { table, on });
            } else {
                break;
            }
        }
        let predicate = if self.eat_kw("where") { Some(self.operand()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat_symbol(Symbol::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    let _ = self.eat_kw("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            let n = self.integer()?;
            if n < 0 {
                return Err(self.err("negative LIMIT"));
            }
            Some(n as usize)
        } else {
            None
        };
        Ok(Select { items, from, joins, predicate, group_by, having, order_by, limit })
    }

    // ------------------------------------------------------------ expressions
    // Precedence: OR < AND < NOT < comparison/IS/BETWEEN/IN/LIKE < +- < */% < unary < primary.

    /// Parse an expression (public for tests).
    pub fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = self.eat_kw("not");
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            let between =
                Expr::Between { expr: Box::new(left), low: Box::new(low), high: Box::new(high) };
            return Ok(if negated { Expr::Not(Box::new(between)) } else { between });
        }
        if self.eat_kw("in") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("like") {
            let pattern = match self.bump() {
                Token::Str(s) => s.to_string(),
                other => return Err(self.err(format!("LIKE needs a string, got {other:?}"))),
            };
            let like = Expr::Like { expr: Box::new(left), pattern };
            return Ok(if negated { Expr::Not(Box::new(like)) } else { like });
        }
        if negated {
            return Err(self.err("dangling NOT"));
        }
        let op = match self.peek() {
            Token::Symbol(Symbol::Eq) => Some(BinOp::Eq),
            Token::Symbol(Symbol::Neq) => Some(BinOp::Neq),
            Token::Symbol(Symbol::Lt) => Some(BinOp::Lt),
            Token::Symbol(Symbol::Le) => Some(BinOp::Le),
            Token::Symbol(Symbol::Gt) => Some(BinOp::Gt),
            Token::Symbol(Symbol::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Symbol::Plus) => BinOp::Add,
                Token::Symbol(Symbol::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Symbol::Star) => BinOp::Mul,
                Token::Symbol(Symbol::Slash) => BinOp::Div,
                Token::Symbol(Symbol::Percent) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            Ok(Expr::Neg(Box::new(self.unary()?)))
        } else if self.eat_symbol(Symbol::Plus) {
            self.unary()
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(v) => Ok(self.literal(|| Value::Int(*v))),
            Token::Float(v) => Ok(self.literal(|| Value::Double(*v))),
            Token::Str(s) => Ok(self.literal(|| Value::Str(s.to_string()))),
            Token::Symbol(Symbol::LParen) => {
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            Token::Ident(id) => {
                if id.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if id.eq_ignore_ascii_case("true") {
                    return Ok(Expr::int(1));
                }
                if id.eq_ignore_ascii_case("false") {
                    return Ok(Expr::int(0));
                }
                if id.eq_ignore_ascii_case("case") {
                    return self.case_expr();
                }
                let lid = id.to_ascii_lowercase();
                // Function call?
                if *self.peek() == Token::Symbol(Symbol::LParen) {
                    self.bump();
                    let func = AggFunc::from_name(&lid)
                        .ok_or_else(|| self.err(format!("unknown function {lid}")))?;
                    // COUNT(*), possibly DISTINCT.
                    if self.eat_symbol(Symbol::Star) {
                        self.expect_symbol(Symbol::RParen)?;
                        return Ok(Expr::Agg { func, arg: None, distinct: false });
                    }
                    let distinct = self.eat_kw("distinct");
                    let arg = self.expr()?;
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::Agg { func, arg: Some(Box::new(arg)), distinct });
                }
                // Qualified column?
                if self.eat_symbol(Symbol::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column(format!("{lid}.{col}")));
                }
                Ok(Expr::Column(lid))
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let mut when = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let result = self.expr()?;
            when.push((cond, result));
        }
        if when.is_empty() {
            return Err(self.err("CASE needs at least one WHEN"));
        }
        let otherwise =
            if self.eat_kw("else") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("end")?;
        Ok(Expr::Case { when, otherwise })
    }
}

fn is_clause_kw(s: &str) -> bool {
    [
        "from", "where", "group", "having", "order", "limit", "join", "inner", "on", "as", "and",
        "or", "not", "asc", "desc", "set", "values", "between", "in", "like", "is", "when",
        "then", "else", "end", "partition", "tablegroup",
    ]
    .iter()
    .any(|kw| s.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_partitioning() {
        let s = parse(
            "CREATE TABLE orders (o_id BIGINT NOT NULL, o_cust INT, o_total DECIMAL(12,2), \
             PRIMARY KEY (o_id)) PARTITION BY HASH(o_id) PARTITIONS 16 TABLEGROUP g1",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else { panic!() };
        assert_eq!(ct.name, "orders");
        assert_eq!(ct.columns.len(), 3);
        assert!(ct.columns[0].2, "NOT NULL parsed");
        assert_eq!(ct.primary_key, vec!["o_id"]);
        assert_eq!(ct.partition, Some((vec!["o_id".into()], 16)));
        assert_eq!(ct.table_group, Some("g1".into()));
    }

    #[test]
    fn create_index_placements() {
        let s = parse("CREATE GLOBAL INDEX idx_c ON orders (o_cust)").unwrap();
        let Statement::CreateIndex(ci) = s else { panic!() };
        assert_eq!(ci.placement, IndexPlacement::Global);
        let s = parse("CREATE LOCAL INDEX i ON t (a, b)").unwrap();
        let Statement::CreateIndex(ci) = s else { panic!() };
        assert_eq!(ci.placement, IndexPlacement::Local);
        assert_eq!(ci.columns.len(), 2);
        let s = parse("CREATE CLUSTERED UNIQUE INDEX i ON t (a)").unwrap();
        let Statement::CreateIndex(ci) = s else { panic!() };
        assert_eq!(ci.placement, IndexPlacement::GlobalClustered);
        assert!(ci.unique);
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert(ins) = s else { panic!() };
        assert_eq!(ins.columns, Some(vec!["a".into(), "b".into()]));
        assert_eq!(ins.values.len(), 2);
        assert_eq!(ins.values[1][0], Expr::int(2));
    }

    #[test]
    fn select_full_clause_set() {
        let s = parse(
            "SELECT a, SUM(b * 2) AS total FROM t WHERE a > 5 AND b IN (1,2,3) \
             GROUP BY a HAVING SUM(b * 2) > 10 ORDER BY total DESC, a LIMIT 7",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.items.len(), 2);
        assert!(sel.predicate.is_some());
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].1, "DESC parsed");
        assert!(!sel.order_by[1].1);
        assert_eq!(sel.limit, Some(7));
    }

    #[test]
    fn joins_and_aliases() {
        let s = parse(
            "SELECT l.a, o.b FROM lineitem l JOIN orders o ON l.okey = o.okey, customer \
             WHERE customer.id = o.cust",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.from[0].effective_name(), "l");
        assert_eq!(sel.joins.len(), 1);
        assert_eq!(sel.joins[0].table.effective_name(), "o");
    }

    #[test]
    fn update_delete() {
        let s = parse("UPDATE t SET a = a + 1, b = 'z' WHERE id = 5").unwrap();
        let Statement::Update(u) = s else { panic!() };
        assert_eq!(u.assignments.len(), 2);
        assert!(u.predicate.is_some());
        let s = parse("DELETE FROM t WHERE id BETWEEN 1 AND 10").unwrap();
        let Statement::Delete(d) = s else { panic!() };
        assert!(d.predicate.is_some());
    }

    #[test]
    fn expression_precedence() {
        let s = parse("SELECT a + b * c FROM t").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!() };
        // a + (b * c)
        let Expr::Binary { op: BinOp::Add, right, .. } = expr else { panic!("{expr:?}") };
        assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn case_and_aggregates() {
        let s = parse(
            "SELECT 100.0 * SUM(CASE WHEN p LIKE 'PROMO%' THEN e ELSE 0 END) / SUM(e) \
             FROM lineitem",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!() };
        let mut agg_count = 0;
        expr.visit(&mut |e| {
            if matches!(e, Expr::Agg { .. }) {
                agg_count += 1;
            }
        });
        assert_eq!(agg_count, 2);
    }

    #[test]
    fn count_star_and_distinct() {
        let s = parse("SELECT COUNT(*), COUNT(DISTINCT a) FROM t").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!() };
        assert!(matches!(expr, Expr::Agg { arg: None, .. }));
        let SelectItem::Expr { expr, .. } = &sel.items[1] else { panic!() };
        assert!(matches!(expr, Expr::Agg { distinct: true, .. }));
    }

    #[test]
    fn not_between_and_not_in() {
        let s = parse("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2 AND b NOT IN (3)").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.predicate.is_some());
    }

    #[test]
    fn only_where_and_set_operands_become_parameters() {
        let sql = "SELECT a, 7 FROM t JOIN u ON t.x = u.x AND u.y = 1 \
                   WHERE a IN (2, 3) AND b LIKE 'p%' AND c = 'x' AND d BETWEEN 4 AND -5 \
                   GROUP BY a HAVING COUNT(*) > 6 ORDER BY a LIMIT 8";
        let lexed = lex(sql).unwrap();
        let (Statement::Select(sel), params) = parse_with_params(&lexed).unwrap() else {
            panic!()
        };
        // Literals: 7, 1, 2, 3, 'p%', 'x', 4, 5, 6, 8.
        assert_eq!(params, vec![2, 3, 5, 6, 7]);
        assert_eq!(sel.limit, Some(8));
        assert!(sel.joins[0].on.to_string().contains('1'));
        let Statement::Select(plain) = parse(sql).unwrap() else { panic!() };
        assert!(!format!("{:?}", plain.predicate).contains("Param"));

        let lexed = lex("UPDATE t SET v = v + 1, w = 'z' WHERE id = 9").unwrap();
        let (Statement::Update(u), params) = parse_with_params(&lexed).unwrap() else {
            panic!()
        };
        assert_eq!(params, vec![0, 1, 2]);
        assert_eq!(u.predicate, Some(Expr::binary(BinOp::Eq, Expr::col("id"), Expr::Param(2))));
    }

    #[test]
    fn parse_errors_are_positioned() {
        let err = parse("SELECT FROM").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        assert!(parse("CREATE TABLE t (a INT) PARTITION BY HASH(a) PARTITIONS 0").is_err());
        assert!(parse("SELECT 1 FROM t WHERE").is_err());
        assert!(parse("SELECT 1 FROM t LIMIT 2 3").is_err());
        assert!(parse("INSERT INTO").is_err());
    }
}
