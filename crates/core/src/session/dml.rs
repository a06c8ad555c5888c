//! Session DML: INSERT / UPDATE / DELETE and global-index maintenance.

use std::sync::Arc;
use std::time::Duration;

use polardbx_common::{Error, Key, NodeId, Result, Row, TableId, TableSchema, Value};
use polardbx_sql::ast::{self, Statement};
use polardbx_sql::expr::Expr;
use polardbx_sql::Lexed;
use polardbx_txn::{DistTxn, Edit, ReadOp, RowEdit, WireWriteOp};

use super::Session;
use crate::access::{key_access, key_columns, KeyAccess};
use crate::gms::shard_table_id;
use crate::plan_cache::Entry;

/// Where a row an UPDATE / DELETE visits lives.
struct Home {
    /// Shard table and DN.
    stid: TableId,
    dn: NodeId,
    /// The shard's routing epoch when it was routed.
    epoch: u64,
    /// Storage key within the shard table.
    key: Key,
}

/// What an UPDATE or DELETE does to one row it is shown, resolved against
/// the table: evaluated on the CN over rows read back (read-then-write), or
/// shipped to the row's DN and evaluated there (pushed).
#[derive(Debug)]
struct StatementEdit {
    schema: Arc<TableSchema>,
    /// The WHERE clause.
    predicate: Option<Expr>,
    /// `SET` column ← expression; `None` for a DELETE.
    assignments: Option<Vec<(usize, Expr)>>,
}

/// An UPDATE / DELETE as the plan cache keeps it: its edit, resolved
/// against the table and checked, with parameters for its operand
/// literals, and the table's global-index tables. Valid for the catalog
/// generation it was built at, so a CREATE INDEX rebuilds it.
pub(crate) struct EditTemplate {
    edit: StatementEdit,
    gsis: Vec<TableSchema>,
}

impl EditTemplate {
    /// The edit of one statement: the template with `literals` bound.
    fn bind(&self, literals: &[Value]) -> StatementEdit {
        StatementEdit {
            schema: Arc::clone(&self.edit.schema),
            predicate: self.edit.predicate.as_ref().map(|e| e.bind(literals)),
            assignments: self
                .edit
                .assignments
                .as_ref()
                .map(|a| a.iter().map(|(idx, e)| (*idx, e.bind(literals))).collect()),
        }
    }
}

impl RowEdit for StatementEdit {
    fn apply(&self, old: &Row) -> Result<Edit> {
        if !self.predicate.as_ref().map_or(Ok(true), |p| p.eval_bool(old))? {
            return Ok(Edit::Keep);
        }
        let Some(assignments) = &self.assignments else { return Ok(Edit::Delete) };
        let mut new = old.clone();
        for (idx, expr) in assignments {
            new.set(*idx, expr.eval(old)?)?;
        }
        self.schema.validate_row(&new)?;
        Ok(Edit::Put(new))
    }
}

/// How an UPDATE / DELETE reaches its rows. Decided from the statement's
/// shape alone; `EXPLAIN` prints it.
enum WritePath {
    /// One round: the edit travels to each of these keys in the commit
    /// round and the DN reads, edits and writes the row in one visit. Taken
    /// when the predicate names its keys and no global-index entry can
    /// change — the CN has then no use for the old row.
    Pushed(Vec<Row>),
    /// Two rounds: read the access set, edit on the CN, stage full rows.
    ReadThenWrite {
        access: KeyAccess,
        /// Why the read cannot be folded into the write.
        why: String,
    },
}

impl StatementEdit {
    fn write_path(&self, gsis: &[TableSchema]) -> WritePath {
        let schema = &self.schema;
        let access = self.predicate.as_ref().map_or(KeyAccess::All, |p| key_access(schema, p));
        // An index entry changes when its row is deleted, or when an
        // assigned column is one the index table stores.
        let changed = gsis.iter().find(|hidden| {
            self.assignments.as_ref().is_none_or(|assigned| {
                assigned
                    .iter()
                    .any(|(idx, _)| hidden.column_index(&schema.columns[*idx].name).is_ok())
            })
        });
        match (access, changed) {
            (KeyAccess::Keys(keys), None) => WritePath::Pushed(keys),
            (KeyAccess::All, _) => {
                WritePath::ReadThenWrite { access: KeyAccess::All, why: "all shards".into() }
            }
            (access, Some(hidden)) => {
                let prefix = format!("__gsi_{}_", schema.name);
                let index = hidden.name.strip_prefix(&prefix).unwrap_or(&hidden.name);
                WritePath::ReadThenWrite { access, why: format!("gsi {index} changes") }
            }
        }
    }
}

impl Session {
    fn gsi_row(
        &self,
        hidden: &TableSchema,
        base: &TableSchema,
        base_row: &Row,
    ) -> Result<Row> {
        let mut vals = Vec::with_capacity(hidden.arity());
        for c in &hidden.columns {
            let i = base.column_index(&c.name)?;
            vals.push(base_row.get(i)?.clone());
        }
        Ok(Row::new(vals))
    }

    /// Stage one write of `idx_row`, a row of index table `hidden`, into
    /// `txn`, routed fenced like the base row's write.
    fn stage_gsi_write(
        &self,
        txn: &mut DistTxn<'_>,
        hidden: &TableSchema,
        idx_row: Row,
        op: impl FnOnce(Row) -> WireWriteOp,
    ) -> Result<()> {
        let (shard, dn, epoch) = self.inner.gms.route_row_fenced(hidden, &idx_row)?;
        let stid = shard_table_id(hidden.id, shard);
        txn.pin_epoch(stid, epoch)?;
        txn.stage_write(dn, stid, hidden.pk_of(&idx_row)?, op(idx_row));
        Ok(())
    }

    pub(super) fn write_gsi_row(
        &self,
        hidden: &TableSchema,
        base: &TableSchema,
        base_row: &Row,
        delete: bool,
    ) -> Result<()> {
        let idx_row = self.gsi_row(hidden, base, base_row)?;
        self.retry_dml(|| {
            let mut txn = self.cn.coordinator.begin();
            let op = if delete { |_| WireWriteOp::Delete } else { WireWriteOp::Update };
            self.stage_gsi_write(&mut txn, hidden, idx_row.clone(), op)?;
            txn.commit()?;
            Ok(())
        })
    }

    // ------------------------------------------------------------------- DML

    /// Run one DML statement, retrying it wholesale while it bounces off
    /// a re-home cutover (`Throttled`: a frozen shard at route time or when
    /// the commit round delivers the write, a pinned routing epoch that
    /// moved by commit time, or a store detached between routing and
    /// execution — the DN remaps that retryably too). Each retry re-routes
    /// from scratch and lands on the new home. Bounded: a cutover pauses a
    /// shard for milliseconds, so a statement still bouncing at the
    /// deadline surfaces the error.
    pub(super) fn retry_dml<T>(&self, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let deadline = polardbx_common::time::mono_now() + Duration::from_secs(10);
        loop {
            match f() {
                Err(Error::Throttled { .. })
                    if polardbx_common::time::mono_now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    pub(super) fn insert(&self, ins: &ast::Insert) -> Result<u64> {
        let schema = self.inner.gms.table(&ins.table)?;
        let visible: Vec<String> = schema
            .columns
            .iter()
            .take(schema.visible_arity())
            .map(|c| c.name.clone())
            .collect();
        let positions: Vec<usize> = match &ins.columns {
            None => (0..visible.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| schema.column_index(c))
                .collect::<Result<_>>()?,
        };
        let gsis = self.gsi_schemas(&ins.table)?;
        let mut txn = self.cn.coordinator.begin();
        let mut count = 0u64;
        for value_exprs in &ins.values {
            if value_exprs.len() != positions.len() {
                return Err(Error::Schema {
                    message: format!(
                        "INSERT arity {} vs column list {}",
                        value_exprs.len(),
                        positions.len()
                    ),
                });
            }
            let mut vals = vec![Value::Null; schema.arity()];
            for (expr, &pos) in value_exprs.iter().zip(&positions) {
                vals[pos] = expr.eval(&Row::empty())?;
            }
            if schema.implicit_pk {
                let seq = self.inner.gms.next_sequence(schema.id)?;
                vals[schema.arity() - 1] = Value::Int(seq);
            }
            let row = Row::new(vals);
            schema.validate_row(&row)?;
            let key = schema.pk_of(&row)?;
            // Fenced routing: pin each written shard's routing epoch on the
            // transaction so a re-home cutover racing this statement aborts
            // the commit retryably instead of stranding the write on the
            // detached old home (a silently lost update).
            let (shard, dn, epoch) = self.inner.gms.route_row_fenced(&schema, &row)?;
            let stid = shard_table_id(schema.id, shard);
            txn.pin_epoch(stid, epoch)?;
            txn.stage_write(dn, stid, key, WireWriteOp::Insert(row.clone()));
            // Maintain global indexes in the same distributed transaction
            // (§II-B: "updated in a single distributed transaction").
            for hidden in &gsis {
                let idx_row = self.gsi_row(hidden, &schema, &row)?;
                self.stage_gsi_write(&mut txn, hidden, idx_row, WireWriteOp::Insert)?;
            }
            count += 1;
        }
        txn.commit()?;
        self.inner.gms.record_rows(&ins.table, count as i64);
        Ok(count)
    }

    fn gsi_schemas(&self, table: &str) -> Result<Vec<TableSchema>> {
        let names = self.inner.gsi_tables.read().get(table).cloned().unwrap_or_default();
        names.iter().map(|n| self.inner.gms.table(n)).collect()
    }

    /// The plan-cache entry of an UPDATE / DELETE: its resolved edit,
    /// cached when `literals` fit it at the current catalog generation,
    /// else built now.
    pub(super) fn edit_template(
        &self,
        lexed: &Lexed<'_>,
        literals: &[Value],
    ) -> Result<Arc<Entry<EditTemplate>>> {
        let generation = self.inner.gms.generation();
        self.inner.plans.edits.get_or_build(lexed, literals, generation, |stmt| match stmt {
            Statement::Update(u) => self.resolve_edit(&u.table, &u.predicate, Some(&u.assignments)),
            Statement::Delete(d) => self.resolve_edit(&d.table, &d.predicate, None),
            _ => Err(Error::invalid("not an UPDATE or DELETE")),
        })
    }

    /// Resolve an UPDATE's (`assignments` given) or DELETE's clauses against
    /// `table`, with the table's global-index tables: the plan cache's
    /// template of the statement.
    fn resolve_edit(
        &self,
        table: &str,
        predicate: &Option<Expr>,
        assignments: Option<&[(String, Expr)]>,
    ) -> Result<EditTemplate> {
        let schema = self.inner.gms.table(table)?;
        let gsis = self.gsi_schemas(table)?;
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let predicate = predicate.as_ref().map(|p| p.resolve(&names)).transpose()?;
        let assignments = assignments
            .map(|assignments| {
                assignments
                    .iter()
                    .map(|(c, e)| Ok((schema.column_index(c)?, e.resolve(&names)?)))
                    .collect::<Result<Vec<(usize, Expr)>>>()
            })
            .transpose()?;
        // A row is stored under its primary key on the shard its partition
        // columns hash to; rewriting either in place would leave it where
        // no lookup by the new value goes.
        let key_cols = key_columns(&schema);
        if let Some((idx, _)) =
            assignments.iter().flatten().find(|(idx, _)| key_cols.contains(idx))
        {
            return Err(Error::invalid(format!(
                "UPDATE of key column {}.{} is not supported",
                schema.name, schema.columns[*idx].name
            )));
        }
        let schema = Arc::new(schema);
        Ok(EditTemplate { edit: StatementEdit { schema, predicate, assignments }, gsis })
    }

    /// `EXPLAIN` of an UPDATE / DELETE: the access path as for a SELECT, and
    /// the [`WritePath`].
    pub(super) fn explain_dml(&self, template: &EditTemplate, literals: &[Value]) -> String {
        let table = &template.edit.schema.name;
        let (access, write) = match template.bind(literals).write_path(&template.gsis) {
            WritePath::Pushed(keys) => (KeyAccess::Keys(keys), "pushed (1 round)".to_string()),
            WritePath::ReadThenWrite { access, why } => {
                (access, format!("read-then-write (2 rounds): {why}"))
            }
        };
        format!("access {table}: {access}\nwrite {table}: {write}\n")
    }

    /// Where the rows under `keys` live, each shard routed fenced: the
    /// epoch read here is pinned before the shard is written, so a re-home
    /// between this routing and the commit aborts the statement retryably
    /// instead of stranding the write. One home per row: two key rows name
    /// the same one when they differ only in a partition column outside the
    /// primary key and both values hash to one shard.
    fn key_homes(&self, schema: &TableSchema, keys: &[Row]) -> Result<Vec<Home>> {
        let mut homes: Vec<Home> = Vec::with_capacity(keys.len());
        for key_row in keys {
            let shard = schema.shard_of(key_row)?;
            let (stid, key) = (shard_table_id(schema.id, shard), schema.pk_of(key_row)?);
            if homes.iter().any(|h| h.stid == stid && h.key == key) {
                continue;
            }
            let (dn, epoch) = self.inner.gms.shard_dn_fenced(schema.id, shard)?;
            homes.push(Home { stid, dn, epoch, key });
        }
        Ok(homes)
    }

    /// Read, inside `txn`, every row of `schema` in `access`: the whole
    /// access set in one round. The statement's reads and writes share
    /// `txn`, hence one snapshot: the write of a row another transaction
    /// committed after that snapshot fails first-committer-wins instead of
    /// overwriting it.
    fn read_rows(
        &self,
        txn: &mut DistTxn<'_>,
        schema: &TableSchema,
        access: KeyAccess,
    ) -> Result<Vec<(Home, Row)>> {
        let mut shards = Vec::new();
        let mut reads = Vec::new();
        let mut visit = |stid: TableId, dn: NodeId, epoch: u64, op: ReadOp| {
            shards.push((stid, dn, epoch));
            reads.push((dn, stid, op));
        };
        // One visit per key the predicate names, or one per shard.
        match access {
            KeyAccess::Keys(keys) => {
                for Home { stid, dn, epoch, key } in self.key_homes(schema, &keys)? {
                    visit(stid, dn, epoch, ReadOp::Point(key));
                }
            }
            KeyAccess::All => {
                for shard in 0..schema.partition.shard_count() {
                    let (dn, epoch) = self.inner.gms.shard_dn_fenced(schema.id, shard)?;
                    let scan = ReadOp::Scan { lower: None, upper: None };
                    visit(shard_table_id(schema.id, shard), dn, epoch, scan);
                }
            }
        }
        let mut out = Vec::new();
        for ((stid, dn, epoch), rows) in shards.into_iter().zip(txn.read_many(reads)?) {
            for (key, row) in rows {
                out.push((Home { stid, dn, epoch, key }, row));
            }
        }
        Ok(out)
    }

    /// Run an UPDATE / DELETE through the plan cache: bind its literals
    /// into the cached edit and run it, retried wholesale on a re-home
    /// bounce.
    pub(super) fn edit(&self, lexed: &Lexed<'_>) -> Result<u64> {
        let _permit = self.inner.traffic.admit(lexed)?;
        let literals = lexed.literals();
        let entry = self.edit_template(lexed, &literals)?;
        let template = &entry.template;
        let edit = Arc::new(template.bind(&literals));
        let count = self.retry_dml(|| self.edit_rows(&edit, &template.gsis))?;
        if edit.assignments.is_none() {
            self.inner.gms.record_rows(&edit.schema.name, -(count as i64));
        }
        Ok(count)
    }

    /// Run an UPDATE / DELETE down its [`WritePath`] in one transaction;
    /// returns the rows it changed.
    fn edit_rows(&self, edit: &Arc<StatementEdit>, gsis: &[TableSchema]) -> Result<u64> {
        let schema = &edit.schema;
        let mut txn = self.cn.coordinator.begin();
        let access = match edit.write_path(gsis) {
            WritePath::Pushed(keys) => {
                // Nothing reaches a DN before the commit round: each key's
                // DN gets the edit beside its vote request and reports how
                // many rows it wrote.
                for Home { stid, dn, epoch, key } in self.key_homes(schema, &keys)? {
                    txn.pin_epoch(stid, epoch)?;
                    let edit = Arc::clone(edit) as Arc<dyn RowEdit>;
                    txn.stage_write(dn, stid, key, WireWriteOp::Edit(edit));
                }
                return Ok(txn.commit_counting()?.1);
            }
            WritePath::ReadThenWrite { access, .. } => access,
        };
        let mut count = 0u64;
        for (Home { stid, dn, epoch, key }, old_row) in self.read_rows(&mut txn, schema, access)? {
            let new_row = match edit.apply(&old_row)? {
                Edit::Keep => continue,
                Edit::Put(new_row) => Some(new_row),
                Edit::Delete => None,
            };
            count += 1;
            txn.pin_epoch(stid, epoch)?;
            let op = new_row.clone().map_or(WireWriteOp::Delete, WireWriteOp::Update);
            txn.stage_write(dn, stid, key, op);
            for hidden in gsis {
                // Replace the index entry when it changed, drop it with its row.
                let old_idx = self.gsi_row(hidden, schema, &old_row)?;
                let new_idx =
                    new_row.as_ref().map(|row| self.gsi_row(hidden, schema, row)).transpose()?;
                if new_idx.as_ref() == Some(&old_idx) {
                    continue;
                }
                self.stage_gsi_write(&mut txn, hidden, old_idx, |_| WireWriteOp::Delete)?;
                if let Some(new_idx) = new_idx {
                    self.stage_gsi_write(&mut txn, hidden, new_idx, WireWriteOp::Update)?;
                }
            }
        }
        txn.commit()?;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use polardbx_common::{DcId, Error, Value};

    use crate::cluster::{ClusterConfig, PolarDbx};
    use crate::session::Session;

    /// `t(id, k, v)` and `g(id, k, v)`, the latter with a global index on `k`.
    fn with_tables(db: &PolarDbx) -> Session {
        let s = db.connect(DcId(1));
        for table in ["t", "g"] {
            s.execute(&format!(
                "CREATE TABLE {table} (id BIGINT NOT NULL, k INT, v INT, PRIMARY KEY (id))"
            ))
            .unwrap();
        }
        s.execute("CREATE GLOBAL INDEX by_k ON g (k)").unwrap();
        s
    }

    #[test]
    fn explain_says_pushed_when_the_keys_are_named_and_no_index_entry_changes() {
        let db = PolarDbx::build(ClusterConfig::default()).unwrap();
        let s = with_tables(&db);
        for (sql, table, keys) in [
            ("UPDATE t SET v = v + 1 WHERE id = 7", "t", 1),
            ("UPDATE t SET v = v + 1 WHERE id >= 7 AND id < 7 + 3 AND k > 0", "t", 3),
            ("DELETE FROM t WHERE id IN (1, 2)", "t", 2),
            // The index stores `k` and the key, not `v`.
            ("UPDATE g SET v = v + 1 WHERE id = 7", "g", 1),
        ] {
            let want = format!("access {table}: keys({keys})\nwrite {table}: pushed (1 round)\n");
            assert_eq!(s.explain(sql).unwrap(), want, "{sql}");
        }
        db.shutdown();
    }

    #[test]
    fn explain_says_all_shards_when_the_predicate_names_no_key() {
        let db = PolarDbx::build(ClusterConfig::default()).unwrap();
        let s = with_tables(&db);
        for sql in [
            "UPDATE t SET v = v + 1 WHERE k = 7",
            "UPDATE t SET v = 0",
            "DELETE FROM t WHERE id = 1 OR id = 2",
            // Both reasons apply: the scan is the one that costs.
            "DELETE FROM g WHERE k = 7",
        ] {
            let table = if sql.contains(" g ") { "g" } else { "t" };
            let want = format!(
                "access {table}: all shards\nwrite {table}: read-then-write (2 rounds): all shards\n"
            );
            assert_eq!(s.explain(sql).unwrap(), want, "{sql}");
        }
        db.shutdown();
    }

    #[test]
    fn explain_names_the_global_index_a_keyed_statement_changes() {
        let db = PolarDbx::build(ClusterConfig::default()).unwrap();
        let s = with_tables(&db);
        for sql in ["UPDATE g SET k = k + 1 WHERE id = 7", "DELETE FROM g WHERE id = 7"] {
            let want =
                "access g: keys(1)\nwrite g: read-then-write (2 rounds): gsi by_k changes\n";
            assert_eq!(s.explain(sql).unwrap(), want, "{sql}");
        }
        // What EXPLAIN refuses, so does the statement.
        assert!(matches!(s.explain("UPDATE g SET id = 1 WHERE id = 7"), Err(Error::Invalid { .. })));
        assert!(matches!(s.explain("INSERT INTO t (id) VALUES (1)"), Err(Error::Invalid { .. })));
        db.shutdown();
    }

    #[test]
    fn update_of_a_key_column_is_rejected() {
        let db = PolarDbx::build(ClusterConfig::default()).unwrap();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, r BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(r) PARTITIONS 4",
        )
        .unwrap();
        s.execute("INSERT INTO t (id, r, v) VALUES (1, 10, 0)").unwrap();
        for sql in [
            "UPDATE t SET id = 2 WHERE id = 1",
            "UPDATE t SET r = 11 WHERE id = 1",
            "UPDATE t SET v = 1, id = id + 1",
        ] {
            let err = s.execute(sql).unwrap_err();
            assert!(matches!(err, Error::Invalid { .. }) && !err.is_retryable(), "{sql}: {err:?}");
        }
        assert_eq!(s.execute("UPDATE t SET v = v + 5 WHERE id = 1 AND r = 10").unwrap(), 1);
        let rows = s.query("SELECT id, r, v FROM t").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values(), &[Value::Int(1), Value::Int(10), Value::Int(5)]);
        db.shutdown();
    }
}
