//! Session DML: INSERT / UPDATE / DELETE and global-index maintenance.

use std::sync::Arc;
use std::time::Duration;

use polardbx_common::{Error, Key, Result, Row, TableSchema, Value};
use polardbx_sql::ast;
use polardbx_sql::expr::Expr;
use polardbx_txn::WireWriteOp;

use super::Session;
use crate::cluster::PolarDbx;
use crate::gms::shard_table_id;

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

    pub(super) fn write_gsi_row(
        &self,
        hidden: &TableSchema,
        base: &TableSchema,
        _index_cols: &[String],
        base_row: &Row,
        delete: bool,
    ) -> Result<()> {
        let idx_row = self.gsi_row(hidden, base, base_row)?;
        let key = hidden.pk_of(&idx_row)?;
        self.retry_dml(|| {
            let (shard, dn, epoch) = self.inner.gms.route_row_fenced(hidden, &idx_row)?;
            let stid = shard_table_id(hidden.id, shard);
            let mut txn = self.cn.coordinator.begin();
            txn.pin_epoch(stid, epoch)?;
            if delete {
                txn.write(dn, stid, key.clone(), WireWriteOp::Delete)?;
            } else {
                txn.write(dn, stid, key.clone(), WireWriteOp::Update(idx_row.clone()))?;
            }
            txn.commit()?;
            Ok(())
        })
    }

    // ------------------------------------------------------------------- DML

    /// Run one DML statement, retrying it wholesale while it bounces off
    /// a re-home cutover (`Throttled`: a frozen shard at route or write
    /// time, a pinned routing epoch that moved by commit time, or a store
    /// detached between routing and execution — the DN remaps that
    /// retryably too). Each retry re-routes from scratch and lands on the
    /// new home. Bounded: a cutover pauses a shard for milliseconds, so a
    /// statement still bouncing at the deadline surfaces the error.
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
            txn.write(dn, stid, key, WireWriteOp::Insert(row.clone()))?;
            // Maintain global indexes in the same distributed transaction
            // (§II-B: "updated in a single distributed transaction").
            for hidden in &gsis {
                let idx_row = self.gsi_row(hidden, &schema, &row)?;
                let (ishard, idn, iepoch) =
                    self.inner.gms.route_row_fenced(hidden, &idx_row)?;
                let ikey = hidden.pk_of(&idx_row)?;
                let istid = shard_table_id(hidden.id, ishard);
                txn.pin_epoch(istid, iepoch)?;
                txn.write(idn, istid, ikey, WireWriteOp::Insert(idx_row))?;
            }
            count += 1;
        }
        txn.commit()?;
        self.inner.gms.record_rows(&ins.table, count as i64);
        self.capture_column_index(&ins.table)?;
        Ok(count)
    }

    fn gsi_schemas(&self, table: &str) -> Result<Vec<TableSchema>> {
        let names = self.inner.gsi_tables.read().get(table).cloned().unwrap_or_default();
        names.iter().map(|n| self.inner.gms.table(n)).collect()
    }

    /// Find rows matching a predicate, returning (shard, key, full row).
    fn find_matches(
        &self,
        schema: &TableSchema,
        predicate: &Option<Expr>,
    ) -> Result<Vec<(u32, Key, Row)>> {
        // Fast path: pk-equality predicates route to one shard.
        let resolved = match predicate {
            Some(p) => {
                let names: Vec<String> =
                    schema.columns.iter().map(|c| c.name.clone()).collect();
                Some(p.resolve(&names)?)
            }
            None => None,
        };
        let ts = self.cn.coordinator.clock().now().raw();
        let mut out = Vec::new();
        let mut txn = self.cn.coordinator.begin();
        for shard in 0..schema.partition.shard_count() {
            let dn = self.inner.gms.shard_dn(schema.id, shard)?;
            let rows =
                txn.scan(dn, shard_table_id(schema.id, shard), None, None)?;
            let _ = ts;
            for (key, row) in rows {
                let keep = match &resolved {
                    Some(p) => p.eval_bool(&row)?,
                    None => true,
                };
                if keep {
                    out.push((shard, key, row));
                }
            }
        }
        txn.abort();
        Ok(out)
    }

    pub(super) fn update(&self, u: &ast::Update) -> Result<u64> {
        let schema = self.inner.gms.table(&u.table)?;
        let gsis = self.gsi_schemas(&u.table)?;
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let assignments: Vec<(usize, Expr)> = u
            .assignments
            .iter()
            .map(|(c, e)| Ok((schema.column_index(c)?, e.resolve(&names)?)))
            .collect::<Result<_>>()?;
        let matches = self.find_matches(&schema, &u.predicate)?;
        let mut txn = self.cn.coordinator.begin();
        let count = matches.len() as u64;
        for (shard, key, old_row) in matches {
            let mut new_row = old_row.clone();
            for (idx, expr) in &assignments {
                new_row.set(*idx, expr.eval(&old_row)?)?;
            }
            schema.validate_row(&new_row)?;
            // Fenced re-route of the matched shard: the write pins the
            // routing epoch so a racing re-home aborts the commit retryably
            // instead of losing the update on the detached old home.
            let (dn, epoch) = self.inner.gms.shard_dn_fenced(schema.id, shard)?;
            let stid = shard_table_id(schema.id, shard);
            txn.pin_epoch(stid, epoch)?;
            txn.write(dn, stid, key, WireWriteOp::Update(new_row.clone()))?;
            for hidden in &gsis {
                // Replace the index entry when it changed.
                let old_idx = self.gsi_row(hidden, &schema, &old_row)?;
                let new_idx = self.gsi_row(hidden, &schema, &new_row)?;
                if old_idx != new_idx {
                    let (os, od, oepoch) =
                        self.inner.gms.route_row_fenced(hidden, &old_idx)?;
                    let ostid = shard_table_id(hidden.id, os);
                    txn.pin_epoch(ostid, oepoch)?;
                    txn.write(od, ostid, hidden.pk_of(&old_idx)?, WireWriteOp::Delete)?;
                    let (ns, nd, nepoch) =
                        self.inner.gms.route_row_fenced(hidden, &new_idx)?;
                    let nstid = shard_table_id(hidden.id, ns);
                    txn.pin_epoch(nstid, nepoch)?;
                    txn.write(
                        nd,
                        nstid,
                        hidden.pk_of(&new_idx)?,
                        WireWriteOp::Update(new_idx),
                    )?;
                }
            }
        }
        txn.commit()?;
        self.capture_column_index(&u.table)?;
        Ok(count)
    }

    pub(super) fn delete(&self, d: &ast::Delete) -> Result<u64> {
        let schema = self.inner.gms.table(&d.table)?;
        let gsis = self.gsi_schemas(&d.table)?;
        let matches = self.find_matches(&schema, &d.predicate)?;
        let mut txn = self.cn.coordinator.begin();
        let count = matches.len() as u64;
        for (shard, key, old_row) in matches {
            let (dn, epoch) = self.inner.gms.shard_dn_fenced(schema.id, shard)?;
            let stid = shard_table_id(schema.id, shard);
            txn.pin_epoch(stid, epoch)?;
            txn.write(dn, stid, key, WireWriteOp::Delete)?;
            for hidden in &gsis {
                let old_idx = self.gsi_row(hidden, &schema, &old_row)?;
                let (os, od, oepoch) =
                    self.inner.gms.route_row_fenced(hidden, &old_idx)?;
                let ostid = shard_table_id(hidden.id, os);
                txn.pin_epoch(ostid, oepoch)?;
                txn.write(od, ostid, hidden.pk_of(&old_idx)?, WireWriteOp::Delete)?;
            }
        }
        txn.commit()?;
        self.inner.gms.record_rows(&d.table, -(count as i64));
        self.capture_column_index(&d.table)?;
        Ok(count)
    }

    /// Refresh the column index after DML (simple strategy: incremental
    /// rebuild only of the touched table when an index exists; the
    /// maintainer path in `polardbx-columnar` covers log-capture, this
    /// keeps the cluster-level index fresh without tailing every log).
    fn capture_column_index(&self, table: &str) -> Result<()> {
        let index = self.inner.column_indexes.read().get(table).cloned();
        let Some(_) = index else { return Ok(()) };
        // Rebuild-on-write is wasteful; drop and lazily rebuild instead.
        self.inner.column_indexes.write().remove(table);
        let this = PolarDbx { inner: Arc::clone(&self.inner) };
        this.enable_column_index(table)
    }
}
