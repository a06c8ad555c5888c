//! Session DML: INSERT / UPDATE / DELETE and global-index maintenance.

use std::time::Duration;

use polardbx_common::{Error, Key, NodeId, Result, Row, TableId, TableSchema, Value};
use polardbx_sql::ast;
use polardbx_sql::expr::Expr;
use polardbx_txn::{DistTxn, ReadOp, WireWriteOp};

use super::Session;
use crate::access::{key_access, key_columns, KeyAccess};
use crate::gms::shard_table_id;

/// A row an UPDATE / DELETE predicate kept, and where it was read.
struct Match {
    /// Shard table and DN the row was read from.
    stid: TableId,
    dn: NodeId,
    /// The shard's routing epoch at that read.
    epoch: u64,
    key: Key,
    row: Row,
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

    pub(super) fn write_gsi_row(
        &self,
        hidden: &TableSchema,
        base: &TableSchema,
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
            let op = if delete { WireWriteOp::Delete } else { WireWriteOp::Update(idx_row.clone()) };
            txn.stage_write(dn, stid, key.clone(), op);
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
                let (ishard, idn, iepoch) =
                    self.inner.gms.route_row_fenced(hidden, &idx_row)?;
                let ikey = hidden.pk_of(&idx_row)?;
                let istid = shard_table_id(hidden.id, ishard);
                txn.pin_epoch(istid, iepoch)?;
                txn.stage_write(idn, istid, ikey, WireWriteOp::Insert(idx_row));
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

    /// Read, inside `txn`, the rows of `schema` that `predicate` keeps: the
    /// whole access set in one round. The statement's reads and writes
    /// share `txn`, hence one snapshot: the write of a row another
    /// transaction committed after that snapshot fails
    /// first-committer-wins instead of overwriting it.
    fn read_matches(
        &self,
        txn: &mut DistTxn<'_>,
        schema: &TableSchema,
        names: &[String],
        predicate: &Option<Expr>,
    ) -> Result<Vec<Match>> {
        let predicate = predicate.as_ref().map(|p| p.resolve(names)).transpose()?;
        let access = predicate.as_ref().map_or(KeyAccess::All, |p| key_access(schema, p));
        let mut homes = Vec::new();
        let mut reads = Vec::new();
        let mut visit = |shard: u32, op: ReadOp| -> Result<()> {
            // Fenced: the epoch read here is pinned before the shard is
            // written, so a re-home between this read and the commit aborts
            // the statement retryably instead of stranding the write.
            let (dn, epoch) = self.inner.gms.shard_dn_fenced(schema.id, shard)?;
            let stid = shard_table_id(schema.id, shard);
            homes.push((stid, dn, epoch));
            reads.push((dn, stid, op));
            Ok(())
        };
        // One visit per key the predicate names, or one per shard.
        match access {
            KeyAccess::Keys(keys) => {
                for key in &keys {
                    visit(schema.shard_of(key)?, ReadOp::Point(schema.pk_of(key)?))?;
                }
            }
            KeyAccess::All => {
                for shard in 0..schema.partition.shard_count() {
                    visit(shard, ReadOp::Scan { lower: None, upper: None })?;
                }
            }
        }
        let mut out = Vec::new();
        for ((stid, dn, epoch), rows) in homes.into_iter().zip(txn.read_many(reads)?) {
            for (key, row) in rows {
                if predicate.as_ref().map_or(Ok(true), |p| p.eval_bool(&row))? {
                    out.push(Match { stid, dn, epoch, key, row });
                }
            }
        }
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
        // A row is stored under its primary key on the shard its partition
        // columns hash to; rewriting either in place would leave it where
        // no lookup by the new value goes.
        let key_cols = key_columns(&schema);
        if let Some((idx, _)) = assignments.iter().find(|(idx, _)| key_cols.contains(idx)) {
            return Err(Error::invalid(format!(
                "UPDATE of key column {}.{} is not supported",
                schema.name, schema.columns[*idx].name
            )));
        }
        let mut txn = self.cn.coordinator.begin();
        let matches = self.read_matches(&mut txn, &schema, &names, &u.predicate)?;
        let count = matches.len() as u64;
        for Match { stid, dn, epoch, key, row: old_row } in matches {
            let mut new_row = old_row.clone();
            for (idx, expr) in &assignments {
                new_row.set(*idx, expr.eval(&old_row)?)?;
            }
            schema.validate_row(&new_row)?;
            txn.pin_epoch(stid, epoch)?;
            txn.stage_write(dn, stid, key, WireWriteOp::Update(new_row.clone()));
            for hidden in &gsis {
                // Replace the index entry when it changed.
                let old_idx = self.gsi_row(hidden, &schema, &old_row)?;
                let new_idx = self.gsi_row(hidden, &schema, &new_row)?;
                if old_idx != new_idx {
                    let (os, od, oepoch) =
                        self.inner.gms.route_row_fenced(hidden, &old_idx)?;
                    let ostid = shard_table_id(hidden.id, os);
                    txn.pin_epoch(ostid, oepoch)?;
                    txn.stage_write(od, ostid, hidden.pk_of(&old_idx)?, WireWriteOp::Delete);
                    let (ns, nd, nepoch) =
                        self.inner.gms.route_row_fenced(hidden, &new_idx)?;
                    let nstid = shard_table_id(hidden.id, ns);
                    txn.pin_epoch(nstid, nepoch)?;
                    txn.stage_write(
                        nd,
                        nstid,
                        hidden.pk_of(&new_idx)?,
                        WireWriteOp::Update(new_idx),
                    );
                }
            }
        }
        txn.commit()?;
        Ok(count)
    }

    pub(super) fn delete(&self, d: &ast::Delete) -> Result<u64> {
        let schema = self.inner.gms.table(&d.table)?;
        let gsis = self.gsi_schemas(&d.table)?;
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let mut txn = self.cn.coordinator.begin();
        let matches = self.read_matches(&mut txn, &schema, &names, &d.predicate)?;
        let count = matches.len() as u64;
        for Match { stid, dn, epoch, key, row: old_row } in matches {
            txn.pin_epoch(stid, epoch)?;
            txn.stage_write(dn, stid, key, WireWriteOp::Delete);
            for hidden in &gsis {
                let old_idx = self.gsi_row(hidden, &schema, &old_row)?;
                let (os, od, oepoch) =
                    self.inner.gms.route_row_fenced(hidden, &old_idx)?;
                let ostid = shard_table_id(hidden.id, os);
                txn.pin_epoch(ostid, oepoch)?;
                txn.stage_write(od, ostid, hidden.pk_of(&old_idx)?, WireWriteOp::Delete);
            }
        }
        txn.commit()?;
        self.inner.gms.record_rows(&d.table, -(count as i64));
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use polardbx_common::{DcId, Error, Value};

    use crate::cluster::{ClusterConfig, PolarDbx};

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
