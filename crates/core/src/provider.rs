//! The executor's view of the cluster: partitioned scans over DN shards.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use polardbx_columnar::{ColumnIndex, ColumnSnapshot};
use polardbx_common::time::mono_now;
use polardbx_common::{Error, NodeId, Result, Row, TableId};
use polardbx_executor::{PartitionLanes, TableProvider};
use polardbx_sql::expr::Expr;
use polardbx_storage::StorageEngine;

use crate::access::{key_access, KeyAccess};
use crate::gms::{shard_table_id, Gms};

/// A snapshot-consistent provider over a set of DN engines (the RW engines
/// for in-place execution, or RO-replica engines when AP traffic is
/// rerouted, §VI-A). One provider serves one query.
pub struct ClusterProvider {
    gms: Arc<Gms>,
    engines: HashMap<polardbx_common::NodeId, Arc<StorageEngine>>,
    snapshot_ts: u64,
    column_indexes: HashMap<String, Arc<ColumnIndex>>,
}

impl ClusterProvider {
    /// Build a provider reading `engines` at `snapshot_ts`.
    pub fn new(
        gms: Arc<Gms>,
        engines: HashMap<polardbx_common::NodeId, Arc<StorageEngine>>,
        snapshot_ts: u64,
    ) -> ClusterProvider {
        ClusterProvider { gms, engines, snapshot_ts, column_indexes: HashMap::new() }
    }

    /// Attach column indexes (table name → index) for the columnar path.
    pub fn with_column_indexes(
        mut self,
        indexes: HashMap<String, Arc<ColumnIndex>>,
    ) -> ClusterProvider {
        self.column_indexes = indexes;
        self
    }

    fn engine(&self, dn: NodeId) -> Result<&StorageEngine> {
        self.engines
            .get(&dn)
            .map(Arc::as_ref)
            .ok_or_else(|| Error::execution(format!("no engine for {dn}")))
    }

    /// `read` shard `shard` of `table` on the engine of its home. A cutover
    /// can detach the store between the route and the read; the same store,
    /// versions and all, is then — or once the shard's epoch thaws — at its
    /// new home, so the read follows it there.
    fn at_home<T>(
        &self,
        table: TableId,
        shard: u32,
        read: impl Fn(&StorageEngine, TableId) -> Result<T>,
    ) -> Result<T> {
        let stid = shard_table_id(table, shard);
        let mut deadline = None;
        loop {
            let dn = self.gms.shard_dn(table, shard)?;
            let result = read(self.engine(dn)?, stid);
            if !matches!(result, Err(Error::UnknownTable { .. })) {
                return result;
            }
            let deadline = *deadline.get_or_insert_with(|| mono_now() + Duration::from_secs(2));
            let moving =
                self.gms.epochs().is_frozen(stid) || self.gms.shard_dn(table, shard)? != dn;
            if !moving || mono_now() >= deadline {
                return result;
            }
            std::thread::yield_now();
        }
    }
}

impl TableProvider for ClusterProvider {
    fn partitions(&self, table: &str) -> usize {
        self.gms
            .table(table)
            .map(|s| s.partition.shard_count() as usize)
            .unwrap_or(0)
    }

    fn scan_partition(&self, table: &str, partition: usize) -> Result<Vec<Row>> {
        let (id, visible) = self.gms.with_table(table, |s| (s.id, s.visible_arity()))?;
        let rows = self.at_home(id, partition as u32, |engine, stid| {
            engine.scan_table(stid, self.snapshot_ts)
        })?;
        // Hide the implicit primary key from SQL-visible output.
        Ok(rows
            .into_iter()
            .map(|(_, row)| {
                if row.arity() > visible {
                    Row::new(row.into_values().into_iter().take(visible).collect())
                } else {
                    row
                }
            })
            .collect())
    }

    /// The partitions' visible rows straight into column builders: the
    /// storage scan hands each row over borrowed, and only the SQL-visible
    /// values the plan reads are copied, each into its column. A scan that
    /// waits out a PREPARED writer restarts its partition's pass and drops
    /// the rows that pass pushed; the partitions before it keep theirs.
    fn scan_lanes(
        &self,
        table: &str,
        partitions: Range<usize>,
        read: &[bool],
    ) -> Result<PartitionLanes> {
        let (id, visible) = self.gms.with_table(table, |s| (s.id, s.visible_arity()))?;
        let read: Vec<bool> = (0..visible).map(|c| read.get(c).copied().unwrap_or(true)).collect();
        let lanes = RefCell::new(PartitionLanes::new(&read));
        for p in partitions {
            lanes.borrow_mut().next_partition();
            self.at_home(id, p as u32, |engine, stid| {
                engine.scan_table_with(
                    stid,
                    self.snapshot_ts,
                    || lanes.borrow_mut().restart_partition(),
                    |(), key, row| lanes.borrow_mut().push(key.as_bytes(), row.values()),
                )
            })?;
        }
        Ok(lanes.into_inner())
    }

    /// The optimizer's row count of the table (§II-A's statistics).
    fn rows_estimate(&self, table: &str) -> Option<usize> {
        Some(self.gms.statistics().get(table).rows as usize)
    }

    /// Point reads of the keys the predicate names (see [`key_access`]), at
    /// the same snapshot and with the same wait on PREPARED versions as a
    /// scan; every shard when it names none. Keyed tables have no implicit
    /// primary key, so there is no hidden column to trim.
    fn scan_where(&self, table: &str, predicate: &Expr) -> Result<Vec<Row>> {
        let schema = self.gms.table(table)?;
        let KeyAccess::Keys(keys) = key_access(&schema, predicate) else {
            return self.scan_all(table);
        };
        let mut rows = Vec::with_capacity(keys.len());
        for key in keys {
            let pk = schema.pk_of(&key)?;
            let read = |engine: &StorageEngine, stid| engine.read(stid, &pk, self.snapshot_ts, None);
            if let Some(row) = self.at_home(schema.id, schema.shard_of(&key)?, read)? {
                rows.push(row);
            }
        }
        Ok(rows)
    }

    /// The table as of this provider's snapshot, from its column index —
    /// whoever attached the index has waited for it to catch up with the
    /// snapshot. `None` without an index, or for a snapshot below its floor.
    fn columnar(&self, table: &str) -> Option<ColumnSnapshot> {
        self.column_indexes.get(table)?.snapshot_at(self.snapshot_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{ColumnDef, DataType, NodeId, TableSchema, TenantId, TrxId, Value};
    use polardbx_storage::WriteOp;

    fn setup() -> (Arc<Gms>, HashMap<NodeId, Arc<StorageEngine>>, TableSchema) {
        let gms = Gms::new();
        gms.register_dn(NodeId(1));
        gms.register_dn(NodeId(2));
        let id = gms.next_table_id();
        let schema = TableSchema::hash_on_pk(
            id,
            "t",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("v", DataType::Int),
            ],
            vec!["id".into()],
            4,
        )
        .unwrap();
        gms.create_table(schema.clone(), TenantId::default()).unwrap();
        let mut engines = HashMap::new();
        for n in [NodeId(1), NodeId(2)] {
            engines.insert(n, StorageEngine::in_memory());
        }
        // Register every shard table on its placed engine and insert one row
        // per shard, committed at ts 10.
        for shard in 0..4 {
            let dn = gms.shard_dn(schema.id, shard).unwrap();
            let stid = shard_table_id(schema.id, shard);
            let engine = &engines[&dn];
            engine.create_table(stid, TenantId(1));
            let trx = TrxId(100 + shard as u64);
            engine.begin(trx, 0);
            engine
                .write(
                    trx,
                    stid,
                    polardbx_common::Key::encode(&[Value::Int(shard as i64)]),
                    WriteOp::Insert(polardbx_common::Row::new(vec![
                        Value::Int(shard as i64),
                        Value::Int(7),
                    ])),
                )
                .unwrap();
            engine.commit(trx, 10).unwrap();
        }
        (gms, engines, schema)
    }

    #[test]
    fn partitions_follow_catalog() {
        let (gms, engines, _schema) = setup();
        let p = ClusterProvider::new(Arc::clone(&gms), engines, 100);
        assert_eq!(polardbx_executor::TableProvider::partitions(&p, "t"), 4);
        assert_eq!(polardbx_executor::TableProvider::partitions(&p, "nope"), 0);
    }

    #[test]
    fn scan_respects_snapshot() {
        let (gms, engines, _schema) = setup();
        let fresh = ClusterProvider::new(Arc::clone(&gms), engines.clone(), 100);
        let stale = ClusterProvider::new(Arc::clone(&gms), engines, 5);
        use polardbx_executor::TableProvider;
        let all: usize =
            (0..4).map(|s| fresh.scan_partition("t", s).unwrap().len()).sum();
        assert_eq!(all, 4);
        let none: usize =
            (0..4).map(|s| stale.scan_partition("t", s).unwrap().len()).sum();
        assert_eq!(none, 0, "snapshot before commits sees nothing");
    }

    #[test]
    fn columnar_snapshot_is_taken_at_the_providers_timestamp() {
        use polardbx_columnar::ColumnIndex;
        use polardbx_executor::TableProvider;
        let (gms, engines, _schema) = setup();
        let index = ColumnIndex::new(vec![DataType::Int, DataType::Int]);
        for (n, ts) in [(1, 50), (2, 70)] {
            let row = polardbx_common::Row::new(vec![Value::Int(n), Value::Int(n)]);
            let key = polardbx_common::Key::encode(&[Value::Int(n)]);
            index.apply_put(TrxId(1), ts, key, &row).unwrap();
        }
        index.raise_floor(40);
        let indexes: HashMap<_, _> = [("t".to_string(), index)].into();
        let at = |ts| {
            ClusterProvider::new(Arc::clone(&gms), engines.clone(), ts)
                .with_column_indexes(indexes.clone())
        };
        let snap = at(60).columnar("t").unwrap();
        assert_eq!((snap.ts, snap.len()), (60, 1));
        assert_eq!(at(1_000_000).columnar("t").unwrap().len(), 2);
        assert!(at(39).columnar("t").is_none(), "below the index's floor");
        assert!(at(60).columnar("other").is_none());
    }
}
