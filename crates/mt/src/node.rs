//! An MT-enabled RW node: private redo log, ownership-checked transactions.
//!
//! Fig 5: each RW node has its own redo log (no write contention between
//! RWs) and writes only tables of tenants bound to it. Every transaction
//! first validates the binding + lease; a failed check returns an error
//! so the router retries against fresh binding info.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polardbx_common::{Error, Key, NodeId, Result, Row, TableId, TenantId, TrxId};
use polardbx_storage::{RwNode, WriteOp};
use polardbx_wal::RedoPayload;

use crate::binding::BindingTable;

/// A multi-tenant RW node.
pub struct MtRwNode {
    /// Node id.
    pub id: NodeId,
    /// The PolarDB instance: the engine and this node's private redo log.
    pub rw: Arc<RwNode>,
    bindings: Arc<BindingTable>,
    ts: AtomicU64,
    trx: AtomicU64,
}

impl MtRwNode {
    /// A fresh node against the shared binding table.
    pub fn new(id: NodeId, bindings: Arc<BindingTable>) -> Arc<MtRwNode> {
        Arc::new(MtRwNode {
            id,
            rw: RwNode::new(id),
            bindings,
            ts: AtomicU64::new(1),
            trx: AtomicU64::new(id.raw() * 1_000_000 + 1),
        })
    }

    /// Next local timestamp (MT nodes serve single-tenant transactions, so
    /// a per-node counter suffices; cross-tenant ordering is not needed —
    /// "there is no cross-tenant transaction").
    fn next_ts(&self) -> u64 {
        self.ts.fetch_add(1, Ordering::Relaxed)
    }

    /// Validate that this node may touch `tenant` right now. A stale lease
    /// is re-acquired once against fresh binding info before failing —
    /// §V: "it will suspend the submission of all outstanding transactions
    /// and try to re-acquire the lease".
    pub fn check_ownership(&self, tenant: TenantId) -> Result<()> {
        if self.bindings.owner(tenant) != Some(self.id) {
            return Err(Error::NotOwner { tenant: tenant.raw(), node: self.id.raw() });
        }
        if self.bindings.check_lease(self.id).is_err() {
            self.bindings.acquire_lease(self.id);
            // Re-validate against the refreshed binding info: the tenant may
            // have migrated away while our lease was stale.
            if self.bindings.owner(tenant) != Some(self.id) {
                return Err(Error::NotOwner { tenant: tenant.raw(), node: self.id.raw() });
            }
        }
        Ok(())
    }

    /// Create a tenant table on this node, marking the log with the tenant
    /// (per-tenant log division for parallel recovery, §V).
    pub fn create_table(&self, table: TableId, tenant: TenantId) -> Result<()> {
        self.check_ownership(tenant)?;
        self.rw.create_table(table, tenant);
        self.rw.engine.log_marker(RedoPayload::TenantMark { tenant }).map(|_| ())
    }

    /// Run a single-row write transaction for `tenant`.
    pub fn write_row(
        &self,
        tenant: TenantId,
        table: TableId,
        key: Key,
        op: WriteOp,
    ) -> Result<()> {
        self.check_ownership(tenant)?;
        if self.rw.engine.tenant_of(table) != Some(tenant) {
            return Err(Error::NotOwner { tenant: tenant.raw(), node: self.id.raw() });
        }
        let trx = TrxId(self.trx.fetch_add(1, Ordering::Relaxed));
        let snapshot = self.next_ts();
        self.rw.engine.begin(trx, snapshot);
        if let Err(e) = self.rw.engine.write(trx, table, key, op) {
            self.rw.engine.abort(trx);
            return Err(e);
        }
        // Re-check the lease before commit: a tenant that migrated away
        // mid-transaction must abort (§V).
        if let Err(e) = self.check_ownership(tenant) {
            self.rw.engine.abort(trx);
            return Err(e);
        }
        let commit_ts = self.next_ts();
        self.rw.engine.commit(trx, commit_ts)?;
        Ok(())
    }

    /// Snapshot point read for `tenant`.
    pub fn read_row(&self, tenant: TenantId, table: TableId, key: &Key) -> Result<Option<Row>> {
        self.check_ownership(tenant)?;
        self.rw.engine.read(table, key, u64::MAX, None)
    }

    /// Tenant-scoped row count.
    pub fn count_rows(&self, table: TableId) -> Result<usize> {
        self.rw.engine.count_rows(table, u64::MAX)
    }

    /// Current timestamp floor for attach-time continuity.
    pub fn timestamp_floor(&self) -> u64 {
        self.ts.load(Ordering::Relaxed)
    }

    /// Raise the local timestamp above `floor` (used when a tenant arrives
    /// from a node whose timestamps ran ahead).
    pub fn raise_timestamp(&self, floor: u64) {
        self.ts.fetch_max(floor + 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Value;
    use std::time::Duration;

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64) -> Row {
        Row::new(vec![Value::Int(n), Value::str("v")])
    }

    fn setup() -> (Arc<BindingTable>, Arc<MtRwNode>, Arc<MtRwNode>) {
        let bindings = Arc::new(BindingTable::new(Duration::from_secs(10)));
        let rw1 = MtRwNode::new(NodeId(1), Arc::clone(&bindings));
        let rw2 = MtRwNode::new(NodeId(2), Arc::clone(&bindings));
        bindings.bind(TenantId(1), NodeId(1));
        bindings.bind(TenantId(2), NodeId(2));
        bindings.acquire_lease(NodeId(1));
        bindings.acquire_lease(NodeId(2));
        (bindings, rw1, rw2)
    }

    #[test]
    fn owner_writes_succeed_non_owner_rejected() {
        let (_b, rw1, rw2) = setup();
        rw1.create_table(TableId(1), TenantId(1)).unwrap();
        rw1.write_row(TenantId(1), TableId(1), key(1), WriteOp::Insert(row(1))).unwrap();
        assert_eq!(rw1.read_row(TenantId(1), TableId(1), &key(1)).unwrap(), Some(row(1)));
        // rw2 does not own tenant 1.
        let err = rw2
            .write_row(TenantId(1), TableId(1), key(2), WriteOp::Insert(row(2)))
            .unwrap_err();
        assert!(matches!(err, Error::NotOwner { .. }));
    }

    #[test]
    fn lost_lease_renews_against_fresh_bindings() {
        let (b, rw1, _rw2) = setup();
        rw1.create_table(TableId(1), TenantId(1)).unwrap();
        // A revoked lease renews transparently while the binding still
        // points here (§V: the node re-acquires and refreshes).
        b.revoke_lease(NodeId(1));
        rw1.write_row(TenantId(1), TableId(1), key(1), WriteOp::Insert(row(1))).unwrap();
        // But if the tenant moved away meanwhile, renewal exposes that and
        // the write fails.
        b.revoke_lease(NodeId(1));
        b.bind(TenantId(1), NodeId(2));
        let err = rw1
            .write_row(TenantId(1), TableId(1), key(2), WriteOp::Insert(row(2)))
            .unwrap_err();
        assert!(matches!(err, Error::NotOwner { .. }));
    }

    #[test]
    fn rebind_mid_flight_aborts_at_commit() {
        let (b, rw1, _rw2) = setup();
        rw1.create_table(TableId(1), TenantId(1)).unwrap();
        // Manually drive the transaction to control the rebind timing.
        rw1.rw.engine.begin(TrxId(42), 1);
        rw1.rw.engine
            .write(TrxId(42), TableId(1), key(9), WriteOp::Insert(row(9)))
            .unwrap();
        // The tenant migrates away (version bump invalidates rw1's lease).
        b.bind(TenantId(1), NodeId(2));
        assert!(rw1.check_ownership(TenantId(1)).is_err());
        rw1.rw.engine.abort(TrxId(42));
        assert_eq!(rw1.rw.engine.read(TableId(1), &key(9), u64::MAX, None).unwrap(), None);
    }

    #[test]
    fn private_logs_are_disjoint() {
        let (_b, rw1, rw2) = setup();
        rw1.create_table(TableId(1), TenantId(1)).unwrap();
        rw2.create_table(TableId(2), TenantId(2)).unwrap();
        rw1.write_row(TenantId(1), TableId(1), key(1), WriteOp::Insert(row(1))).unwrap();
        // Each node's log contains only its own tenant's marker/changes.
        let log1 = rw1.rw.log_sink_bytes();
        let log2 = rw2.rw.log_sink_bytes();
        assert!(!log1.is_empty() && !log2.is_empty());
        let recs1 = RedoPayload::decode_all(bytes::Bytes::from(log1)).unwrap();
        assert!(recs1
            .iter()
            .any(|r| matches!(r, RedoPayload::TenantMark { tenant } if *tenant == TenantId(1))));
        assert!(!recs1
            .iter()
            .any(|r| matches!(r, RedoPayload::TenantMark { tenant } if *tenant == TenantId(2))));
    }

    #[test]
    fn wrong_tenant_table_pairing_rejected() {
        let (_b, rw1, rw2) = setup();
        rw1.create_table(TableId(1), TenantId(1)).unwrap();
        rw2.create_table(TableId(2), TenantId(2)).unwrap();
        // rw2 owns tenant 2 but table 1 belongs to tenant 1 (and lives on rw1).
        let err = rw2
            .write_row(TenantId(2), TableId(1), key(1), WriteOp::Insert(row(1)))
            .unwrap_err();
        assert!(matches!(err, Error::NotOwner { .. }));
    }

    #[test]
    fn timestamp_floor_raises() {
        let (_b, rw1, _) = setup();
        rw1.raise_timestamp(5000);
        assert!(rw1.timestamp_floor() > 5000);
    }
}
