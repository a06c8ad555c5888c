//! Per-tenant parallel redo recovery (§V "Design of PolarDB-MT").
//!
//! "There is no global ordering sequence or dependency between these logs
//! … redo logs belonging to different tenants can be concurrently replayed
//! to recover database states in parallel. In fact, if one RW node fails,
//! one or more other RW nodes can take over its redo log. They divide log
//! entries according to the tenant, replay them, complete the recovery
//! process and restore services."

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use polardbx_common::{Result, TableId, TenantId};
use polardbx_storage::engine::RedoApplier;
use polardbx_storage::StorageEngine;
use polardbx_wal::RedoPayload;

/// Split a redo byte stream into per-tenant record runs. Records between a
/// `TenantMark` and the next belong to that tenant; transaction records
/// (prepare/commit/abort) are attributed by the tables their transaction
/// touched.
pub fn split_by_tenant(
    bytes: Bytes,
    table_tenants: &HashMap<TableId, TenantId>,
) -> Result<HashMap<TenantId, Vec<RedoPayload>>> {
    let records = RedoPayload::decode_all(bytes)?;
    let mut out: HashMap<TenantId, Vec<RedoPayload>> = HashMap::new();
    // trx → tenants whose tables it wrote (commit records fan out to all).
    let mut trx_tenants: HashMap<polardbx_common::TrxId, Vec<TenantId>> = HashMap::new();
    for rec in records {
        match &rec {
            RedoPayload::Insert { trx, table, .. }
            | RedoPayload::Update { trx, table, .. }
            | RedoPayload::Delete { trx, table, .. } => {
                if let Some(&tenant) = table_tenants.get(table) {
                    trx_tenants.entry(*trx).or_default().push(tenant);
                    out.entry(tenant).or_default().push(rec);
                }
            }
            RedoPayload::TxnPrepare { trx, .. }
            | RedoPayload::TxnCommit { trx, .. }
            | RedoPayload::TxnAbort { trx } => {
                if let Some(tenants) = trx_tenants.get(trx) {
                    let mut seen = std::collections::HashSet::new();
                    for &tenant in tenants {
                        if seen.insert(tenant) {
                            out.entry(tenant).or_default().push(rec.clone());
                        }
                    }
                }
            }
            RedoPayload::TenantMark { tenant } => {
                out.entry(*tenant).or_default();
            }
            RedoPayload::Checkpoint { .. } => {}
        }
    }
    Ok(out)
}

/// Recover a failed RW node's tenants onto `takeover` engines: the log is
/// split by tenant and each run replays **in parallel** on its own thread.
/// Returns per-tenant replayed record counts.
pub fn parallel_recover(
    log: Bytes,
    table_tenants: &HashMap<TableId, TenantId>,
    takeover: &HashMap<TenantId, Arc<StorageEngine>>,
) -> Result<HashMap<TenantId, usize>> {
    let runs = split_by_tenant(log, table_tenants)?;
    let counts = std::sync::Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        for (tenant, records) in &runs {
            let Some(engine) = takeover.get(tenant) else { continue };
            let counts = &counts;
            let engine = Arc::clone(engine);
            s.spawn(move || {
                // Ensure the tables exist on the takeover engine.
                for rec in records {
                    if let Some(table) = rec.table() {
                        if engine.tenant_of(table).is_none() {
                            engine.create_table(table, *tenant);
                        }
                    }
                }
                let applier = RedoApplier::new(engine);
                for rec in records {
                    applier.apply(rec);
                }
                counts.lock().unwrap().insert(*tenant, records.len());
            });
        }
    });
    Ok(counts.into_inner().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::BindingTable;
    use crate::node::MtRwNode;
    use polardbx_common::{Key, NodeId, Row, Value};
    use polardbx_storage::WriteOp;
    use std::time::Duration;

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64) -> Row {
        Row::new(vec![Value::Int(n), Value::str("r")])
    }

    /// Build a failed node's log with two tenants' traffic interleaved.
    fn failed_node_log() -> (Bytes, HashMap<TableId, TenantId>) {
        let bindings = Arc::new(BindingTable::new(Duration::from_secs(30)));
        let node = MtRwNode::new(NodeId(1), Arc::clone(&bindings));
        bindings.bind(TenantId(1), NodeId(1));
        bindings.bind(TenantId(2), NodeId(1));
        bindings.acquire_lease(NodeId(1));
        node.create_table(TableId(1), TenantId(1)).unwrap();
        node.create_table(TableId(2), TenantId(2)).unwrap();
        for i in 0..10i64 {
            node.write_row(TenantId(1), TableId(1), key(i), WriteOp::Insert(row(i))).unwrap();
            node.write_row(TenantId(2), TableId(2), key(i), WriteOp::Insert(row(i))).unwrap();
        }
        // One aborted write on tenant 1 that must NOT resurrect.
        node.rw.engine.begin(polardbx_common::TrxId(777), 1_000_000);
        node.rw.engine
            .write(polardbx_common::TrxId(777), TableId(1), key(99), WriteOp::Insert(row(99)))
            .unwrap();
        node.rw.engine.abort(polardbx_common::TrxId(777));
        let mut map = HashMap::new();
        map.insert(TableId(1), TenantId(1));
        map.insert(TableId(2), TenantId(2));
        (Bytes::from(node.rw.log_sink_bytes()), map)
    }

    #[test]
    fn split_attributes_records_to_tenants() {
        let (log, map) = failed_node_log();
        let runs = split_by_tenant(log, &map).unwrap();
        assert_eq!(runs.len(), 2);
        let t1 = &runs[&TenantId(1)];
        // 10 inserts + 10 commits + 1 aborted insert + 1 abort.
        assert!(t1.len() >= 20);
        assert!(t1.iter().all(|r| r.table().is_none_or(|t| t == TableId(1))));
    }

    #[test]
    fn parallel_takeover_restores_both_tenants() {
        let (log, map) = failed_node_log();
        // Two survivor engines split the failed node's tenants.
        let e1 = StorageEngine::in_memory();
        let e2 = StorageEngine::in_memory();
        let mut takeover = HashMap::new();
        takeover.insert(TenantId(1), Arc::clone(&e1));
        takeover.insert(TenantId(2), Arc::clone(&e2));
        let counts = parallel_recover(log, &map, &takeover).unwrap();
        assert_eq!(counts.len(), 2);
        assert_eq!(e1.count_rows(TableId(1), u64::MAX).unwrap(), 10);
        assert_eq!(e2.count_rows(TableId(2), u64::MAX).unwrap(), 10);
        // The aborted write did not resurrect.
        assert_eq!(e1.read(TableId(1), &key(99), u64::MAX, None).unwrap(), None);
    }

    #[test]
    fn recover_subset_of_tenants() {
        let (log, map) = failed_node_log();
        let e1 = StorageEngine::in_memory();
        let mut takeover = HashMap::new();
        takeover.insert(TenantId(1), Arc::clone(&e1));
        let counts = parallel_recover(log, &map, &takeover).unwrap();
        assert_eq!(counts.len(), 1);
        assert_eq!(e1.count_rows(TableId(1), u64::MAX).unwrap(), 10);
    }
}
