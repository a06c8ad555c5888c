//! Tenant transfer: fast migration over shared storage vs. row copy.
//!
//! §V's protocol in [`migrate_tenant`] (the data nodes' part of 2, 3 and 5
//! is `RwNode::hand_off`, the cutover the cluster's shard re-home runs too):
//!
//! 1. the router pauses new transactions to the tenant,
//! 2. the source RW drains the tenant's in-flight statements,
//! 3. the source flushes all of the tenant's dirty pages to PolarFS, evicts
//!    its cached pages/metadata and closes the tenant's resources,
//! 4. the binding system table is updated,
//! 5. the destination RW opens the tenant's tables (no data movement —
//!    shared storage) and fetches metadata,
//! 6. the router resumes, forwarding paused traffic to the destination.
//!
//! [`migrate_by_copy`] is the shared-nothing baseline of Fig 8(b): every
//! row is scanned out of the source and inserted at the destination, and a
//! bandwidth model prices the volume at production scale.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use polardbx_common::time::Timer;
use polardbx_common::{Error, NodeId, Result, TenantId};
use polardbx_polarfs::TransferModel;
use polardbx_storage::WriteOp;

use crate::binding::BindingTable;
use crate::dictionary::DataDictionary;
use crate::node::MtRwNode;

/// Outcome of a fast tenant migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Tenant moved.
    pub tenant: TenantId,
    /// Dirty pages flushed on the source.
    pub pages_flushed: usize,
    /// How long client traffic was paused.
    pub pause: Duration,
    /// End-to-end migration time.
    pub total: Duration,
}

/// Outcome of the row-copy baseline.
#[derive(Debug, Clone)]
pub struct CopyReport {
    /// Tenant moved.
    pub tenant: TenantId,
    /// Rows copied.
    pub rows: usize,
    /// Bytes copied (approximate row footprint).
    pub bytes: u64,
    /// Real elapsed time at the reproduction's scale.
    pub real_elapsed: Duration,
    /// Modeled time at the given bandwidth (production scale).
    pub modeled: Duration,
}

/// Routes tenant traffic to the currently bound RW node, with per-tenant
/// pause gates used during migration. This plays the role of "proxy or CN"
/// in §V: "they pause new transactions to the tenant and stop forwarding
/// them to the source RW".
pub struct Router {
    bindings: Arc<BindingTable>,
    nodes: RwLock<HashMap<NodeId, Arc<MtRwNode>>>,
    gates: Mutex<HashMap<TenantId, Arc<RwLock<()>>>>,
}

impl Router {
    /// A router over the binding table.
    pub fn new(bindings: Arc<BindingTable>) -> Arc<Router> {
        Arc::new(Router {
            bindings,
            nodes: RwLock::new(HashMap::new()),
            gates: Mutex::new(HashMap::new()),
        })
    }

    /// Register an RW node.
    pub fn add_node(&self, node: Arc<MtRwNode>) {
        self.nodes.write().insert(node.id, node);
    }

    /// All registered nodes.
    pub fn nodes(&self) -> Vec<Arc<MtRwNode>> {
        self.nodes.read().values().cloned().collect()
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> Option<Arc<MtRwNode>> {
        self.nodes.read().get(&id).cloned()
    }

    fn gate(&self, tenant: TenantId) -> Arc<RwLock<()>> {
        Arc::clone(self.gates.lock().entry(tenant).or_default())
    }

    /// Execute `f` against the tenant's current RW node. Blocks while the
    /// tenant is paused for migration; retries once on a binding race.
    pub fn execute<R>(
        &self,
        tenant: TenantId,
        f: impl Fn(&MtRwNode) -> Result<R>,
    ) -> Result<R> {
        for _ in 0..2 {
            let gate = self.gate(tenant);
            let _pass = gate.read(); // blocks while a migration holds write
            let owner = self
                .bindings
                .owner(tenant)
                .ok_or(Error::NotOwner { tenant: tenant.raw(), node: 0 })?;
            let node = self
                .node(owner)
                .ok_or(Error::NotOwner { tenant: tenant.raw(), node: owner.raw() })?;
            match f(&node) {
                Err(e) if e.is_retryable() => continue,
                other => return other,
            }
        }
        Err(Error::Timeout { what: format!("routing tenant {tenant}") })
    }
}

/// The §V fast path. Returns a [`MigrationReport`].
pub fn migrate_tenant(
    router: &Router,
    dict: &DataDictionary,
    bindings: &BindingTable,
    tenant: TenantId,
    dest: NodeId,
) -> Result<MigrationReport> {
    let t0 = Timer::start();
    let src_id = bindings
        .owner(tenant)
        .ok_or(Error::NotOwner { tenant: tenant.raw(), node: 0 })?;
    if src_id == dest {
        return Err(Error::invalid("tenant already on destination"));
    }
    let src = router.node(src_id).ok_or(Error::invalid("unknown source node"))?;
    let dst = router.node(dest).ok_or(Error::invalid("unknown destination node"))?;

    // 1. Pause new transactions (exclusive gate).
    let gate = router.gate(tenant);
    let pause_start = Timer::start();
    let _paused = gate.write();

    // 2–3. The cutover: the source drains the tenant's own write sets,
    //    flushes, hands its tables over by reference. Then evict cache.
    let tables = src.rw.engine.tenant_tables(tenant);
    let pages_flushed = src.rw.hand_off(&dst.rw, &tables, tenant)?;
    src.rw.engine.pool.evict_tenant(tenant);
    dict.evict_tenant_cache(src_id, tenant);

    // 4. Update the binding (bumps version: source's lease goes stale).
    bindings.bind(tenant, dest);
    bindings.acquire_lease(dest);

    // 5. Destination fetches the metadata of the tables it now holds.
    for t in &tables {
        let _ = dict.open_table(dest, *t);
    }
    // Timestamp continuity: the destination must issue timestamps above
    // anything the source used for this tenant's data.
    dst.raise_timestamp(src.timestamp_floor());

    let pause = pause_start.elapsed();
    Ok(MigrationReport { tenant, pages_flushed, pause, total: t0.elapsed() })
}

/// The shared-nothing baseline: copy every row. `model` prices the moved
/// bytes at production bandwidth (Fig 8(b)'s hundreds of seconds).
pub fn migrate_by_copy(
    router: &Router,
    bindings: &BindingTable,
    tenant: TenantId,
    dest: NodeId,
    model: &TransferModel,
) -> Result<CopyReport> {
    let t0 = Timer::start();
    let src_id = bindings
        .owner(tenant)
        .ok_or(Error::NotOwner { tenant: tenant.raw(), node: 0 })?;
    let src = router.node(src_id).ok_or(Error::invalid("unknown source node"))?;
    let dst = router.node(dest).ok_or(Error::invalid("unknown destination node"))?;

    let gate = router.gate(tenant);
    let _paused = gate.write();

    let mut rows = 0usize;
    let mut bytes = 0u64;
    let tables = src.rw.engine.tenant_tables(tenant);
    for t in &tables {
        dst.rw.create_table(*t, tenant);
        // Full scan + per-row insert — the data path a shared-nothing
        // system must take.
        for (key, row) in src.rw.engine.scan_table(*t, u64::MAX)? {
            bytes += key.len() as u64 + row.heap_size() as u64;
            let trx = polardbx_common::TrxId(u64::MAX - rows as u64);
            dst.rw.engine.begin(trx, u64::MAX - 1);
            dst.rw.engine.write(trx, *t, key, WriteOp::Update(row))?;
            dst.rw.engine.commit(trx, u64::MAX - 1)?;
            rows += 1;
        }
        src.rw.detach_table(*t);
    }
    bindings.bind(tenant, dest);
    bindings.acquire_lease(dest);
    dst.raise_timestamp(src.timestamp_floor());

    Ok(CopyReport {
        tenant,
        rows,
        bytes,
        real_elapsed: t0.elapsed(),
        modeled: model.transfer_time(bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{Key, Row, TableId, Value};

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64) -> Row {
        Row::new(vec![Value::Int(n), Value::str("payload-payload-payload")])
    }

    struct World {
        bindings: Arc<BindingTable>,
        dict: Arc<DataDictionary>,
        router: Arc<Router>,
    }

    fn setup(tenants_per_node: u64) -> World {
        let bindings = Arc::new(BindingTable::new(Duration::from_secs(30)));
        let dict = DataDictionary::new(NodeId(1));
        let router = Router::new(Arc::clone(&bindings));
        for n in 1..=2u64 {
            let node = MtRwNode::new(NodeId(n), Arc::clone(&bindings));
            bindings.acquire_lease(NodeId(n));
            router.add_node(node);
        }
        let mut table_id = 1u64;
        for n in 1..=2u64 {
            for t in 0..tenants_per_node {
                let tenant = TenantId(n * 100 + t + 1);
                bindings.bind(tenant, NodeId(n));
                bindings.acquire_lease(NodeId(1));
                bindings.acquire_lease(NodeId(2));
                let node = router.node(NodeId(n)).unwrap();
                node.create_table(TableId(table_id), tenant).unwrap();
                for i in 0..50i64 {
                    node.write_row(
                        tenant,
                        TableId(table_id),
                        key(i),
                        WriteOp::Insert(row(i)),
                    )
                    .unwrap();
                }
                table_id += 1;
            }
        }
        World { bindings, dict, router }
    }

    #[test]
    fn fast_migration_preserves_data_and_rebinds() {
        let w = setup(1);
        let tenant = TenantId(101);
        let report =
            migrate_tenant(&w.router, &w.dict, &w.bindings, tenant, NodeId(2)).unwrap();
        assert_eq!(w.bindings.owner(tenant), Some(NodeId(2)));
        assert!(report.pages_flushed > 0, "tenant had dirty pages");
        // Data is intact at the destination — and served through the router.
        let count = w
            .router
            .execute(tenant, |node| node.count_rows(TableId(1)))
            .unwrap();
        assert_eq!(count, 50);
        // Writes now land on node 2.
        w.router
            .execute(tenant, |node| {
                assert_eq!(node.id, NodeId(2));
                node.write_row(tenant, TableId(1), key(99), WriteOp::Insert(row(99)))
            })
            .unwrap();
    }

    #[test]
    fn source_refuses_after_migration() {
        let w = setup(1);
        let tenant = TenantId(101);
        let src = w.router.node(NodeId(1)).unwrap();
        migrate_tenant(&w.router, &w.dict, &w.bindings, tenant, NodeId(2)).unwrap();
        let err = src
            .write_row(tenant, TableId(1), key(7), WriteOp::Update(row(7)))
            .unwrap_err();
        assert!(matches!(err, Error::NotOwner { .. } | Error::LeaseLost { .. }));
    }

    #[test]
    fn migration_to_self_rejected() {
        let w = setup(1);
        assert!(migrate_tenant(&w.router, &w.dict, &w.bindings, TenantId(101), NodeId(1))
            .is_err());
    }

    #[test]
    fn copy_baseline_moves_rows_and_costs_bandwidth() {
        let w = setup(1);
        let tenant = TenantId(101);
        let model = TransferModel { bandwidth_bytes_per_sec: 1_000_000, setup: Duration::ZERO };
        let report =
            migrate_by_copy(&w.router, &w.bindings, tenant, NodeId(2), &model).unwrap();
        assert_eq!(report.rows, 50);
        assert!(report.bytes > 1000);
        assert!(report.modeled > Duration::ZERO);
        // Data intact at destination.
        let count = w.router.execute(tenant, |n| n.count_rows(TableId(1))).unwrap();
        assert_eq!(count, 50);
    }

    #[test]
    fn fast_migration_beats_copy_shape() {
        // The structural claim behind Fig 8: migration cost is O(dirty
        // pages); copy cost is O(data volume). At production bandwidth the
        // modeled copy dwarfs the measured migration.
        let w = setup(2);
        let fast =
            migrate_tenant(&w.router, &w.dict, &w.bindings, TenantId(101), NodeId(2)).unwrap();
        let model = TransferModel::paper_default();
        let copy =
            migrate_by_copy(&w.router, &w.bindings, TenantId(102), NodeId(2), &model).unwrap();
        // Price the copy at the paper's 40 GB scale per step.
        let production_copy = model.transfer_time(40 * (1 << 30) / 8);
        assert!(
            production_copy > fast.total * 50,
            "copy {production_copy:?} must dwarf fast migration {:?}",
            fast.total
        );
        assert!(copy.rows > 0);
    }

    #[test]
    fn traffic_pauses_then_resumes_during_migration() {
        let w = setup(1);
        let tenant = TenantId(101);
        let router = Arc::clone(&w.router);
        // A writer hammers the tenant while we migrate it.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut ok = 0u64;
            let mut i = 1000i64;
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                if router
                    .execute(tenant, |node| {
                        node.write_row(tenant, TableId(1), key(i), WriteOp::Insert(row(i)))
                    })
                    .is_ok()
                {
                    ok += 1;
                }
            }
            ok
        });
        std::thread::sleep(Duration::from_millis(20));
        let report =
            migrate_tenant(&w.router, &w.dict, &w.bindings, tenant, NodeId(2)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let ok = writer.join().unwrap();
        assert!(ok > 0, "writes must flow before and after migration");
        assert!(report.pause < Duration::from_secs(1), "pause is short");
        // Everything the writer observed as success is present at the dest.
        let count = w.router.execute(tenant, |n| n.count_rows(TableId(1))).unwrap();
        assert!(count >= 50, "no committed rows lost");
    }
}
