//! The `PolarDbx` facade: build a cluster, connect, execute SQL.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx_columnar::{ColumnIndex, ColumnIndexMaintainer};
use polardbx_common::metrics::Counter;
use polardbx_common::{DcId, Error, IdGenerator, NodeId, Result, Row, TenantId, TrxId};
use polardbx_executor::{MemoryManager, WorkloadManager};
use polardbx_hlc::{Hlc, HlcTimestamp};
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use polardbx_placement::CoAccessSketch;
use polardbx_storage::{RedoConsumer, RwNode, StorageEngine};
use polardbx_txn::{Coordinator, DnService, ResolverConfig, ResolverHandle, TxnMetrics, TxnMsg};

use crate::gms::{shard_table_id, Gms};
use crate::provider::ClusterProvider;
use crate::session::Session;
use crate::traffic::TrafficControl;

/// How long a catch-up waits for a decision its snapshot may see.
const CATCH_UP: Duration = Duration::from_millis(200);

/// Cluster shape.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of datacenters.
    pub dcs: u32,
    /// CN servers per datacenter.
    pub cns_per_dc: u32,
    /// Total DN instances (assigned to DCs round-robin).
    pub dns: u32,
    /// RO replicas per DN.
    pub ros_per_dn: u32,
    /// Default shard count for `CREATE TABLE` without `PARTITION BY`.
    pub default_shards: u32,
    /// Network latency model.
    pub latency: LatencyMatrix,
    /// MPP degree for AP queries (tasks across the CN fleet).
    pub mpp_workers: usize,
    /// Estimated-cost threshold above which a query classifies AP and runs
    /// on the vectorized MPP path. Downsized harnesses lower it so their
    /// analytic mix still exercises AP routing at bench scale.
    pub ap_threshold: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            dcs: 1,
            cns_per_dc: 2,
            dns: 2,
            ros_per_dn: 0,
            default_shards: 8,
            latency: LatencyMatrix::zero(),
            mpp_workers: 4,
            ap_threshold: polardbx_optimizer::DEFAULT_AP_THRESHOLD,
        }
    }
}

/// One DN instance: a PolarDB (RW node + optional RO replicas) plus its
/// transaction participant service.
pub struct Dn {
    /// DN node id on the fabric.
    pub id: NodeId,
    /// Datacenter.
    pub dc: DcId,
    /// The PolarDB instance (engine + RO replication).
    pub rw: Arc<RwNode>,
    /// The participant service.
    pub service: Arc<DnService>,
}

pub(crate) struct Inner {
    pub(crate) config: ClusterConfig,
    pub(crate) gms: Arc<Gms>,
    /// The CN ↔ DN fabric; owning it keeps its delivery threads alive.
    pub(crate) net: Arc<SimNet<TxnMsg>>,
    pub(crate) cns: Vec<Arc<CnNode>>,
    pub(crate) dns: HashMap<NodeId, Arc<Dn>>,
    /// Logical-table-name → hidden GSI table names.
    pub(crate) gsi_tables: RwLock<HashMap<String, Vec<String>>>,
    /// Logical-table-name → its column index, fed by every DN's redo.
    pub(crate) column_indexes: RwLock<HashMap<String, Arc<ColumnIndexMaintainer>>>,
    /// Initial builds of a column index (each scans every shard).
    pub(crate) column_index_builds: Counter,
    /// CN-side workload pools (shared fleet-wide: the host has one CPU
    /// domain; per-CN pools would oversubscribe it meaninglessly).
    pub(crate) workload: Arc<WorkloadManager>,
    /// TP/AP memory regions with preemption (§VI-D).
    pub(crate) memory: Arc<MemoryManager>,
    pub(crate) traffic: TrafficControl,
    /// Route AP queries to RO replicas when available (§VI-A).
    pub(crate) htap_ro: AtomicBool,
    /// Cluster-wide transaction counters (shared by every CN coordinator,
    /// so 1PC/2PC fractions aggregate across the fleet).
    pub(crate) txn_metrics: Arc<TxnMetrics>,
    /// Commit-time co-access sketch feeding the adaptive placer.
    pub(crate) sketch: Arc<CoAccessSketch>,
    pub(crate) placer_stop: Arc<AtomicBool>,
    /// One in-doubt resolver per DN: settles a 2PC transaction whose phase
    /// two did not arrive by asking its peers.
    resolvers: Mutex<Vec<ResolverHandle>>,
}

/// A compute node: coordinator + clock.
pub struct CnNode {
    /// Node id on the fabric.
    pub id: NodeId,
    /// Datacenter.
    pub dc: DcId,
    /// The transaction coordinator.
    pub coordinator: Coordinator,
}

struct CnStub;
impl Handler<TxnMsg> for CnStub {
    fn handle(&self, _from: NodeId, m: TxnMsg) -> TxnMsg {
        m
    }
}

/// The cluster handle.
#[derive(Clone)]
pub struct PolarDbx {
    pub(crate) inner: Arc<Inner>,
}

impl PolarDbx {
    /// Build a cluster.
    pub fn build(config: ClusterConfig) -> Result<PolarDbx> {
        assert!(config.dcs >= 1 && config.dns >= 1 && config.cns_per_dc >= 1);
        let net = SimNet::new(config.latency.clone());
        let gms = Gms::new();
        let trx_ids = Arc::new(IdGenerator::new());

        let mut dns = HashMap::new();
        let mut resolvers = Vec::new();
        for i in 0..config.dns {
            let id = NodeId(1000 + i as u64);
            let dc = DcId(1 + (i % config.dcs) as u64);
            let rw = RwNode::new(id);
            for _ in 0..config.ros_per_dn {
                rw.add_ro();
            }
            let service = DnService::new(id, Arc::clone(&rw.engine), Hlc::new());
            net.register(id, dc, service.clone() as Arc<dyn Handler<TxnMsg>>);
            resolvers.push(service.start_resolver(Arc::clone(&net), ResolverConfig::default())?);
            gms.register_dn(id);
            dns.insert(id, Arc::new(Dn { id, dc, rw, service }));
        }

        let txn_metrics = Arc::new(TxnMetrics::new());
        let sketch = Arc::new(CoAccessSketch::new());
        let workload = WorkloadManager::with_defaults();
        let mut cns = Vec::new();
        for dc_i in 0..config.dcs {
            for c in 0..config.cns_per_dc {
                let id = NodeId(1 + (dc_i * config.cns_per_dc + c) as u64);
                let dc = DcId(1 + dc_i as u64);
                net.register(id, dc, Arc::new(CnStub));
                let coordinator =
                    Coordinator::new(id, Arc::clone(&net), Hlc::new(), Arc::clone(&trx_ids))
                        .with_metrics(Arc::clone(&txn_metrics))
                        .with_fence(Arc::clone(gms.epochs()) as _)
                        .with_observer(Arc::clone(&sketch) as _)
                        .with_tp_work(workload.tp_work().clone());
                cns.push(Arc::new(CnNode { id, dc, coordinator }));
            }
        }

        let inner = Arc::new(Inner {
            config,
            gms,
            net,
            cns,
            dns,
            gsi_tables: RwLock::new(HashMap::new()),
            column_indexes: RwLock::new(HashMap::new()),
            column_index_builds: Counter::new(),
            workload,
            memory: MemoryManager::with_defaults(),
            traffic: TrafficControl::new(),
            htap_ro: AtomicBool::new(true),
            txn_metrics,
            sketch,
            placer_stop: Arc::new(AtomicBool::new(false)),
            resolvers: Mutex::new(resolvers),
        });
        Ok(PolarDbx { inner })
    }

    /// Connect a session acting for the default tenant. The load balancer
    /// is locality-aware: it picks a CN in the client's datacenter, spilling
    /// to other DCs only when the local ones are absent (§II-A).
    pub fn connect(&self, client_dc: DcId) -> Session {
        let cn = self
            .inner
            .cns
            .iter()
            .find(|c| c.dc == client_dc)
            .or_else(|| self.inner.cns.first())
            .expect("cluster has CNs")
            .clone();
        Session { inner: Arc::clone(&self.inner), cn, tenant: TenantId::default() }
    }

    /// Connect to a specific CN by fleet index (wraps around). The front
    /// door uses this to spread wire connections round-robin across the CN
    /// fleet instead of pinning every client to one coordinator.
    pub fn connect_nth(&self, n: usize) -> Session {
        let cns = &self.inner.cns;
        let cn = Arc::clone(&cns[n % cns.len()]);
        Session { inner: Arc::clone(&self.inner), cn, tenant: TenantId::default() }
    }

    /// Register a tenant (name + admission quotas) in the GMS tenant
    /// catalog; returns the id wire clients handshake with. The tables its
    /// sessions create are its own (see [`Session::for_tenant`]).
    pub fn register_tenant(
        &self,
        name: &str,
        quotas: polardbx_common::TenantQuotas,
    ) -> TenantId {
        self.inner.gms.register_tenant(name, quotas)
    }

    /// The metadata service.
    pub fn gms(&self) -> &Arc<Gms> {
        &self.inner.gms
    }

    /// The CN ↔ DN fabric (tests re-register a DN behind a counting
    /// handler to see which messages a statement sends).
    pub fn net(&self) -> &Arc<SimNet<TxnMsg>> {
        &self.inner.net
    }

    /// DN handles (benchmarks and tests).
    pub fn dns(&self) -> Vec<Arc<Dn>> {
        self.inner.dns.values().cloned().collect()
    }

    /// The shared CN workload manager.
    pub fn workload(&self) -> &Arc<WorkloadManager> {
        &self.inner.workload
    }

    /// The traffic controller.
    pub fn traffic(&self) -> &TrafficControl {
        &self.inner.traffic
    }

    /// The CN memory manager (TP/AP regions, §VI-D).
    pub fn memory(&self) -> &Arc<MemoryManager> {
        &self.inner.memory
    }

    /// Toggle routing of AP queries to RO replicas.
    pub fn set_htap_ro(&self, enabled: bool) {
        self.inner.htap_ro.store(enabled, Ordering::Relaxed);
    }

    /// Add `n` RO replicas to every DN ("add RO nodes to scale read
    /// throughput in minutes" — here instantly, data is shared).
    pub fn add_ros(&self, n: u32) {
        for dn in self.inner.dns.values() {
            for _ in 0..n {
                dn.rw.add_ro();
            }
        }
    }

    /// Bring every feed consumer — RO replicas and column indexes — up to
    /// every acknowledged commit (tests and admin): an AP read's catch-up,
    /// on every DN, at a timestamp no commit so far is stamped above. It
    /// returns once the posted phase two of each such commit is in the feed.
    pub fn ship_now(&self) {
        let ts = self.cluster_ts().raw();
        for dn in self.inner.dns.values() {
            self.inner.catch_up(dn, ts);
        }
    }

    /// A timestamp at or above every DN's clock — a commit already in a
    /// log was stamped at or below one of them — read from the clock
    /// `provider()` takes its snapshot from.
    fn cluster_ts(&self) -> HlcTimestamp {
        let clock = self.connect(DcId(1)).cn.coordinator.clock().clone();
        for dn in self.inner.dns.values() {
            clock.update(dn.service.clock.now());
        }
        clock.now()
    }

    /// Build an in-memory column index over `table` from its current
    /// contents and subscribe it to every DN's redo feed, which keeps it
    /// equal to the row store from then on (§VI-E). Calling it again
    /// replaces the index and its subscription.
    pub fn enable_column_index(&self, table: &str) -> Result<()> {
        let schema = self.inner.gms.table(table)?;
        let visible = schema.visible_arity();
        let index = ColumnIndex::new(schema.columns.iter().take(visible).map(|c| c.ty).collect());
        let shards = 0..schema.partition.shard_count();
        let maintainer = ColumnIndexMaintainer::new(
            Arc::clone(&index),
            shards.clone().map(|shard| shard_table_id(schema.id, shard)),
        );
        // Subscribe before scanning, on every DN (a shard can move to any):
        // a commit the scan does not reflect then arrives on a feed, and
        // the maintainer holds the feeds back until the scan is in.
        let consumer: Arc<dyn RedoConsumer> = maintainer.clone();
        for dn in self.inner.dns.values() {
            dn.rw.subscribe(&consumer);
        }
        // The scan timestamp covers every commit already in a log, hence
        // perhaps below the subscription, and every DN's clock is moved to
        // it, so that no commit still to come is stamped at or below it.
        let ts = self.cluster_ts();
        for dn in self.inner.dns.values() {
            dn.service.clock.update(ts);
        }
        self.inner.column_index_builds.inc();
        for shard in shards {
            let rows = self.scan_shard(&schema, shard, ts.raw())?;
            let mut writer = index.writer();
            for (key, row) in rows {
                writer.put(TrxId(0), ts.raw(), key, &row)?;
            }
        }
        maintainer.finish_build(ts.raw())?;
        self.inner.column_indexes.write().insert(table.to_string(), maintainer);
        self.inner.gms.set_column_index(table, true);
        Ok(())
    }

    /// One shard's rows at `ts`, read where the shard lives now; a re-home
    /// cutover in between detaches the store, so look again.
    fn scan_shard(
        &self,
        schema: &polardbx_common::TableSchema,
        shard: u32,
        ts: u64,
    ) -> Result<Vec<(polardbx_common::Key, Row)>> {
        let stid = shard_table_id(schema.id, shard);
        let deadline = polardbx_common::time::mono_now() + Duration::from_secs(2);
        loop {
            // lint:allow(fence_completeness, read-only scan for the column-index build: a racing re-home makes the lookup miss, which is retried, and the shard's writes reach the index through the feeds it already subscribed to)
            let dn_id = self.inner.gms.shard_dn(schema.id, shard)?;
            match self.inner.dns[&dn_id].rw.engine.scan_table(stid, ts) {
                Err(Error::UnknownTable { .. })
                    if polardbx_common::time::mono_now() < deadline =>
                {
                    std::thread::yield_now()
                }
                rows => return rows,
            }
        }
    }

    /// The column index of `table`, if one was enabled.
    pub fn column_index(&self, table: &str) -> Option<Arc<ColumnIndex>> {
        self.inner.column_indexes.read().get(table).map(|m| Arc::clone(m.index()))
    }

    /// How many column-index builds (scans of every shard of a table) this
    /// cluster has run.
    pub fn column_index_builds(&self) -> u64 {
        self.inner.column_index_builds.get()
    }

    /// Stop background threads (drop hygiene for long test suites).
    pub fn shutdown(&self) {
        self.inner.stop_background();
    }

    /// Cluster-wide transaction counters (shared by all CN coordinators).
    pub fn txn_metrics(&self) -> &Arc<TxnMetrics> {
        &self.inner.txn_metrics
    }

    /// The commit-time co-access sketch (benchmarks inspect/reset it
    /// between phases).
    pub fn sketch(&self) -> &Arc<CoAccessSketch> {
        &self.inner.sketch
    }

    /// Build a snapshot provider over the RW engines, optionally exposing
    /// the registered column indexes — benchmark harnesses drive the
    /// executor directly through this.
    pub fn provider(&self, columnar: bool) -> ClusterProvider {
        let session = self.connect(DcId(1));
        let snapshot_ts = session.cn.coordinator.clock().now().raw();
        let indexes =
            if columnar { self.inner.column_indexes.read().clone() } else { HashMap::new() };
        self.inner.provider_at(snapshot_ts, false, indexes)
    }

    /// Total committed row count across shards of `table` (admin helper).
    pub fn count_rows(&self, table: &str) -> Result<usize> {
        let schema = self.inner.gms.table(table)?;
        let mut n = 0;
        for shard in 0..schema.partition.shard_count() {
            let dn_id = self.inner.gms.shard_dn(schema.id, shard)?;
            let dn = &self.inner.dns[&dn_id];
            n += dn.rw.engine.count_rows(shard_table_id(schema.id, shard), u64::MAX)?;
        }
        Ok(n)
    }
}

impl Inner {
    /// Signal every background thread to stop; the resolvers are joined.
    fn stop_background(&self) {
        self.placer_stop.store(true, Ordering::Relaxed);
        drop(std::mem::take(&mut *self.resolvers.lock()));
    }

    /// Bring `dn`'s feed consumers up to a snapshot at `ts` (session
    /// consistency, §II-C): the DN's clock absorbs `ts`, and its redo is
    /// shipped — applied by every consumer before the ship returns — until
    /// the feed holds every commit the snapshot may see. Returns whether it
    /// got there: `false` when a decision at or below `ts` is still missing
    /// after [`CATCH_UP`].
    fn catch_up(&self, dn: &Dn, ts: u64) -> bool {
        dn.service.clock.update(HlcTimestamp::from_raw(ts));
        dn.rw.ship_for_snapshot(ts, CATCH_UP)
    }

    /// A provider reading at `snapshot_ts`: the RW engines, or each DN's
    /// first RO replica when `use_ro`, and `indexes`.
    ///
    /// What is read beside the RW engines is first brought up to the
    /// snapshot, replica and index alike ([`Inner::catch_up`]). A DN whose
    /// feed lacks a decision the snapshot may see is read from its RW
    /// engine, which waits out the PREPARED version like any reader, and
    /// the indexes are left out: the row store answers for their tables.
    pub(crate) fn provider_at(
        &self,
        snapshot_ts: u64,
        use_ro: bool,
        mut indexes: HashMap<String, Arc<ColumnIndexMaintainer>>,
    ) -> ClusterProvider {
        let mut engines: HashMap<NodeId, Arc<StorageEngine>> = HashMap::new();
        for (&id, dn) in &self.dns {
            let mut ro = if use_ro { dn.rw.ros().into_iter().next() } else { None };
            if (ro.is_some() || !indexes.is_empty()) && !self.catch_up(dn, snapshot_ts) {
                ro = None;
                indexes.clear();
            }
            let engine = ro.map_or_else(|| Arc::clone(&dn.rw.engine), |ro| Arc::clone(&ro.engine));
            engines.insert(id, engine);
        }
        let indexes = indexes.into_iter().map(|(t, m)| (t, Arc::clone(m.index()))).collect();
        ClusterProvider::new(Arc::clone(&self.gms), engines, snapshot_ts)
            .with_column_indexes(indexes)
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.stop_background();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Value;
    use polardbx_optimizer::WorkloadClass;

    fn cluster() -> PolarDbx {
        PolarDbx::build(ClusterConfig { dns: 3, default_shards: 6, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn a_cluster_dropped_without_shutdown_is_freed() {
        let db = PolarDbx::build(ClusterConfig { ros_per_dn: 1, ..Default::default() }).unwrap();
        let inner = Arc::downgrade(&db.inner);
        drop(db);
        assert!(inner.upgrade().is_none(), "a background thread still holds the cluster");
    }

    #[test]
    fn ddl_dml_query_roundtrip() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE accounts (id BIGINT NOT NULL, name VARCHAR(32), balance DOUBLE, \
             PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 6",
        )
        .unwrap();
        let n = s
            .execute(
                "INSERT INTO accounts (id, name, balance) VALUES \
                 (1, 'alice', 100.0), (2, 'bob', 50.0), (3, 'carol', 75.0)",
            )
            .unwrap();
        assert_eq!(n, 3);
        let rows = s.query("SELECT name FROM accounts WHERE id = 2").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).unwrap(), &Value::str("bob"));
        // Aggregate across shards.
        let rows = s.query("SELECT COUNT(*), SUM(balance) FROM accounts").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));
        assert_eq!(rows[0].get(1).unwrap(), &Value::Double(225.0));
        db.shutdown();
    }

    #[test]
    fn update_and_delete() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)").unwrap();
        let n = s.execute("UPDATE t SET v = v + 1 WHERE id >= 2").unwrap();
        assert_eq!(n, 2);
        let rows = s.query("SELECT v FROM t WHERE id = 3").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(31));
        let n = s.execute("DELETE FROM t WHERE v = 21").unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.count_rows("t").unwrap(), 2);
        db.shutdown();
    }

    #[test]
    fn implicit_pk_assigned() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE logs (msg VARCHAR(64))").unwrap();
        s.execute("INSERT INTO logs (msg) VALUES ('a'), ('b'), ('c')").unwrap();
        assert_eq!(db.count_rows("logs").unwrap(), 3);
        let rows = s.query("SELECT COUNT(*) FROM logs").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));
        db.shutdown();
    }

    #[test]
    fn duplicate_pk_rejected_atomically() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO t (id, v) VALUES (1, 10)").unwrap();
        // Multi-row insert with a duplicate aborts entirely.
        let err = s.execute("INSERT INTO t (id, v) VALUES (5, 50), (1, 99)").unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. } | Error::PrepareRejected { .. }));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(db.count_rows("t").unwrap(), 1, "atomic abort");
        db.shutdown();
    }

    #[test]
    fn global_index_maintained_in_same_txn() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE orders (id BIGINT NOT NULL, cust INT, PRIMARY KEY (id))")
            .unwrap();
        s.execute("INSERT INTO orders (id, cust) VALUES (1, 7), (2, 7), (3, 9)").unwrap();
        s.execute("CREATE GLOBAL INDEX by_cust ON orders (cust)").unwrap();
        // Backfill populated the hidden table.
        assert_eq!(db.count_rows("__gsi_orders_by_cust").unwrap(), 3);
        // New inserts maintain it.
        s.execute("INSERT INTO orders (id, cust) VALUES (4, 9)").unwrap();
        assert_eq!(db.count_rows("__gsi_orders_by_cust").unwrap(), 4);
        // Updates to the indexed column move the entry.
        s.execute("UPDATE orders SET cust = 8 WHERE id = 1").unwrap();
        let rows = s.query("SELECT cust FROM __gsi_orders_by_cust WHERE cust = 8").unwrap();
        assert_eq!(rows.len(), 1);
        // Deletes remove it.
        s.execute("DELETE FROM orders WHERE id = 2").unwrap();
        assert_eq!(db.count_rows("__gsi_orders_by_cust").unwrap(), 3);
        db.shutdown();
    }

    #[test]
    fn load_balancer_prefers_local_cn() {
        let db = PolarDbx::build(ClusterConfig {
            dcs: 3,
            cns_per_dc: 2,
            dns: 3,
            ..Default::default()
        })
        .unwrap();
        for dc in 1..=3u64 {
            let s = db.connect(DcId(dc));
            assert_eq!(s.cn_dc(), DcId(dc), "locality-aware routing");
        }
        // Unknown DC falls back to any CN.
        let s = db.connect(DcId(99));
        assert!(s.cn_dc().raw() >= 1);
        db.shutdown();
    }

    #[test]
    fn classification_routes_tp_and_ap() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE big (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        for chunk in 0..4 {
            let values: Vec<String> = (0..50)
                .map(|i| format!("({}, {})", chunk * 50 + i, i))
                .collect();
            s.execute(&format!("INSERT INTO big (id, v) VALUES {}", values.join(",")))
                .unwrap();
        }
        // Make the stats look big so classification flips to AP.
        db.gms().record_rows("big", 10_000_000);
        let (_, class) = s.query_classified("SELECT id FROM big WHERE id = 5").unwrap();
        assert_eq!(class, WorkloadClass::Tp);
        // EXPLAIN shows whether the scan was narrowed to the named keys.
        let plan = s.explain("SELECT id FROM big WHERE id = 5").unwrap();
        assert!(plan.contains("access big: keys(1)\n"), "{plan}");
        let plan = s.explain("SELECT id FROM big WHERE id IN (1, 2) AND v = 0").unwrap();
        assert!(plan.contains("access big: keys(2)\n"), "{plan}");
        for sql in ["SELECT id FROM big WHERE v = 5", "SELECT v, COUNT(*) FROM big GROUP BY v"] {
            let plan = s.explain(sql).unwrap();
            assert!(plan.contains("access big: all shards\n"), "{plan}");
        }
        let (rows, class) =
            s.query_classified("SELECT v, COUNT(*) FROM big GROUP BY v").unwrap();
        assert_eq!(class, WorkloadClass::Ap);
        assert_eq!(rows.len(), 50);
        db.shutdown();
    }

    #[test]
    fn column_index_query_path() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE fact (id BIGINT NOT NULL, grp INT, amt DOUBLE, PRIMARY KEY (id))")
            .unwrap();
        let values: Vec<String> =
            (0..200).map(|i| format!("({i}, {}, {}.5)", i % 4, i)).collect();
        s.execute(&format!("INSERT INTO fact (id, grp, amt) VALUES {}", values.join(",")))
            .unwrap();
        db.enable_column_index("fact").unwrap();
        assert!(db.gms().statistics().get("fact").has_column_index);
        let mut rows = s.query("SELECT grp, COUNT(*) FROM fact GROUP BY grp").unwrap();
        rows.sort_by(|a, b| a.get(0).unwrap().cmp(b.get(0).unwrap()));
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(50));
        // DML reaches the index through the DNs' redo.
        s.execute("DELETE FROM fact WHERE grp = 0").unwrap();
        let rows = s.query("SELECT COUNT(*) FROM fact").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(150));
        db.shutdown();
    }

    #[test]
    fn joins_across_shards() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE l (id BIGINT NOT NULL, gid INT, PRIMARY KEY (id))").unwrap();
        s.execute("CREATE TABLE g (gid BIGINT NOT NULL, name VARCHAR(16), PRIMARY KEY (gid))")
            .unwrap();
        s.execute("INSERT INTO g (gid, name) VALUES (0, 'zero'), (1, 'one')").unwrap();
        s.execute(
            "INSERT INTO l (id, gid) VALUES (1, 0), (2, 1), (3, 0), (4, 1), (5, 0)",
        )
        .unwrap();
        let rows = s
            .query(
                "SELECT g.name, COUNT(*) AS n FROM l JOIN g ON l.gid = g.gid \
                 GROUP BY g.name ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0).unwrap(), &Value::str("zero"));
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(3));
        db.shutdown();
    }
}
