//! The `PolarDbx` facade: build a cluster, connect, execute SQL.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use polardbx_columnar::{ColumnIndex, ColumnIndexMaintainer};
use polardbx_common::metrics::Counter;
use polardbx_common::{DcId, Error, IdGenerator, NodeId, Result, Row, TenantId, TrxId};
use polardbx_executor::{MemoryManager, WorkloadManager};
use polardbx_hlc::{Clock, Hlc, HlcTimestamp};
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use polardbx_placement::CoAccessSketch;
use polardbx_storage::{RecoveryReport, RedoConsumer, RwNode, StorageEngine};
use polardbx_txn::{Coordinator, DnService, ResolverConfig, ResolverHandle, TxnMetrics, TxnMsg};

use crate::gms::{shard_table_id, Gms};
use crate::provider::ClusterProvider;
use crate::session::Session;
use crate::plan_cache::PlanCache;

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
    /// The DN its amnesia restart brought up in this one's place. Readers
    /// follow it without a lock: it is set once, and a restarted DN stays
    /// allocated as long as the cluster.
    restarted: OnceLock<Arc<Dn>>,
}

impl Dn {
    /// This DN as it runs now: its latest restart, or itself.
    fn latest(self: &Arc<Dn>) -> &Arc<Dn> {
        self.restarted.get().map_or(self, Dn::latest)
    }
}

/// How a DN's clock is made, from its build index.
type DnClock = Arc<dyn Fn(usize) -> Arc<dyn Clock> + Send + Sync>;

pub(crate) struct Inner {
    pub(crate) config: ClusterConfig,
    pub(crate) gms: Arc<Gms>,
    /// The CN ↔ DN fabric; owning it keeps its delivery threads alive.
    pub(crate) net: Arc<SimNet<TxnMsg>>,
    pub(crate) cns: Vec<Arc<CnNode>>,
    /// The DNs in build order, as first built: [`Inner::dns`] follows each
    /// to its latest restart.
    dns: Vec<Arc<Dn>>,
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
    /// Statement shape → its plan template, shared by every CN.
    pub(crate) plans: PlanCache,
    /// Route AP queries to RO replicas when available (§VI-A).
    pub(crate) htap_ro: AtomicBool,
    /// Cluster-wide transaction counters (shared by every CN coordinator,
    /// so 1PC/2PC fractions aggregate across the fleet).
    pub(crate) txn_metrics: Arc<TxnMetrics>,
    /// Commit-time co-access sketch feeding the adaptive placer.
    pub(crate) sketch: Arc<CoAccessSketch>,
    pub(crate) placer_stop: Arc<AtomicBool>,
    /// The one transaction-id space of every coordinator: a DN never
    /// re-opens an id it has seen decided.
    trx_ids: Arc<IdGenerator>,
    dn_clock: DnClock,
    resolver: ResolverConfig,
    /// One in-doubt resolver per DN, in build order: settles a 2PC
    /// transaction whose phase two did not arrive by asking its peers.
    /// Emptied by shutdown; a restart holds the lock throughout.
    resolvers: Mutex<Vec<Option<ResolverHandle>>>,
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

/// A cluster about to be built: its [`ClusterConfig`] plus the two settings
/// the product leaves at their defaults and the checkers change — the DN
/// clocks and the resolver timing.
pub struct ClusterBuilder {
    config: ClusterConfig,
    dn_clock: DnClock,
    resolver: ResolverConfig,
}

impl ClusterBuilder {
    /// Give DN `i` (build order) the clock `clock(i)`, at build and at each
    /// amnesia restart; the default is a wall-clock [`Hlc`].
    pub fn dn_clocks(
        mut self,
        clock: impl Fn(usize) -> Arc<dyn Clock> + Send + Sync + 'static,
    ) -> ClusterBuilder {
        self.dn_clock = Arc::new(clock);
        self
    }

    /// Run every DN's in-doubt resolver at `cfg` instead of
    /// [`ResolverConfig::default`].
    pub fn resolver_timing(mut self, cfg: ResolverConfig) -> ClusterBuilder {
        self.resolver = cfg;
        self
    }

    /// Build the cluster.
    pub fn build(self) -> Result<PolarDbx> {
        let ClusterBuilder { config, dn_clock, resolver } = self;
        assert!(config.dcs >= 1 && config.dns >= 1 && config.cns_per_dc >= 1);
        let net = SimNet::new(config.latency.clone());
        let gms = Gms::new();

        let mut dns = Vec::new();
        let mut resolvers = Vec::new();
        for i in 0..config.dns {
            let id = NodeId(1000 + i as u64);
            let dc = DcId(1 + (i % config.dcs) as u64);
            let rw = RwNode::new(id);
            for _ in 0..config.ros_per_dn {
                rw.add_ro();
            }
            let service = DnService::new(id, Arc::clone(&rw.engine), dn_clock(i as usize));
            net.register(id, dc, service.clone() as Arc<dyn Handler<TxnMsg>>);
            resolvers.push(Some(service.start_resolver(Arc::clone(&net), resolver)?));
            gms.register_dn(id);
            dns.push(Arc::new(Dn { id, dc, rw, service, restarted: OnceLock::new() }));
        }

        let mut inner = Inner {
            config,
            gms,
            net,
            cns: Vec::new(),
            dns,
            gsi_tables: RwLock::new(HashMap::new()),
            column_indexes: RwLock::new(HashMap::new()),
            column_index_builds: Counter::new(),
            workload: WorkloadManager::with_defaults(),
            memory: MemoryManager::with_defaults(),
            plans: PlanCache::new(),
            htap_ro: AtomicBool::new(true),
            txn_metrics: Arc::new(TxnMetrics::new()),
            sketch: Arc::new(CoAccessSketch::new()),
            placer_stop: Arc::new(AtomicBool::new(false)),
            trx_ids: Arc::new(IdGenerator::new()),
            dn_clock,
            resolver,
            resolvers: Mutex::new(resolvers),
        };
        for dc_i in 0..inner.config.dcs {
            for c in 0..inner.config.cns_per_dc {
                let id = NodeId(1 + (dc_i * inner.config.cns_per_dc + c) as u64);
                let dc = DcId(1 + dc_i as u64);
                inner.net.register(id, dc, Arc::new(CnStub));
                let coordinator = inner.coordinator(id, Hlc::new());
                inner.cns.push(Arc::new(CnNode { id, dc, coordinator }));
            }
        }
        Ok(PolarDbx { inner: Arc::new(inner) })
    }
}

impl PolarDbx {
    /// Build a cluster.
    pub fn build(config: ClusterConfig) -> Result<PolarDbx> {
        PolarDbx::builder(config).build()
    }

    /// A builder for a cluster of shape `config`, with product defaults.
    pub fn builder(config: ClusterConfig) -> ClusterBuilder {
        ClusterBuilder { config, dn_clock: Arc::new(|_| Hlc::new()), resolver: ResolverConfig::default() }
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

    /// DN handles, in build order (benchmarks and tests).
    pub fn dns(&self) -> Vec<Arc<Dn>> {
        self.inner.dns().cloned().collect()
    }

    /// DN `i` in build order (`NodeId(1000 + i)`), as it runs now.
    pub fn dn(&self, i: usize) -> Arc<Dn> {
        Arc::clone(self.inner.dns[i].latest())
    }

    /// CN `i` in build order (`NodeId(1 + i)`; DC by DC).
    pub fn cn(&self, i: usize) -> Arc<CnNode> {
        Arc::clone(&self.inner.cns[i])
    }

    /// Another coordinator on CN `i`, reading `clock`: it shares the CN
    /// coordinators' id space, metrics, routing fence, access observer and
    /// TP gauge, exactly as CN `i`'s own does. A harness adds its config,
    /// recorder, mutations or failpoint with the `with_*` builders.
    pub fn coordinator(&self, i: usize, clock: Arc<dyn Clock>) -> Coordinator {
        self.inner.coordinator(self.inner.cns[i].id, clock)
    }

    /// Amnesia restart of DN `i` (build order): the DN loses everything but
    /// its durable log. It is crashed on the fabric if it is not down
    /// already, and its resolver stops. A new DN recovers from the log
    /// ([`RwNode::restart`]), adopts the transactions the log leaves in
    /// doubt, takes the old one's place for readers and on the fabric, and
    /// runs a new resolver, which settles those transactions by asking
    /// their peers. On an error — a DN holding a table handed to it by
    /// reference cannot be recovered from its own log — it stays down.
    pub fn restart_amnesia(&self, i: usize) -> Result<RecoveryReport> {
        let inner = &self.inner;
        let mut resolvers = inner.resolvers.lock();
        let old = Arc::clone(inner.dns[i].latest());
        inner.net.crash(old.id);
        if let Some(resolver) = resolvers.get_mut(i) {
            *resolver = None;
        }
        let (rw, report) = old.rw.restart()?;
        let service = DnService::new(old.id, Arc::clone(&rw.engine), (inner.dn_clock)(i));
        for (trx, _, peers) in &report.in_doubt {
            service.adopt_in_doubt(*trx, peers.clone());
        }
        let dn = Arc::new(Dn { id: old.id, dc: old.dc, rw, service, restarted: OnceLock::new() });
        // Only a restart sets it, under the resolvers lock, on the latest DN.
        let _ = old.restarted.set(Arc::clone(&dn));
        inner.net.register(dn.id, dn.dc, Arc::clone(&dn.service) as Arc<dyn Handler<TxnMsg>>);
        inner.net.restart_amnesia(dn.id);
        if let Some(resolver) = resolvers.get_mut(i) {
            *resolver = Some(dn.service.start_resolver(Arc::clone(&inner.net), inner.resolver)?);
        }
        Ok(report)
    }

    /// The shared CN workload manager.
    pub fn workload(&self) -> &Arc<WorkloadManager> {
        &self.inner.workload
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
        for dn in self.inner.dns() {
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
        for dn in self.inner.dns() {
            self.inner.catch_up(dn, ts);
        }
    }

    /// A timestamp at or above every DN's clock — a commit already in a
    /// log was stamped at or below one of them — read from the clock
    /// `provider()` takes its snapshot from.
    fn cluster_ts(&self) -> HlcTimestamp {
        let clock = self.connect(DcId(1)).cn.coordinator.clock().clone();
        for dn in self.inner.dns() {
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
        for dn in self.inner.dns() {
            dn.rw.subscribe(&consumer);
        }
        // The scan timestamp covers every commit already in a log, hence
        // perhaps below the subscription, and every DN's clock is moved to
        // it, so that no commit still to come is stamped at or below it.
        let ts = self.cluster_ts();
        for dn in self.inner.dns() {
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
            match self.inner.dn(dn_id).rw.engine.scan_table(stid, ts) {
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
            let dn = self.inner.dn(dn_id);
            n += dn.rw.engine.count_rows(shard_table_id(schema.id, shard), u64::MAX)?;
        }
        Ok(n)
    }
}

impl Inner {
    /// The DNs in build order, as they run now.
    pub(crate) fn dns(&self) -> impl Iterator<Item = &Arc<Dn>> {
        self.dns.iter().map(Dn::latest)
    }

    /// The DN with fabric id `id`, as it runs now.
    pub(crate) fn dn(&self, id: NodeId) -> &Arc<Dn> {
        self.dns().find(|dn| dn.id == id).unwrap_or_else(|| panic!("no DN {id}"))
    }

    /// A coordinator on CN `id` reading `clock`, wired like every CN's.
    fn coordinator(&self, id: NodeId, clock: Arc<dyn Clock>) -> Coordinator {
        Coordinator::new(id, Arc::clone(&self.net), clock, Arc::clone(&self.trx_ids))
            .with_metrics(Arc::clone(&self.txn_metrics))
            .with_fence(Arc::clone(self.gms.epochs()) as _)
            .with_observer(Arc::clone(&self.sketch) as _)
            .with_tp_work(self.workload.tp_work().clone())
    }

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
        for dn in self.dns() {
            let mut ro = if use_ro { dn.rw.ros().into_iter().next() } else { None };
            if (ro.is_some() || !indexes.is_empty()) && !self.catch_up(dn, snapshot_ts) {
                ro = None;
                indexes.clear();
            }
            let engine = ro.map_or_else(|| Arc::clone(&dn.rw.engine), |ro| Arc::clone(&ro.engine));
            engines.insert(dn.id, engine);
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
