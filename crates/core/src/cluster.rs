//! The `PolarDbx` facade: build a cluster, connect, execute SQL.

use parking_lot::RwLock;
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
use polardbx_mt::{RehomeConfig, RehomeExecutor};
use polardbx_placement::{plan as placement_plan, CoAccessSketch, PlannerConfig};
use polardbx_storage::{RedoConsumer, RwNode, StorageEngine};
use polardbx_txn::{Coordinator, DnService, TxnMetrics, TxnMsg};

use crate::gms::{shard_table_id, Gms};
use crate::provider::ClusterProvider;
use crate::session::Session;
use crate::traffic::TrafficControl;

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

/// Adaptive-placer knobs (see [`PolarDbx::start_placer`]).
#[derive(Debug, Clone, Copy)]
pub struct PlacerConfig {
    /// How often the placer snapshots the sketch and plans.
    pub interval: Duration,
    /// Affinity-clustering knobs.
    pub planner: PlannerConfig,
    /// Cutover throttle (min gap between moves, per-pass cap).
    pub rehome: RehomeConfig,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            interval: Duration::from_millis(200),
            planner: PlannerConfig::default(),
            rehome: RehomeConfig::default(),
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
    pub(crate) shipper_stop: Arc<AtomicBool>,
    /// Cluster-wide transaction counters (shared by every CN coordinator,
    /// so 1PC/2PC fractions aggregate across the fleet).
    pub(crate) txn_metrics: Arc<TxnMetrics>,
    /// Commit-time co-access sketch feeding the adaptive placer.
    pub(crate) sketch: Arc<CoAccessSketch>,
    pub(crate) placer_stop: Arc<AtomicBool>,
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
        for i in 0..config.dns {
            let id = NodeId(1000 + i as u64);
            let dc = DcId(1 + (i % config.dcs) as u64);
            let rw = RwNode::new(id);
            for _ in 0..config.ros_per_dn {
                rw.add_ro();
            }
            let service = DnService::new(id, Arc::clone(&rw.engine), Hlc::new());
            net.register(id, dc, service.clone() as Arc<dyn Handler<TxnMsg>>);
            gms.register_dn(id);
            dns.insert(id, Arc::new(Dn { id, dc, rw, service }));
        }

        let txn_metrics = Arc::new(TxnMetrics::new());
        let sketch = Arc::new(CoAccessSketch::new());
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
                        .with_observer(Arc::clone(&sketch) as _);
                cns.push(Arc::new(CnNode { id, dc, coordinator }));
            }
        }

        let shipper_stop = Arc::new(AtomicBool::new(false));
        let inner = Arc::new(Inner {
            config,
            gms,
            net,
            cns,
            dns,
            gsi_tables: RwLock::new(HashMap::new()),
            column_indexes: RwLock::new(HashMap::new()),
            column_index_builds: Counter::new(),
            workload: WorkloadManager::with_defaults(),
            memory: MemoryManager::with_defaults(),
            traffic: TrafficControl::new(),
            htap_ro: AtomicBool::new(true),
            shipper_stop: Arc::clone(&shipper_stop),
            txn_metrics,
            sketch,
            placer_stop: Arc::new(AtomicBool::new(false)),
        });
        // Background shipper: each DN's flushed redo goes to its feed's
        // consumers — the RO replicas and the column indexes — and an index
        // that has gathered too many tombstones is compacted.
        {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("polardbx-shipper".into())
                .spawn(move || {
                    while !inner.shipper_stop.load(Ordering::Relaxed) {
                        for dn in inner.dns.values() {
                            dn.rw.ship();
                        }
                        let indexes: Vec<_> =
                            inner.column_indexes.read().values().cloned().collect();
                        for maintainer in indexes {
                            maintainer.index().reclaim();
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
                .expect("spawn shipper");
        }
        Ok(PolarDbx { inner })
    }

    /// Connect a session. The load balancer is locality-aware: it picks a
    /// CN in the client's datacenter, spilling to other DCs only when the
    /// local ones are absent (§II-A).
    pub fn connect(&self, client_dc: DcId) -> Session {
        let cn = self
            .inner
            .cns
            .iter()
            .find(|c| c.dc == client_dc)
            .or_else(|| self.inner.cns.first())
            .expect("cluster has CNs")
            .clone();
        Session { inner: Arc::clone(&self.inner), cn }
    }

    /// Connect to a specific CN by fleet index (wraps around). The front
    /// door uses this to spread wire connections round-robin across the CN
    /// fleet instead of pinning every client to one coordinator.
    pub fn connect_nth(&self, n: usize) -> Session {
        let cns = &self.inner.cns;
        let cn = Arc::clone(&cns[n % cns.len()]);
        Session { inner: Arc::clone(&self.inner), cn }
    }

    /// Register a front-door tenant (name + admission quotas) in the GMS
    /// tenant catalog; returns the id wire clients handshake with.
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

    /// Ship pending redo to every feed consumer — RO replicas and column
    /// indexes — synchronously (tests and admin). Waits briefly first so asynchronously posted 2PC phase-two
    /// commit records land in the DN logs before shipping.
    pub fn ship_now(&self) {
        for _ in 0..10 {
            if self.inner.dns.values().all(|dn| !dn.rw.engine.has_active_txns()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(2));
        for dn in self.inner.dns.values() {
            dn.rw.ship();
        }
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
        // The scan timestamp is at or above every DN's clock — a commit
        // already in a log, hence perhaps below the subscription, was
        // stamped at or below one of them — and every DN's clock is moved
        // to it, so that no commit still to come is stamped at or below it.
        // The clock is the one `provider()` reads its snapshot from.
        let clock = self.connect(DcId(1)).cn.coordinator.clock().clone();
        for dn in self.inner.dns.values() {
            clock.update(dn.service.clock.now());
        }
        let ts = clock.now();
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
        self.inner.shipper_stop.store(true, Ordering::Relaxed);
        self.inner.placer_stop.store(true, Ordering::Relaxed);
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

    /// Re-home one shard under **live traffic** — the adaptive-placement
    /// cutover and the anti-hotspot rebalancing primitive of §VIII ("we can
    /// migrate shards to achieve a balanced state between DNs"). Only the
    /// one shard's routing epoch is frozen:
    ///
    /// 1. freeze + epoch bump — new routes and stale-pinned commits bounce
    ///    with a retryable error,
    /// 2. drain the shard's commit gate (in-flight fenced commits finish),
    /// 3. drain the source engine's in-flight write sets on the shard —
    ///    phase-two Commit messages are *posted* asynchronously, so a
    ///    committed write set can outlive the commit gate; detaching
    ///    before it applies would strand the write,
    /// 4. flush + detach the shard store, ship the source's redo tail to
    ///    its feed's consumers, attach at the destination (by reference
    ///    over shared storage — zero rows copied), raise the destination
    ///    clock past the source so moved versions stay in the
    ///    destination's timestamp past,
    /// 5. update placement, unfreeze.
    ///
    /// Returns how long the shard's traffic was paused.
    pub fn rehome_shard(&self, table: &str, shard: u32, dest: NodeId) -> Result<Duration> {
        let schema = self.inner.gms.table(table)?;
        self.rehome_shard_by_id(schema.id, shard, dest)
    }

    /// [`PolarDbx::rehome_shard`] by logical table id (the placer works on
    /// ids, not names).
    pub fn rehome_shard_by_id(
        &self,
        table: polardbx_common::TableId,
        shard: u32,
        dest: NodeId,
    ) -> Result<Duration> {
        // lint:allow(fence_completeness, migration source lookup, not DML routing: the cutover freezes the epoch before touching data, and a racing re-home serializes behind the same freeze)
        let src_id = self.inner.gms.shard_dn(table, shard)?;
        if src_id == dest {
            return Ok(Duration::ZERO);
        }
        let src = self
            .inner
            .dns
            .get(&src_id)
            .ok_or_else(|| Error::invalid("unknown source DN"))?;
        let dst = self
            .inner
            .dns
            .get(&dest)
            .ok_or_else(|| Error::invalid("unknown destination DN"))?;
        let stid = shard_table_id(table, shard);
        let epochs = self.inner.gms.epochs();
        let t0 = polardbx_common::time::mono_now();
        epochs.freeze(stid);
        // Engine-level write freeze on top of the routing freeze: a write
        // already past routing when the epoch froze would otherwise install
        // an intent between the drain below and the detach, stranding it
        // inside the moved store.
        src.rw.engine.freeze_writes(stid);
        // The cutover body runs in a closure so every exit — success or any
        // error, including `?` propagation — flows through the single
        // unfreeze below. A shard left frozen bounces every fenced route
        // and commit retryably forever: a permanent livelock.
        let cutover = || -> Result<()> {
            if !epochs.drain(stid, Duration::from_secs(2)) {
                return Err(Error::Timeout { what: "draining shard commit gate".into() });
            }
            // Async phase-two tail: wait for posted Commit/Abort deliveries
            // to consume every in-flight write set on this shard table.
            let deadline = polardbx_common::time::mono_now() + Duration::from_secs(2);
            while src.rw.engine.has_active_writes_on(stid) {
                if polardbx_common::time::mono_now() > deadline {
                    return Err(Error::Timeout { what: "draining shard write sets".into() });
                }
                std::thread::yield_now();
            }
            let tenant = TenantId(table.raw());
            src.rw.engine.pool.flush_tenant(tenant, None)?;
            // Writes are frozen and the drain passed, but the flush spans
            // time: re-verify nothing slipped in right before the detach.
            if src.rw.engine.has_active_writes_on(stid) {
                return Err(Error::Timeout { what: "late write set on shard".into() });
            }
            let store = src
                .rw
                .detach_table(stid)
                .ok_or_else(|| Error::invalid("shard store missing on source"))?;
            // The shard's later commits arrive on the destination's feed.
            // A commit holds the table map until its record is flushed and
            // `detach_table` waited for that, so shipping the source's tail
            // now — before the destination can take a write — hands a
            // column index every image of a key in commit order.
            src.rw.ship();
            dst.rw.attach_table(stid, store, tenant);
            // Commit timestamps at the new home must stay above every
            // version the shard carries (the source's clock may run ahead).
            dst.service.clock.update(src.service.clock.now());
            self.inner.gms.move_shard(table, shard, dest);
            Ok(())
        };
        let result = cutover();
        src.rw.engine.unfreeze_writes(stid);
        epochs.unfreeze(stid);
        result.map(|()| polardbx_common::time::mono_now() - t0)
    }

    /// Start the adaptive placer: a background thread that periodically
    /// snapshots the co-access sketch, plans affinity moves, and applies
    /// them through the throttled re-home executor. Stops on
    /// [`PolarDbx::shutdown`].
    pub fn start_placer(&self, cfg: PlacerConfig) {
        // The thread holds only a Weak handle: a strong clone would keep
        // `Inner` alive forever, making the Drop-based stop unreachable —
        // a cluster dropped without shutdown() would leak the thread and
        // all cluster state for the process lifetime.
        let weak = Arc::downgrade(&self.inner);
        let stop = Arc::clone(&self.inner.placer_stop);
        std::thread::Builder::new()
            .name("polardbx-placer".into())
            .spawn(move || {
                let executor = RehomeExecutor::new(cfg.rehome);
                let mut next = polardbx_common::time::mono_now() + cfg.interval;
                while !stop.load(Ordering::Relaxed) {
                    if polardbx_common::time::mono_now() < next {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    next = polardbx_common::time::mono_now() + cfg.interval;
                    // Upgrade per pass and drop the strong handle at the end
                    // of the pass; the cluster going away ends the thread.
                    let Some(inner) = weak.upgrade() else { break };
                    let db = PolarDbx { inner };
                    let mut snap = db.inner.sketch.snapshot();
                    // Tumbling window: plan on this interval's traffic only.
                    // Without the reset, counts from cold placements distort
                    // the balance cap indefinitely.
                    db.inner.sketch.reset();
                    // Sketch homes are commit-time observations and can mix
                    // pre- and post-cutover values inside one window; a plan
                    // built on a stale home proposes moves toward a DN the
                    // partition already left — oscillation. Placement is the
                    // truth: re-resolve every home before planning.
                    snap.parts.retain_mut(|p| {
                        let table = polardbx_common::TableId(p.part / 10_000);
                        let shard = (p.part % 10_000) as u32;
                        // lint:allow(fence_completeness, planning-only home resolution: staleness merely proposes a worse move, and the executed cutover re-checks under its own epoch freeze)
                        match db.inner.gms.shard_dn(table, shard) {
                            Ok(dn) => {
                                p.home = dn;
                                true
                            }
                            Err(_) => false, // shard dropped since observed
                        }
                    });
                    let moves = placement_plan(&snap, &cfg.planner);
                    if moves.is_empty() {
                        continue;
                    }
                    executor.execute(&moves, |mv| {
                        // Shard-table ids encode (table, shard); see
                        // `gms::shard_table_id`.
                        let table = polardbx_common::TableId(mv.part / 10_000);
                        let shard = (mv.part % 10_000) as u32;
                        // The sketch home may lag a move executed after the
                        // snapshot was taken; placement is the truth.
                        // lint:allow(fence_completeness, no-op-move check before a re-home: a stale read at worst skips or repeats a move attempt, and the cutover itself is epoch-fenced)
                        if db.inner.gms.shard_dn(table, shard)? == mv.to {
                            return Ok(Duration::ZERO);
                        }
                        let pause = db.rehome_shard_by_id(table, shard, mv.to)?;
                        db.inner.txn_metrics.rehomes_applied.inc();
                        Ok(pause)
                    });
                }
            })
            .expect("spawn placer");
    }

    /// Balance a table's shards across all DNs by current row counts
    /// (the GMS background-rebalance task of §II-A). Returns the number of
    /// shards moved.
    pub fn rebalance(&self, table: &str) -> Result<usize> {
        let schema = self.inner.gms.table(table)?;
        let mut loads = Vec::new();
        for shard in 0..schema.partition.shard_count() {
            // lint:allow(fence_completeness, planning-only load count: a stale home at worst mis-weighs one shard, and each move re-checks under its own epoch freeze)
            let dn = self.inner.gms.shard_dn(schema.id, shard)?;
            let rows = self.inner.dns[&dn]
                .rw
                .engine
                .count_rows(shard_table_id(schema.id, shard), u64::MAX)
                .unwrap_or(0) as u64;
            loads.push((shard, rows));
        }
        let targets: Vec<NodeId> = self.inner.dns.keys().copied().collect();
        let plan = self.inner.gms.plan_rebalance(schema.id, &loads, &targets);
        let mut moved = 0;
        for (shard, dest) in plan {
            self.rehome_shard_by_id(schema.id, shard, dest)?;
            moved += 1;
        }
        Ok(moved)
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
    /// A provider reading at `snapshot_ts`: the RW engines, or each DN's
    /// first RO replica when `use_ro`, and `indexes`.
    ///
    /// What is read beside the RW engines is first brought up to the
    /// snapshot, replica and index alike (session consistency, §II-C): the
    /// DN's clock absorbs `snapshot_ts`, its redo is shipped up to a token
    /// that covers every commit the snapshot may see, and each consumer
    /// waits until it has applied that token. An index that does not get
    /// there is left out, and the row store answers for its table.
    pub(crate) fn provider_at(
        &self,
        snapshot_ts: u64,
        use_ro: bool,
        mut indexes: HashMap<String, Arc<ColumnIndexMaintainer>>,
    ) -> ClusterProvider {
        const CATCH_UP: Duration = Duration::from_millis(200);
        let mut engines: HashMap<NodeId, Arc<StorageEngine>> = HashMap::new();
        for (&id, dn) in &self.dns {
            let ro = if use_ro { dn.rw.ros().into_iter().next() } else { None };
            if ro.is_some() || !indexes.is_empty() {
                dn.service.clock.update(HlcTimestamp::from_raw(snapshot_ts));
                let token = dn.rw.ship_for_snapshot(snapshot_ts, CATCH_UP);
                if let Some(ro) = &ro {
                    let _ = ro.wait_for(token, CATCH_UP);
                }
                indexes.retain(|_, index| index.wait_for(id, token, CATCH_UP).is_ok());
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
        self.shipper_stop.store(true, Ordering::Relaxed);
        self.placer_stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Value;
    use polardbx_optimizer::WorkloadClass;
    use polardbx_txn::WireWriteOp;

    fn cluster() -> PolarDbx {
        PolarDbx::build(ClusterConfig { dns: 3, default_shards: 6, ..Default::default() })
            .unwrap()
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
    fn rehome_shard_under_live_traffic() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 4",
        )
        .unwrap();
        for i in 0..40 {
            s.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, {i})")).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let s2 = db.connect(DcId(1));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, Option<Error>) {
                let mut applied = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let attempt = (|| -> Result<()> {
                        let (stid, dn, epoch) =
                            s2.route_fenced("t", &[Value::Int(0)])?;
                        let mut txn = s2.coordinator().begin();
                        txn.pin_epoch(stid, epoch)?;
                        txn.write(
                            dn,
                            stid,
                            polardbx_common::Key::encode(&[Value::Int(0)]),
                            WireWriteOp::Update(Row::new(vec![
                                Value::Int(0),
                                Value::Int(applied as i64),
                            ])),
                        )?;
                        txn.commit()?;
                        Ok(())
                    })();
                    match attempt {
                        Ok(()) => applied += 1,
                        Err(e) if e.is_retryable() => {}
                        Err(e) => return (applied, Some(e)),
                    }
                }
                (applied, None)
            })
        };
        // Move every shard to a different DN while the writer hammers.
        let schema = db.gms().table("t").unwrap();
        let dns: Vec<NodeId> = db.gms().dns();
        for shard in 0..4u32 {
            let cur = db.gms().shard_dn(schema.id, shard).unwrap();
            let dest = *dns.iter().find(|&&d| d != cur).unwrap();
            let pause = db.rehome_shard("t", shard, dest).unwrap();
            assert!(pause < Duration::from_secs(2), "cutover pause bounded");
            assert_eq!(db.gms().shard_dn(schema.id, shard).unwrap(), dest);
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        let (applied, fatal) = writer.join().unwrap();
        assert!(fatal.is_none(), "writer hit non-retryable error: {fatal:?}");
        assert!(applied > 0, "writer made progress across cutovers");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(db.count_rows("t").unwrap(), 40, "no rows lost or duplicated");
        db.shutdown();
    }

    /// The SQL DML path (not the explicit fenced-driver API above) under a
    /// live re-home, with every writer on the **same row**: snapshot
    /// isolation promises that concurrent `v = v + 1` statements serialize
    /// (first committer wins, the loser gets a retryable `WriteConflict`),
    /// and the routing fence that none of them lands on a detached old
    /// home. So the row must end at exactly the number of acked updates.
    #[test]
    fn sql_dml_survives_rehome_without_lost_updates() {
        use rand::{Rng, SeedableRng};
        let seed = polardbx_common::testseed::seed_from_env(0x5A1_D311);
        eprintln!(
            "core rehome seed: POLARDBX_TEST_SEED={}",
            polardbx_common::testseed::format_seed(seed)
        );
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 4",
        )
        .unwrap();
        for i in 0..8 {
            s.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, 0)")).unwrap();
        }
        const WRITERS: u64 = 3;
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                // One session per CN slot, so writers race across coordinators.
                let s2 = db.connect_nth(w as usize);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || -> (u64, Option<Error>) {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ w);
                    let mut applied = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match s2.execute("UPDATE t SET v = v + 1 WHERE id = 0") {
                            Ok(1) => applied += 1,
                            Ok(n) => {
                                return (
                                    applied,
                                    Some(Error::invalid(format!("matched {n} rows"))),
                                )
                            }
                            // Lost the row to another writer, or bounced off
                            // a cutover: back off a hair and go again.
                            Err(e) if e.is_retryable() => std::thread::sleep(
                                Duration::from_micros(rng.gen_range(20..200)),
                            ),
                            Err(e) => return (applied, Some(e)),
                        }
                    }
                    (applied, None)
                })
            })
            .collect();
        let schema = db.gms().table("t").unwrap();
        let dns: Vec<NodeId> = db.gms().dns();
        for _round in 0..2 {
            for shard in 0..4u32 {
                let cur = db.gms().shard_dn(schema.id, shard).unwrap();
                let dest = *dns.iter().find(|&&d| d != cur).unwrap();
                // A drain can time out retryably under the hammering writers.
                for attempt in 0.. {
                    match db.rehome_shard("t", shard, dest) {
                        Ok(_) => break,
                        Err(_) if attempt < 20 => {
                            std::thread::sleep(Duration::from_millis(2))
                        }
                        Err(e) => panic!("rehome never succeeded: {e:?}"),
                    }
                }
                assert_eq!(db.gms().shard_dn(schema.id, shard).unwrap(), dest);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let mut acked = 0u64;
        for (w, writer) in writers.into_iter().enumerate() {
            let (applied, fatal) = writer.join().unwrap();
            assert!(fatal.is_none(), "SQL writer {w} hit non-retryable error: {fatal:?}");
            acked += applied;
        }
        assert!(acked > 0, "writers made progress across cutovers");
        // HLC orders what is causally related: this session's CN took no
        // part in the other CN's last commits, so its snapshot is certain
        // to cover them only once its physical clock passes their tick.
        std::thread::sleep(Duration::from_millis(2));
        let rows = s.query("SELECT v FROM t WHERE id = 0").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get(0).unwrap(),
            &Value::Int(acked as i64),
            "final v must equal the sum of acked UPDATEs (seed {seed:#x})"
        );
        db.shutdown();
    }

    #[test]
    fn placer_converts_cross_dn_txns_to_one_phase() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE p (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 6",
        )
        .unwrap();
        for i in 0..12 {
            s.execute(&format!("INSERT INTO p (id, v) VALUES ({i}, 0)")).unwrap();
        }
        // Pick two ids whose shards live on different DNs.
        let (a, b) = (0..12i64)
            .flat_map(|x| (0..12i64).map(move |y| (x, y)))
            .find(|&(x, y)| {
                x != y
                    && s.route("p", &[Value::Int(x)]).unwrap().1
                        != s.route("p", &[Value::Int(y)]).unwrap().1
            })
            .expect("some pair crosses DNs");
        db.start_placer(PlacerConfig {
            interval: Duration::from_millis(20),
            planner: PlannerConfig { max_moves: 4, min_edge_weight: 4, balance_slack: 10.0 },
            rehome: RehomeConfig {
                min_gap: Duration::from_millis(5),
                max_per_pass: 2,
            },
        });
        let metrics = Arc::clone(db.txn_metrics());
        let commit_pair = |val: i64| -> Result<bool> {
            let before_1pc = metrics.one_phase_commits.get();
            let (ta, da, ea) = s.route_fenced("p", &[Value::Int(a)])?;
            let (tb, dbn, eb) = s.route_fenced("p", &[Value::Int(b)])?;
            let mut txn = s.coordinator().begin();
            txn.pin_epoch(ta, ea)?;
            txn.pin_epoch(tb, eb)?;
            txn.write(
                da,
                ta,
                polardbx_common::Key::encode(&[Value::Int(a)]),
                WireWriteOp::Update(Row::new(vec![Value::Int(a), Value::Int(val)])),
            )?;
            txn.write(
                dbn,
                tb,
                polardbx_common::Key::encode(&[Value::Int(b)]),
                WireWriteOp::Update(Row::new(vec![Value::Int(b), Value::Int(val)])),
            )?;
            txn.commit()?;
            Ok(metrics.one_phase_commits.get() > before_1pc)
        };
        let deadline = polardbx_common::time::mono_now() + Duration::from_secs(20);
        let mut converged = false;
        let mut i = 0i64;
        while polardbx_common::time::mono_now() < deadline {
            i += 1;
            match commit_pair(i) {
                Ok(true) if metrics.rehomes_applied.get() > 0 => {
                    converged = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => assert!(e.is_retryable(), "unexpected error: {e:?}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            converged,
            "placer failed to colocate the hot pair (rehomes={}, 1pc={}, 2pc={})",
            metrics.rehomes_applied.get(),
            metrics.one_phase_commits.get(),
            metrics.two_phase_commits.get(),
        );
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
