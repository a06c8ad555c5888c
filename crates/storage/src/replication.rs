//! RW→RO replication within a PolarDB instance (§II-C).
//!
//! The RW node flushes redo to its sink; RO nodes apply the log range to
//! their engines and keep their consumed offset `lsn_ROi`, and the RW
//! purges log below `min(lsn_ROi)`. Session consistency: a read that needs
//! a replica ships first, and [`RwNode::ship`] returns once every consumer
//! has applied the range, on the reader's own thread.
//!
//! The shipped log range is decoded once ([`TxnAssembler`]) and its
//! committed transactions go to every [`RedoConsumer`] of the node: the RO
//! replicas, and whoever else subscribed (the column indexes, §VI-E).

use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use polardbx_common::time::mono_now;
use polardbx_common::{Error, Key, Lsn, NodeId, Result, Row, TableId, TenantId};
use polardbx_wal::{LocalEpochSink, LogBuffer, LogSink, VecSink};

use crate::engine::StorageEngine;
use crate::feed::{CommittedTxn, RedoConsumer, TxnAssembler};
use crate::mvcc::VersionStore;
use crate::recovery::{recovered_engine, RecoveryReport};

/// Session-consistency token: the RW LSN the client last observed. Reads
/// routed to an RO must wait until the replica has applied at least this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SessionToken(pub Lsn);

/// A read-only replica node.
pub struct RoNode {
    /// Node id.
    pub id: NodeId,
    /// The replica's engine (applied state).
    pub engine: Arc<StorageEngine>,
    /// Tables whose store this replica shares with its RW by reference
    /// (they arrived through a hand-off). The RW's commits are already in
    /// such a store; applying the feed to it would write each one twice.
    shared: RwLock<HashSet<TableId>>,
    applied: AtomicU64,
    /// Artificial per-batch apply delay for lag-injection tests.
    apply_delay: Mutex<Duration>,
}

impl RoNode {
    fn new(id: NodeId) -> Arc<RoNode> {
        Arc::new(RoNode {
            id,
            engine: StorageEngine::in_memory(),
            shared: RwLock::new(HashSet::new()),
            applied: AtomicU64::new(0),
            apply_delay: Mutex::new(Duration::ZERO),
        })
    }

    /// LSN applied so far (`lsn_ROi`).
    pub fn applied_lsn(&self) -> Lsn {
        Lsn(self.applied.load(Ordering::Acquire))
    }

    /// Inject apply slowness (models CPU/network congestion on the RO).
    pub fn set_apply_delay(&self, d: Duration) {
        *self.apply_delay.lock() = d;
    }


    /// Snapshot read at the replica's current applied snapshot, honouring a
    /// session token: waits until `token` is applied (§II-C session
    /// consistency), then reads at the replica's latest version.
    pub fn read(
        &self,
        table: TableId,
        key: &Key,
        token: SessionToken,
        timeout: Duration,
    ) -> Result<Option<Row>> {
        self.wait_for(token, timeout)?;
        self.engine.read(table, key, u64::MAX, None)
    }

    /// Block until the replica has applied `token`.
    pub fn wait_for(&self, token: SessionToken, timeout: Duration) -> Result<()> {
        let deadline = mono_now() + timeout;
        while self.applied_lsn() < token.0 {
            if mono_now() >= deadline {
                return Err(Error::Timeout { what: format!("RO catch-up to {}", token.0) });
            }
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Hold `table` by reference to the RW's own store.
    fn share_table(&self, table: TableId, store: Arc<VersionStore>) {
        self.shared.write().insert(table);
        self.engine.attach_table(table, store);
    }
}

impl RedoConsumer for RoNode {
    fn consume(&self, _source: NodeId, through: Lsn, txns: &[CommittedTxn]) {
        let d = *self.apply_delay.lock();
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        let shared = self.shared.read();
        for txn in txns {
            self.engine.apply_committed_where(txn, |table| !shared.contains(&table));
        }
        self.applied.fetch_max(through.raw(), Ordering::AcqRel);
    }
}

/// How long [`RwNode::hand_off`] waits for in-flight write sets to drain.
const HAND_OFF_DRAIN: Duration = Duration::from_secs(2);

/// How far the node's log has been shipped, and the transactions that
/// prefix left undecided. One lock: a batch is decoded and handed to every
/// consumer before the next one starts, so consumers see log order.
#[derive(Default)]
struct Feed {
    shipped: Lsn,
    assembler: TxnAssembler,
}

/// The read-write node: owns the authoritative engine and the redo feed.
pub struct RwNode {
    /// Node id.
    pub id: NodeId,
    /// The RW engine.
    pub engine: Arc<StorageEngine>,
    log: Arc<LogBuffer>,
    sink: Arc<VecSink>,
    ros: RwLock<Vec<Arc<RoNode>>>,
    /// Feed consumers besides the replicas; one that was dropped is
    /// forgotten at the next ship.
    subscribers: RwLock<Vec<Weak<dyn RedoConsumer>>>,
    feed: Mutex<Feed>,
    next_ro: AtomicU64,
    /// Mirror of the node's tables so new ROs can register them, and
    /// whether each arrived by reference (a hand-off) or was created here.
    tables: Mutex<Vec<(TableId, bool)>>,
}

impl RwNode {
    /// A fresh RW node.
    pub fn new(id: NodeId) -> Arc<RwNode> {
        let sink = VecSink::new();
        let log = LogBuffer::new(sink.clone() as Arc<dyn LogSink>);
        let engine = StorageEngine::with_durability(LocalEpochSink::new(Arc::clone(&log)));
        Arc::new(RwNode {
            id,
            engine,
            log,
            sink,
            ros: RwLock::new(Vec::new()),
            subscribers: RwLock::new(Vec::new()),
            feed: Mutex::new(Feed::default()),
            next_ro: AtomicU64::new(id.raw() * 100 + 1),
            tables: Mutex::new(Vec::new()),
        })
    }

    /// Add an RO replica. The replica starts empty and catches up from the
    /// start of the log — "add RO nodes … in minutes" because no table data
    /// is copied, only log applied (here: instantaneous at test scale). A
    /// table that was handed to this node has no history in this node's
    /// log; the replica shares its store, as the older replicas do.
    pub fn add_ro(&self) -> Arc<RoNode> {
        let ro = RoNode::new(NodeId(self.next_ro.fetch_add(1, Ordering::Relaxed)));
        // Mirror table registrations.
        for (table, by_reference) in self.tables.lock().clone() {
            match self.engine.store(table) {
                Ok(store) if by_reference => ro.share_table(table, store),
                _ => ro.engine.create_table(table, TenantId::default()),
            }
        }
        // Catch the newcomer up to everything already shipped, holding the
        // feed so a concurrent ship cannot slip a batch past us. What that
        // prefix left undecided the node's assembler holds too, so the
        // batches to come carry those transactions whole.
        let feed = self.feed.lock();
        if feed.shipped > Lsn::ZERO {
            let prefix = Bytes::from(self.sink.range(Lsn::ZERO, feed.shipped));
            let txns = TxnAssembler::default().feed(prefix).unwrap_or_default();
            ro.consume(self.id, feed.shipped, &txns);
        }
        self.ros.write().push(Arc::clone(&ro));
        drop(feed);
        // And anything flushed but not yet shipped.
        self.ship();
        ro
    }

    /// Subscribe `consumer` to the feed: it receives, whole, every
    /// transaction whose commit record lies above what is flushed now. The
    /// log below that is decoded first, consumers or not: the assembler has
    /// to know which transactions that prefix left undecided. The node
    /// holds `consumer` weakly; dropping it ends the subscription.
    pub fn subscribe(&self, consumer: &Arc<dyn RedoConsumer>) {
        let mut feed = self.feed.lock();
        self.advance(&mut feed, &self.consumers());
        self.subscribers.write().push(Arc::downgrade(consumer));
    }

    /// Raw contents of the node's redo log (tests/debugging).
    pub fn log_sink_bytes(&self) -> Vec<u8> {
        self.sink.contiguous()
    }

    /// The durable medium under the node's log: what survives a crash and
    /// what [`RwNode::restart`] recovers from. A harness that puts a sink of
    /// its own under the engine's pipeline writes through to this one.
    pub fn log_sink(&self) -> &Arc<VecSink> {
        &self.sink
    }

    /// Amnesia restart: a new node over this one's durable log, its engine
    /// rebuilt from that log alone ([`recovered_engine`]) with the
    /// tables this node created, and taking over this node's replicas, feed
    /// subscribers and shipping position — the feed only ever shipped what
    /// the log made durable. A table handed to this node by reference has
    /// history in another node's log, so a node holding one is refused.
    pub fn restart(&self) -> Result<(Arc<RwNode>, RecoveryReport)> {
        let tables = self.tables.lock().clone();
        if tables.iter().any(|&(_, by_reference)| by_reference) {
            return Err(Error::execution(format!(
                "{}: a table handed here by reference cannot be recovered from this log",
                self.id
            )));
        }
        let ids: Vec<TableId> = tables.iter().map(|&(table, _)| table).collect();
        let (log, engine, report) = recovered_engine(Arc::clone(&self.sink), &ids)?;
        engine.record_like(&self.engine);
        // The feed's position moves to the new node; a reader still holding
        // this one ships nothing more from it, so nothing is applied twice.
        let stopped = Feed { shipped: Lsn::MAX, ..Feed::default() };
        let feed = std::mem::replace(&mut *self.feed.lock(), stopped);
        let subscribers = self.subscribers.read().clone();
        let node = RwNode {
            id: self.id,
            engine,
            log,
            sink: Arc::clone(&self.sink),
            ros: RwLock::new(self.ros()),
            subscribers: RwLock::new(subscribers),
            feed: Mutex::new(feed),
            next_ro: AtomicU64::new(self.next_ro.load(Ordering::Relaxed)),
            tables: Mutex::new(tables),
        };
        Ok((Arc::new(node), report))
    }

    /// Registered RO replicas.
    pub fn ros(&self) -> Vec<Arc<RoNode>> {
        self.ros.read().clone()
    }

    /// Current RW LSN (`LSN_RW`) — the session token new reads should carry.
    pub fn session_token(&self) -> SessionToken {
        SessionToken(self.log.flushed())
    }

    /// Broadcast new log to the feed's consumers (step ④/⑤ of Fig 3);
    /// returns the shipped-through LSN. With no consumer nothing is read or
    /// decoded: the feed stays where it is until one arrives.
    pub fn ship(&self) -> Lsn {
        let mut feed = self.feed.lock();
        self.ship_locked(&mut feed);
        feed.shipped
    }

    fn ship_locked(&self, feed: &mut Feed) {
        let consumers = self.consumers();
        if !consumers.is_empty() {
            self.advance(feed, &consumers);
        }
    }

    /// The live replicas and subscribers.
    fn consumers(&self) -> Vec<Arc<dyn RedoConsumer>> {
        let mut subscribers = self.subscribers.write();
        subscribers.retain(|s| s.strong_count() > 0);
        let ros = self.ros.read();
        ros.iter()
            .map(|ro| Arc::clone(ro) as Arc<dyn RedoConsumer>)
            .chain(subscribers.iter().filter_map(Weak::upgrade))
            .collect()
    }

    /// Decode the unshipped tail once and hand its committed transactions
    /// to `consumers`, each of which applies them before this returns.
    /// Only that tail is copied, so a ship costs O(new bytes).
    fn advance(&self, feed: &mut Feed, consumers: &[Arc<dyn RedoConsumer>]) {
        let head = self.log.flushed();
        if head > feed.shipped {
            let batch = Bytes::from(self.sink.range(feed.shipped, head));
            let txns = feed.assembler.feed(batch).unwrap_or_default();
            for consumer in consumers {
                consumer.consume(self.id, head, &txns);
            }
            feed.shipped = head;
        }
    }

    /// Ship until the feed holds every commit a snapshot at `snapshot_ts`
    /// may see: what is flushed now, plus the decision of each transaction
    /// the log shows PREPARED at or below `snapshot_ts` — phase two of a
    /// commit is posted after its client was answered, so an acknowledged
    /// commit can still be undecided here. The caller has already moved
    /// the node's clock past `snapshot_ts`, so nothing prepared from now on
    /// commits below it. Returns whether the feed got there; `false` once
    /// a decision is still missing after `timeout`.
    pub fn ship_for_snapshot(&self, snapshot_ts: u64, timeout: Duration) -> bool {
        let deadline = mono_now() + timeout;
        loop {
            let mut feed = self.feed.lock();
            self.ship_locked(&mut feed);
            if !feed.assembler.in_doubt_at(snapshot_ts) {
                return true;
            }
            if mono_now() >= deadline {
                return false;
            }
            drop(feed);
            std::thread::yield_now();
        }
    }

    /// The log purge horizon: `min(lsn_ROi)` (step ⑧ of Fig 3).
    pub fn purge_horizon(&self) -> Lsn {
        self.ros
            .read()
            .iter()
            .map(|r| r.applied_lsn())
            .min()
            .unwrap_or_else(|| self.log.flushed())
    }

    /// Create a table on the RW and all replicas.
    pub fn create_table(&self, table: TableId) {
        self.engine.create_table(table, TenantId::default());
        self.tables.lock().push((table, false));
        for ro in self.ros.read().iter() {
            ro.engine.create_table(table, TenantId::default());
        }
    }

    /// Attach an existing store (shard/tenant arriving from another node
    /// over shared storage). The replicas share the same store by
    /// reference: they only read, and MVCC versions carry their commit
    /// timestamps, so shared access is consistent.
    pub(crate) fn attach_table(&self, table: TableId, store: Arc<VersionStore>) {
        self.engine.attach_table(table, Arc::clone(&store));
        self.tables.lock().push((table, true));
        for ro in self.ros.read().iter() {
            ro.share_table(table, Arc::clone(&store));
        }
    }

    /// Detach a table from the RW and its replicas, returning the store.
    pub fn detach_table(&self, table: TableId) -> Option<Arc<VersionStore>> {
        self.tables.lock().retain(|(t, _)| *t != table);
        for ro in self.ros.read().iter() {
            ro.shared.write().remove(&table);
            ro.engine.detach_table(table);
        }
        self.engine.detach_table(table)
    }

    /// The data-node half of a live cutover (§V tenant transfer, §VIII shard
    /// re-home): hand `tables` over to `dst` by reference over shared
    /// storage — zero rows copied. The caller has paused the tables'
    /// routing and drained what it admitted; afterwards it raises `dst`'s
    /// clock and rebinds. On an error nothing moved and every table is open
    /// for writes here again.
    pub fn hand_off(&self, dst: &RwNode, tables: &[TableId]) -> Result<()> {
        // Engine-level write freeze on top of the routing pause: a write
        // already past routing when the pause began would otherwise install
        // an intent between the drain below and the detach, stranding it
        // inside the moved store.
        for &table in tables {
            self.engine.freeze_writes(table);
        }
        // Wait until no in-flight write set touches these tables. The engine
        // may answer "in flight" for a moment with none left (any commit
        // caught between its two context maps counts), hence always a wait,
        // never a single look.
        let drained = |what: &str| -> Result<()> {
            let deadline = mono_now() + HAND_OFF_DRAIN;
            while tables.iter().any(|&t| self.engine.has_active_writes_on(t)) {
                if mono_now() > deadline {
                    return Err(Error::Timeout { what: what.into() });
                }
                std::thread::yield_now();
            }
            Ok(())
        };
        // The cutover body runs in a closure so every exit — success or any
        // error, including `?` propagation — flows through the single
        // unfreeze below. A table left frozen bounces every write
        // retryably forever: a permanent livelock.
        let cutover = || -> Result<()> {
            // Async phase-two tail: wait for posted Commit/Abort deliveries
            // to consume every in-flight write set on these tables.
            drained("draining shard write sets")?;
            // Writes are frozen and the drain passed: re-verify, right
            // before the detach, that nothing slipped in.
            drained("late write set on shard")?;
            // All or nothing: find every store before the first detach.
            let stores: Vec<_> =
                tables.iter().map(|&t| Ok((t, self.engine.store(t)?))).collect::<Result<_>>()?;
            for &table in tables {
                self.detach_table(table);
            }
            // The tables' later commits arrive on the destination's feed.
            // A commit stays in the engine's unstable set until the epoch
            // holding its record is flushed, and the drain above waited
            // that set out, so shipping the source's tail now — before the
            // destination can take a write — hands a column index every
            // image of a key in commit order.
            self.ship();
            for (table, store) in stores {
                dst.attach_table(table, store);
            }
            Ok(())
        };
        let result = cutover();
        for &table in tables {
            self.engine.unfreeze_writes(table);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WriteOp;
    use polardbx_common::{TrxId, Value};

    impl RwNode {
        /// Convenience write path: run a single-row transaction and ship.
        fn execute_write(
            &self,
            trx: TrxId,
            snapshot_ts: u64,
            commit_ts: u64,
            table: TableId,
            key: Key,
            op: WriteOp,
        ) -> Result<Lsn> {
            self.engine.begin(trx, snapshot_ts);
            if let Err(e) = self.engine.write(trx, table, key, op) {
                self.engine.abort(trx);
                return Err(e);
            }
            let lsn = self.engine.commit(trx, commit_ts)?;
            self.ship();
            Ok(lsn)
        }
    }

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64, v: &str) -> Row {
        Row::new(vec![Value::Int(n), Value::str(v)])
    }

    const T: TableId = TableId(1);
    const T2: TableId = TableId(2);

    #[test]
    fn ro_applies_rw_commits() {
        let rw = RwNode::new(NodeId(1));
        rw.create_table(T);
        let ro = rw.add_ro();
        rw.execute_write(TrxId(1), 0, 10, T, key(1), WriteOp::Insert(row(1, "x"))).unwrap();
        let token = rw.session_token();
        let got = ro.read(T, &key(1), token, Duration::from_secs(1)).unwrap();
        assert_eq!(got, Some(row(1, "x")));
    }

    #[test]
    fn late_ro_catches_up_on_join() {
        let rw = RwNode::new(NodeId(1));
        rw.create_table(T);
        rw.execute_write(TrxId(1), 0, 10, T, key(1), WriteOp::Insert(row(1, "pre"))).unwrap();
        let ro = rw.add_ro();
        let token = rw.session_token();
        assert_eq!(
            ro.read(T, &key(1), token, Duration::from_secs(1)).unwrap(),
            Some(row(1, "pre"))
        );
    }

    #[test]
    fn session_consistency_waits() {
        let rw = RwNode::new(NodeId(1));
        rw.create_table(T);
        let ro = rw.add_ro();
        ro.set_apply_delay(Duration::from_millis(30));
        // Write commits on RW; shipping happens on a helper thread so the
        // read below races the apply.
        let rw2 = Arc::clone(&rw);
        let writer = std::thread::spawn(move || {
            rw2.execute_write(TrxId(1), 0, 10, T, key(1), WriteOp::Insert(row(1, "sc")))
                .unwrap();
            rw2.session_token()
        });
        let token = writer.join().unwrap();
        // Session read must block until the delayed apply lands.
        let got = ro.read(T, &key(1), token, Duration::from_secs(2)).unwrap();
        assert_eq!(got, Some(row(1, "sc")));
    }

    #[test]
    fn stale_token_times_out() {
        let rw = RwNode::new(NodeId(1));
        rw.create_table(T);
        let ro = rw.add_ro();
        let future = SessionToken(Lsn(1_000_000));
        assert!(matches!(
            ro.wait_for(future, Duration::from_millis(20)),
            Err(Error::Timeout { .. })
        ));
    }

    #[test]
    fn purge_horizon_is_min_applied() {
        let rw = RwNode::new(NodeId(1));
        rw.create_table(T);
        let r1 = rw.add_ro();
        let _r2 = rw.add_ro();
        rw.execute_write(TrxId(1), 0, 10, T, key(1), WriteOp::Insert(row(1, "a"))).unwrap();
        assert_eq!(rw.purge_horizon(), rw.log.flushed());
        // Hold one replica back.
        r1.applied.store(1, Ordering::Release);
        assert_eq!(rw.purge_horizon(), Lsn(1));
    }

    #[test]
    fn hand_off_moves_the_stores_by_reference() {
        let (src, dst) = (RwNode::new(NodeId(1)), RwNode::new(NodeId(2)));
        let dst_ro = dst.add_ro();
        for t in [T, T2] {
            src.create_table(t);
            src.execute_write(TrxId(t.raw()), 0, 10, t, key(1), WriteOp::Insert(row(1, "x")))
                .unwrap();
        }
        // Another tenant's open transaction is not this hand-off's business.
        src.create_table(TableId(3));
        src.engine.begin(TrxId(9), 10);
        src.engine.write(TrxId(9), TableId(3), key(1), WriteOp::Insert(row(1, "other"))).unwrap();

        src.hand_off(&dst, &[T, T2]).unwrap();
        for t in [T, T2] {
            assert!(matches!(src.engine.read(t, &key(1), 20, None), Err(Error::UnknownTable { .. })));
            assert_eq!(dst.engine.read(t, &key(1), 20, None).unwrap(), Some(row(1, "x")));
            assert_eq!(dst_ro.engine.read(t, &key(1), 20, None).unwrap(), Some(row(1, "x")));
        }
        dst.execute_write(TrxId(7), 20, 30, T, key(2), WriteOp::Insert(row(2, "y"))).unwrap();
        src.engine.commit(TrxId(9), 40).unwrap();
        // The replicas hold the moved stores by reference: the feed must not
        // write the destination's commit into the shared store a second
        // time, and a replica added now shares the store like the old one.
        let late_ro = dst.add_ro();
        dst.execute_write(TrxId(8), 30, 40, T, key(2), WriteOp::Update(row(2, "z"))).unwrap();
        let store = dst.engine.store(T).unwrap();
        assert_eq!(store.version_count(), 3, "x, y, z: one version per commit");
        for ro in [&dst_ro, &late_ro] {
            assert!(Arc::ptr_eq(&ro.engine.store(T).unwrap(), &store));
            let token = dst.session_token();
            assert_eq!(ro.read(T, &key(2), token, Duration::from_secs(1)).unwrap(), Some(row(2, "z")));
        }
    }

    #[test]
    fn hand_off_with_an_open_write_set_times_out_and_moves_nothing() {
        let (src, dst) = (RwNode::new(NodeId(1)), RwNode::new(NodeId(2)));
        for t in [T, T2] {
            src.create_table(t);
        }
        src.engine.begin(TrxId(1), 0);
        src.engine.write(TrxId(1), T2, key(1), WriteOp::Insert(row(1, "open"))).unwrap();

        let err = src.hand_off(&dst, &[T, T2]).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }), "{err:?}");
        for t in [T, T2] {
            assert!(matches!(dst.engine.read(t, &key(1), 20, None), Err(Error::UnknownTable { .. })));
        }
        // Still attached at the source, and open for writes again.
        src.execute_write(TrxId(2), 0, 10, T, key(2), WriteOp::Insert(row(2, "after"))).unwrap();
        src.engine.commit(TrxId(1), 20).unwrap();
        assert_eq!(src.engine.read(T2, &key(1), 20, None).unwrap(), Some(row(1, "open")));
        // A missing table fails the hand-off before anything is detached.
        assert!(src.hand_off(&dst, &[T, TableId(99)]).is_err());
        assert_eq!(src.engine.read(T, &key(2), 20, None).unwrap(), Some(row(2, "after")));
    }

    #[test]
    fn scaling_read_throughput_with_ros() {
        // More replicas serve more reads without touching the RW engine:
        // all replicas return the same data independently.
        let rw = RwNode::new(NodeId(1));
        rw.create_table(T);
        for i in 0..10i64 {
            rw.execute_write(
                TrxId(i as u64 + 1),
                0,
                10 + i as u64,
                T,
                key(i),
                WriteOp::Insert(row(i, "v")),
            )
            .unwrap();
        }
        let ros: Vec<_> = (0..4).map(|_| rw.add_ro()).collect();
        let token = rw.session_token();
        for ro in &ros {
            for i in 0..10i64 {
                assert!(ro
                    .read(T, &key(i), token, Duration::from_secs(1))
                    .unwrap()
                    .is_some());
            }
        }
    }
}
