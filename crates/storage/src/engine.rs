//! The storage engine: transactions + redo over the MVCC store,
//! committing through one epoch pipeline.
//!
//! The engine is the kernel of a DN node. Every durability request —
//! commit, prepare, abort, marker — goes through its [`EpochPipeline`];
//! what differs between deployments is only the [`EpochSink`] under it:
//!
//! * standalone (tests, quickstart) and PolarDB basic (§II-C): a local log
//!   buffer ([`LocalEpochSink`]), RO nodes tailing the stream,
//! * PolarDB-X DN (§III): each epoch rides the Paxos group across
//!   datacenters (`polardbx::durability::PaxosEpochSink`).

use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use polardbx_common::{
    Error, HistoryRecorder, Key, Lsn, NodeId, Result, Row, TableId, TenantId, TrxId, TxnEvent,
};
use polardbx_wal::{
    EpochConfig, EpochListener, EpochPipeline, EpochSink, EpochTicket, LocalEpochSink, LogBuffer,
    LogSink, Mtr, RedoPayload, VecSink, WalMetrics,
};

use crate::feed::{CommittedTxn, RowChange, TxnAssembler};
use crate::mvcc::{VersionOp, VersionStore};
use crate::rowcodec::encode_row;
use crate::shard::ShardedMap;
use crate::txn::TxnTable;

/// The local-log sink under the name `benchmark/src/layers.rs` imports.
/// Goes with ROADMAP step 2-A, when `benchmark/` may be edited.
pub type SyncLocalDurability = LocalEpochSink;

/// A logical write operation on a row.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Insert a new row (duplicate key on existing visible row).
    Insert(Row),
    /// Overwrite the row (upsert semantics at the storage layer).
    Update(Row),
    /// Delete the row.
    Delete,
}

struct TrxCtx {
    snapshot_ts: u64,
    /// (table, key) pairs written, for commit/abort stamping.
    writes: Vec<(TableId, Key)>,
    /// Redo accumulated, shipped at prepare/commit.
    redo: Vec<Mtr>,
}

/// What a torn-epoch rollback needs about an early-released commit: which
/// versions to demote and whether the decision is externally durable.
struct UnstableCtx {
    snapshot_ts: u64,
    commit_ts: u64,
    writes: Vec<(TableId, Key)>,
    /// 2PC phase two: every participant voted yes, so the decision stands
    /// and a torn epoch reverts the transaction to PREPARED instead of
    /// aborting it.
    decided: bool,
    prepare_ts: u64,
}

/// Bridges epoch resolution back into the engine: stability lifts the
/// read gate, failure rolls early-released commits back. Holds a `Weak`:
/// the engine owns the pipeline that owns this.
struct EngineEpochListener {
    engine: std::sync::Weak<StorageEngine>,
}

impl EpochListener for EngineEpochListener {
    fn epoch_stable(&self, txns: &[TrxId], end: Lsn) {
        let Some(engine) = self.engine.upgrade() else { return };
        // Redo-ahead invariant that crash recovery depends on: no commit
        // may be acked, or its stamp shown to a gated reader, before the
        // sink has acknowledged the epoch holding its commit record. A
        // crash in the gap would ack a commit replay can never
        // reconstruct — a silent RPO violation.
        let durable = engine.pipe.durable_lsn();
        assert!(
            end <= durable,
            "epoch ending at {end:?} declared stable above the durable horizon {durable:?}"
        );
        engine.txns.mark_stable_batch(txns);
        // The history learns of a commit here, not at the early stamp: an
        // epoch that tears rolls the stamp back, and a commit nobody could
        // observe followed by an abort would read as a lost write.
        let tap = engine.tap();
        for t in txns {
            if let (Some(ctx), Some(tap)) = (engine.unstable_ctx.remove(t), &tap) {
                let (trx, commit_ts) = (*t, ctx.commit_ts);
                tap.rec.record(TxnEvent::Commit { trx, node: tap.node, commit_ts });
            }
        }
    }

    fn epoch_failed(&self, txns: &[TrxId], err: &Error) {
        let Some(engine) = self.engine.upgrade() else { return };
        for t in txns {
            engine.fail_unstable(*t, err);
        }
    }
}

/// A transaction's accumulated row redo, into the open epoch's arena.
fn encode_redo(redo: &[Mtr], buf: &mut Vec<u8>) {
    for record in redo.iter().flat_map(Mtr::records) {
        record.encode(buf);
    }
}

/// Marks a commit whose context is on its way from `active` to
/// `unstable_ctx` (or back), in neither map: see
/// [`StorageEngine::has_active_writes_on`].
struct Transit<'a>(&'a AtomicU64);

impl Drop for Transit<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A history tap installed on an engine: where events go, which node the
/// engine plays, and whether reads here are replica (apply-order) reads.
#[derive(Clone)]
struct RecorderTap {
    rec: Arc<HistoryRecorder>,
    node: NodeId,
    replica: bool,
}

/// The DN storage engine.
pub struct StorageEngine {
    /// Transaction table shared with readers.
    pub txns: Arc<TxnTable>,
    tables: RwLock<HashMap<TableId, Arc<VersionStore>>>,
    /// In-flight transaction contexts, lock-sharded: every begin, write,
    /// commit and abort touches this map, and a single global mutex would
    /// serialize committers before they ever reach the pipeline.
    active: ShardedMap<TrxId, TrxCtx>,
    /// The one commit path: every redo record of this engine goes through it.
    pipe: Arc<EpochPipeline>,
    wait_timeout: Duration,
    /// Fast-path flag for the history tap: the hot path pays one relaxed
    /// load when recording is off (the common case).
    recording: AtomicBool,
    recorder: Mutex<Option<RecorderTap>>,
    /// Checker-validation mutation: treat PREPARED writers as invisible
    /// instead of waiting (reads below the snapshot watermark).
    ignore_prepared_reads: AtomicBool,
    /// Early-released commits awaiting their epoch's durability horizon;
    /// the torn-epoch rollback consumes these.
    unstable_ctx: ShardedMap<TrxId, UnstableCtx>,
    /// Commits that started, and finished, moving their context between
    /// `active` and `unstable_ctx`.
    transits: (AtomicU64, AtomicU64),
    /// Shard tables frozen for a re-home cutover. New writes bounce
    /// retryably, and the write path installs intents under a read guard
    /// on this set, so once `freeze_writes` returns no intent can land
    /// unseen between the cutover's write-set drain and the store detach.
    write_frozen: RwLock<HashSet<TableId>>,
}

impl StorageEngine {
    /// An engine logging to an in-memory sink (tests and single-node uses).
    pub fn in_memory() -> Arc<StorageEngine> {
        Self::with_sink(VecSink::new())
    }

    /// An engine logging locally to `sink`.
    pub fn with_sink(sink: Arc<dyn LogSink>) -> Arc<StorageEngine> {
        Self::with_durability(LocalEpochSink::new(LogBuffer::new(sink)))
    }

    /// An engine whose epochs persist through `sink` (a local log, a Paxos
    /// group). The name is the one `benchmark/` calls, kept until ROADMAP
    /// step 2-A.
    pub fn with_durability(sink: Arc<dyn EpochSink>) -> Arc<StorageEngine> {
        Arc::new_cyclic(|engine| {
            let listener = Arc::new(EngineEpochListener { engine: engine.clone() });
            StorageEngine {
                txns: Arc::new(TxnTable::new()),
                tables: RwLock::new(HashMap::new()),
                active: ShardedMap::new(),
                pipe: EpochPipeline::new(sink, listener, EpochConfig::default()),
                wait_timeout: Duration::from_secs(5),
                recording: AtomicBool::new(false),
                recorder: Mutex::new(None),
                ignore_prepared_reads: AtomicBool::new(false),
                unstable_ctx: ShardedMap::new(),
                transits: (AtomicU64::new(0), AtomicU64::new(0)),
                write_frozen: RwLock::new(HashSet::new()),
            }
        })
    }

    /// Put another sink under this engine's pipeline (a Paxos group in
    /// place of the local log) before it takes traffic; what was submitted
    /// so far is persisted through the old sink first.
    pub fn enable_epoch(&self, sink: Arc<dyn EpochSink>, cfg: EpochConfig) -> Arc<EpochPipeline> {
        self.pipe.replace_sink(sink, cfg);
        Arc::clone(&self.pipe)
    }

    /// The engine's commit pipeline: where [`StorageEngine::commit_pipelined`]
    /// tickets resolve.
    pub fn pipeline(&self) -> &Arc<EpochPipeline> {
        &self.pipe
    }

    /// Install a history tap: MVCC reads, writes, commit stamps and aborts
    /// on this engine are recorded to `rec` attributed to `node`. `replica`
    /// marks apply-order (RO) engines so the checker treats their reads
    /// with read-atomicity rules only.
    pub fn set_recorder(&self, rec: Arc<HistoryRecorder>, node: NodeId, replica: bool) {
        *self.recorder.lock() = Some(RecorderTap { rec, node, replica });
        self.recording.store(true, Ordering::Release);
    }

    /// Record to whatever `other` records to, as the same node (an amnesia
    /// restart keeps the history a checker is taking).
    pub(crate) fn record_like(&self, other: &StorageEngine) {
        if let Some(tap) = other.tap() {
            self.set_recorder(tap.rec, tap.node, tap.replica);
        }
    }

    /// The installed tap, if recording is on. Clones the `Arc` out so the
    /// recorder mutex is never held across a `record` call.
    fn tap(&self) -> Option<RecorderTap> {
        if !self.recording.load(Ordering::Acquire) {
            return None;
        }
        self.recorder.lock().clone()
    }

    /// Enable/disable the checker-validation mutation that makes snapshot
    /// reads skip PREPARED writers instead of waiting for their decision
    /// (§IV case 2 deliberately broken). Never use outside `sitcheck`
    /// mutation runs.
    pub fn set_ignore_prepared_reads(&self, on: bool) {
        self.ignore_prepared_reads.store(on, Ordering::Release);
    }

    /// The pipeline's metrics. Always `Some`: the `Option` is the shape
    /// `benchmark/` reads, kept until ROADMAP step 2-A.
    pub fn wal_metrics(&self) -> Option<Arc<WalMetrics>> {
        Some(Arc::clone(&self.pipe.metrics))
    }

    /// Create an empty table. Storage keeps no tenant: the GMS catalog
    /// owns that. The parameter is the signature `benchmark/src/layers.rs`
    /// calls, kept until ROADMAP step 2-A.
    pub fn create_table(&self, table: TableId, _tenant: TenantId) {
        self.tables.write().entry(table).or_insert_with(|| Arc::new(VersionStore::new()));
    }

    /// Attach an existing store (cutover destination / RO share).
    pub(crate) fn attach_table(&self, table: TableId, store: Arc<VersionStore>) {
        self.tables.write().insert(table, store);
    }

    /// Detach a table, returning its store (cutover source). The
    /// data itself never moves — that is the shared-storage guarantee.
    pub(crate) fn detach_table(&self, table: TableId) -> Option<Arc<VersionStore>> {
        self.tables.write().remove(&table)
    }

    /// Freeze new writes on `table` for a re-home cutover: until
    /// [`StorageEngine::unfreeze_writes`], writes bounce with a retryable
    /// error instead of installing an intent that the detach would strand
    /// inside the moved store. Acquiring the freeze-set write lock also
    /// waits out any write currently mid-install (the write path holds the
    /// read side across the install), so after this returns every intent
    /// on `table` is visible to [`StorageEngine::has_active_writes_on`].
    pub(crate) fn freeze_writes(&self, table: TableId) {
        self.write_frozen.write().insert(table);
    }

    /// Reopen `table` for writes after a cutover attempt (successful or
    /// bailed — every exit must reopen or the shard livelocks).
    pub(crate) fn unfreeze_writes(&self, table: TableId) {
        self.write_frozen.write().remove(&table);
    }

    pub(crate) fn store(&self, table: TableId) -> Result<Arc<VersionStore>> {
        self.tables
            .read()
            .get(&table)
            .cloned()
            .ok_or_else(|| Error::UnknownTable { name: format!("{table}") })
    }

    /// Begin a transaction with the given snapshot timestamp. Returns false,
    /// and begins nothing, for a transaction this engine already knows:
    /// one still running keeps its context, a decided one stays decided.
    pub fn begin(&self, trx: TrxId, snapshot_ts: u64) -> bool {
        let fresh = self.txns.begin(trx);
        if fresh {
            self.active.insert(trx, TrxCtx { snapshot_ts, writes: Vec::new(), redo: Vec::new() });
        }
        fresh
    }

    /// Execute a write op inside `trx`. Validates conflicts, installs the
    /// intent, accumulates redo.
    pub fn write(&self, trx: TrxId, table: TableId, key: Key, op: WriteOp) -> Result<()> {
        let store = self.store(table)?;
        let snapshot_ts = self
            .active
            .with(&trx, |c| c.map(|c| c.snapshot_ts))
            .ok_or(Error::TxnAborted { reason: format!("unknown trx {trx}") })?;
        let (version_op, redo) = match op {
            WriteOp::Insert(row) => {
                if store
                    .read_waiting(&self.txns, &key, snapshot_ts, Some(trx), self.wait_timeout)?
                    .is_some()
                {
                    return Err(Error::DuplicateKey { key: format!("{key}") });
                }
                let payload = RedoPayload::Insert {
                    trx,
                    table,
                    key: key.clone(),
                    row: encode_row(&row),
                };
                (VersionOp::Put(row), payload)
            }
            WriteOp::Update(row) => {
                let payload = RedoPayload::Update {
                    trx,
                    table,
                    key: key.clone(),
                    row: encode_row(&row),
                };
                (VersionOp::Put(row), payload)
            }
            WriteOp::Delete => {
                (VersionOp::Delete, RedoPayload::Delete { trx, table, key: key.clone() })
            }
        };
        // Clone what the history event needs only when a tap is installed.
        let tap = self.tap();
        let recorded = tap.as_ref().map(|_| {
            let row = match &version_op {
                VersionOp::Put(r) => Some(r.clone()),
                VersionOp::Delete => None,
            };
            (row, key.clone())
        });
        {
            // Intent install and write-set registration happen under the
            // freeze-set read guard: `freeze_writes` (write side) cannot
            // return while either is mid-flight, so a re-home cutover never
            // misses an intent in its drain, and a frozen table bounces
            // retryably before any intent exists.
            let frozen = self.write_frozen.read();
            if frozen.contains(&table) {
                return Err(Error::Throttled { rule: format!("rehome-freeze:{table}") });
            }
            store.write(&self.txns, trx, snapshot_ts, key.clone(), version_op)?;
            self.active.with(&trx, |ctx| {
                let ctx = ctx.ok_or(Error::TxnAborted { reason: format!("trx {trx} vanished") })?;
                ctx.writes.push((table, key));
                ctx.redo.push(Mtr::single(redo));
                Ok(())
            })?;
        }
        if let (Some(tap), Some((row, key))) = (tap, recorded) {
            tap.rec.record(TxnEvent::Write { trx, node: tap.node, table, key, row });
        }
        Ok(())
    }

    /// Snapshot point read (optionally inside a transaction).
    pub fn read(
        &self,
        table: TableId,
        key: &Key,
        snapshot_ts: u64,
        me: Option<TrxId>,
    ) -> Result<Option<Row>> {
        let store = self.store(table)?;
        let ignore_prepared = self.ignore_prepared_reads.load(Ordering::Acquire);
        let (row, observed) = store.read_waiting_observed(
            &self.txns,
            key,
            snapshot_ts,
            me,
            self.wait_timeout,
            ignore_prepared,
        )?;
        if let (Some(tap), Some(trx)) = (self.tap(), me) {
            tap.rec.record(TxnEvent::Read {
                trx,
                node: tap.node,
                table,
                key: key.clone(),
                snapshot_ts,
                observed,
                replica: tap.replica,
            });
        }
        Ok(row)
    }

    /// Snapshot range scan.
    pub fn scan(
        &self,
        table: TableId,
        lower: Bound<&Key>,
        upper: Bound<&Key>,
        snapshot_ts: u64,
        me: Option<TrxId>,
    ) -> Result<Vec<(Key, Row)>> {
        let store = self.store(table)?;
        let ignore_prepared = self.ignore_prepared_reads.load(Ordering::Acquire);
        let rows = store.scan_observed(
            &self.txns,
            lower,
            upper,
            snapshot_ts,
            me,
            self.wait_timeout,
            ignore_prepared,
        )?;
        if let (Some(tap), Some(trx)) = (self.tap(), me) {
            for (key, _, observed) in &rows {
                tap.rec.record(TxnEvent::Read {
                    trx,
                    node: tap.node,
                    table,
                    key: key.clone(),
                    snapshot_ts,
                    observed: Some(observed.clone()),
                    replica: tap.replica,
                });
            }
        }
        Ok(rows.into_iter().map(|(k, r, _)| (k, r)).collect())
    }

    /// Full-table snapshot scan.
    pub fn scan_table(&self, table: TableId, snapshot_ts: u64) -> Result<Vec<(Key, Row)>> {
        self.scan(table, Bound::Unbounded, Bound::Unbounded, snapshot_ts, None)
    }

    /// 2PC phase one: validate (already done at write time), mark PREPARED
    /// and make the transaction's redo + prepare record — with `peers`, the
    /// DNs the vote round went to — durable. The prepare timestamp is
    /// allocated inside the transaction table's critical section (see
    /// [`TxnTable::prepare_with`][crate::txn::TxnTable::prepare_with] for
    /// why the allocation must be atomic with the state transition readers
    /// consult); participants pass their HLC's `ClockAdvance` as `alloc`.
    pub fn prepare_with(
        &self,
        trx: TrxId,
        peers: &[NodeId],
        alloc: impl FnOnce() -> u64,
    ) -> Result<(u64, Lsn)> {
        let prepare_ts = self.txns.prepare_with(trx, alloc)?;
        let redo = self
            .active
            .with(&trx, |c| c.map(|c| std::mem::take(&mut c.redo)))
            .ok_or(Error::TxnAborted { reason: format!("unknown trx {trx}") })?;
        let record = RedoPayload::TxnPrepare { trx, prepare_ts, peers: peers.to_vec() };
        let lsn = self.pipe.submit_sync(None, self.wait_timeout, |buf| {
            encode_redo(&redo, buf);
            record.encode(buf);
        });
        // A prepare record that did not persist is no vote: the transaction
        // must not stay PREPARED here while the coordinator hears a refusal.
        let lsn = lsn.inspect_err(|_| self.abort(trx))?;
        Ok((prepare_ts, lsn))
    }

    /// Log one standalone record (abort, marker) and wait for it. It
    /// releases nothing early, so there is no transaction to track to
    /// stability; it shares the persist of whatever commits alongside it.
    fn log_record(&self, record: RedoPayload) -> Result<Lsn> {
        self.pipe.submit_sync(None, self.wait_timeout, |buf| record.encode(buf))
    }

    /// In-memory ACTIVE → PREPARED transition with in-lock timestamp
    /// allocation, *without* a durable prepare record. The one-phase local
    /// commit path uses this right before [`StorageEngine::commit`]: it
    /// needs the same reader-visible atomicity as a 2PC prepare (readers
    /// must wait, not skip, once the commit timestamp exists) but keeps a
    /// single durability flush — a crash before the commit record lands
    /// simply aborts the unacked transaction on replay.
    pub fn mark_prepared_with(&self, trx: TrxId, alloc: impl FnOnce() -> u64) -> Result<u64> {
        self.txns.prepare_with(trx, alloc)
    }

    /// Commit (one-phase from ACTIVE, or phase two from PREPARED): stamps
    /// versions, logs the commit record, and returns once its epoch is
    /// durable — persisted by this thread unless another committer's
    /// persist already carries it.
    ///
    /// On a durability failure the transaction is rolled back — correct
    /// only while nothing has been acked to the client. Phase two of a 2PC
    /// commit whose decision is already durable elsewhere must use
    /// [`StorageEngine::commit_decided`] instead.
    pub fn commit(&self, trx: TrxId, commit_ts: u64) -> Result<Lsn> {
        let ticket = self.commit_pipelined(trx, commit_ts)?;
        self.pipe.wait_ticket(ticket, self.wait_timeout)
    }

    /// A commit that does *not* block for durability: the commit stamp is
    /// published immediately (early lock release — later transactions may
    /// read and overwrite it, gated readers wait on the epoch watermark)
    /// and the returned ticket resolves through
    /// [`EpochPipeline::wait_ticket`] on [`StorageEngine::pipeline`]. No
    /// client may be acked before the ticket resolves. Pipelined submitters
    /// overlap many commits per durability round — the single-stream
    /// speedup `commit_bench` measures.
    // lint:hotpath
    pub fn commit_pipelined(&self, trx: TrxId, commit_ts: u64) -> Result<EpochTicket> {
        self.commit_pipelined_impl(trx, commit_ts, false)
    }

    // lint:hotpath
    fn commit_pipelined_impl(
        &self,
        trx: TrxId,
        commit_ts: u64,
        decided: bool,
    ) -> Result<EpochTicket> {
        // From here until the context sits in `unstable_ctx` it is in
        // neither map; a cutover's drain must not take that for "gone".
        let transit = self.transit();
        let ctx = self
            .active
            .remove(&trx)
            .ok_or_else(|| Error::TxnAborted { reason: format!("unknown trx {trx}") })?;
        let prepare_ts = match self.txns.state(trx) {
            Some(crate::txn::TxnState::Prepared { prepare_ts }) => prepare_ts,
            _ => ctx.snapshot_ts,
        };
        // A write whose store was detached (a re-home cutover moved the
        // shard mid-transaction) must fail the commit up front: the stamp
        // loop below would silently skip it and report success for a
        // stranded write. The guard is short-lived — holding it across the
        // stamps would mean acquiring txn/store locks with a lock held,
        // which the lock-order witness pays an allocation to track, and
        // this path must stay allocation-free. The residual race (a detach
        // landing after this check) is caught by the re-check further down,
        // before the commit is acked.
        {
            let tables = self.tables.read();
            if let Some((missing, _)) = ctx.writes.iter().find(|(t, _)| !tables.contains_key(t))
            {
                let rule = format!("store-detached:{missing}");
                drop(tables);
                self.active.insert(trx, ctx);
                return Err(Error::Throttled { rule });
            }
        }
        // Unstable strictly before the commit stamp: there is no window in
        // which another transaction can observe the stamp unflagged.
        self.txns.mark_unstable(trx);
        if let Err(e) = self.txns.commit(trx, commit_ts) {
            self.txns.mark_stable_batch(std::slice::from_ref(&trx));
            self.active.insert(trx, ctx);
            return Err(e);
        }
        // Early lock release: stamp every written version now. Later
        // writers proceed against the stamp; readers gate on stability.
        // A lookup miss means a detach landed after the check above and a
        // stamp was skipped — remembered and reverted below, never acked.
        // (A detach *after* a stamp is benign: the stamp travels with the
        // moved store by reference.)
        let mut stamp_skipped = false;
        for (t, k) in &ctx.writes {
            if let Ok(store) = self.store(*t) {
                store.commit(trx, commit_ts, std::slice::from_ref(k));
            } else {
                stamp_skipped = true;
            }
        }
        let TrxCtx { snapshot_ts, writes, redo } = ctx;
        let unstable = UnstableCtx { snapshot_ts, commit_ts, writes, decided, prepare_ts };
        self.unstable_ctx.insert(trx, unstable);
        drop(transit);
        if stamp_skipped {
            // Revert the early release exactly as a torn epoch would:
            // undecided aborts wholesale, a decided phase-two reverts to
            // PREPARED for the resolver to re-drive.
            let e = Error::Throttled { rule: format!("store-detached-mid-commit:{trx}") };
            self.fail_unstable(trx, &e);
            return Err(e);
        }
        let ticket = self.pipe.submit(Some(trx), |buf| {
            encode_redo(&redo, buf);
            RedoPayload::TxnCommit { trx, commit_ts }.encode(buf);
        });
        match ticket {
            Ok(t) => Ok(t),
            Err(e) => {
                // The pipeline refused (stopping): undo the early release.
                self.fail_unstable(trx, &e);
                Err(e)
            }
        }
    }

    /// Torn-epoch (or refused-submission) rollback of one early-released
    /// commit. Undecided transactions presumed-abort wholesale; decided
    /// (2PC phase-two) transactions revert to PREPARED with their context
    /// restored for a re-driven commit — a globally durable decision must
    /// never abort.
    fn fail_unstable(&self, trx: TrxId, _err: &Error) {
        // A decided commit's context travels back to `active` through here.
        let _transit = self.transit();
        let Some(ctx) = self.unstable_ctx.remove(&trx) else { return };
        // Versions strictly before state: demotion clears the unstable
        // flag and wakes readers gated in `wait_stable`, so the stamped
        // versions must already be gone (or unstamped) by then — a reader
        // re-running visibility between a demote and a late rollback would
        // see a stamped, no-longer-unstable version of a rolled-back
        // commit: a dirty read.
        if ctx.decided {
            for (t, k) in &ctx.writes {
                if let Ok(store) = self.store(*t) {
                    store.unstamp(trx, std::slice::from_ref(k));
                }
            }
            self.txns.demote_unstable_to_prepared(trx, ctx.prepare_ts);
            // Row redo is durable from the prepare; the retried commit
            // only re-submits the commit record.
            self.active.insert(
                trx,
                TrxCtx { snapshot_ts: ctx.snapshot_ts, writes: ctx.writes, redo: Vec::new() },
            );
        } else {
            for (t, k) in &ctx.writes {
                if let Ok(store) = self.store(*t) {
                    store.rollback_stamped(trx, std::slice::from_ref(k));
                }
            }
            self.txns.demote_unstable_to_aborted(trx);
            if let Some(tap) = self.tap() {
                tap.rec.record(TxnEvent::Abort { trx, node: tap.node });
            }
        }
    }

    /// Phase-two commit of a transaction every participant voted for: the
    /// COMMIT decision is fixed by their durable votes and may already be
    /// acked to the client. A local durability failure therefore must
    /// *not* roll back the prepared intent — doing so would let a
    /// concurrent reader skip a globally committed write (a G-SIb missed
    /// effect, caught by the crashpoint torture harness). Instead the
    /// transaction stays PREPARED with its context intact, readers keep
    /// waiting on it, and a retried Commit, the in-doubt resolver, or
    /// crash recovery finishes the job.
    pub fn commit_decided(&self, trx: TrxId, commit_ts: u64) -> Result<Lsn> {
        let ticket = self.commit_pipelined_impl(trx, commit_ts, true)?;
        self.pipe.wait_ticket(ticket, self.wait_timeout)
    }

    fn transit(&self) -> Transit<'_> {
        self.transits.0.fetch_add(1, Ordering::SeqCst);
        Transit(&self.transits.1)
    }

    /// State of a transaction in the local table (None = never seen here,
    /// or GC'd after abort). Participants use this for idempotent 2PC
    /// handling: a duplicate Prepare/Commit consults the recorded decision
    /// instead of re-executing.
    pub fn txn_state(&self, trx: TrxId) -> Option<crate::txn::TxnState> {
        self.txns.state(trx)
    }

    /// Abort and roll back. Idempotent, and a no-op for a transaction that
    /// already committed: a late or duplicated Abort (lossy network,
    /// crashed coordinator's Drop racing phase two) must not clobber a
    /// final commit decision.
    pub fn abort(&self, trx: TrxId) {
        if let Some(crate::txn::TxnState::Committed { .. }) = self.txns.state(trx) {
            return;
        }
        let _ = self.roll_back(trx);
    }

    /// Vote NO on `trx` unless it has voted: abort it if it is ACTIVE or
    /// unknown here, and wait for the abort record. From then on a Prepare
    /// of `trx` is refused. The state transition is atomic against a racing
    /// `prepare`: either the prepare fails or this returns `Ok(false)` (the
    /// transaction had voted, or was decided, and nothing changed).
    pub fn refuse(&self, trx: TrxId) -> Result<bool> {
        if !self.txns.try_abort_unvoted(trx) {
            return Ok(false);
        }
        self.roll_back(trx).map(|_| true)
    }

    /// Drop `trx`'s context and intents, decide it ABORTED and log the abort
    /// record — on the same pipeline as commits, so a storm of rollbacks
    /// shares persists. The history hears of it only when writes were
    /// discarded: a coordinator releasing a read-only participant after
    /// commit is not an abort of the (committed) transaction, and recording
    /// one would read as a lost write to the checker.
    fn roll_back(&self, trx: TrxId) -> Result<Lsn> {
        let ctx = self.active.remove(&trx);
        let discarded_writes = ctx.as_ref().is_some_and(|c| !c.writes.is_empty());
        if let Some(ctx) = ctx {
            self.rollback_writes(trx, &ctx.writes);
        }
        self.txns.abort(trx);
        let logged = self.log_record(RedoPayload::TxnAbort { trx });
        if let (true, Some(tap)) = (discarded_writes, self.tap()) {
            tap.rec.record(TxnEvent::Abort { trx, node: tap.node });
        }
        logged
    }

    fn rollback_writes(&self, trx: TrxId, writes: &[(TableId, Key)]) {
        let mut by_table: HashMap<TableId, Vec<Key>> = HashMap::new();
        for (t, k) in writes {
            by_table.entry(*t).or_default().push(k.clone());
        }
        for (t, keys) in by_table {
            if let Ok(store) = self.store(t) {
                store.abort(trx, &keys);
            }
        }
    }

    /// Any transactions still in flight?
    pub fn has_active_txns(&self) -> bool {
        !self.active.is_empty()
    }

    /// Any in-flight transaction holding writes on `table`? A shard
    /// cutover drains this *after* the commit gate: phase-two Commit
    /// messages are posted asynchronously, so a committed-but-unapplied
    /// write set can outlive the coordinator's commit guard. Detaching the
    /// store while one exists would strand the write. Never answers "none"
    /// wrongly; may answer "some" for the moment any commit on this engine
    /// spends between the two context maps — poll it, as a drain does.
    pub fn has_active_writes_on(&self, table: TableId) -> bool {
        let on_table = |writes: &[(TableId, Key)]| writes.iter().any(|(t, _)| *t == table);
        let finished = self.transits.1.load(Ordering::SeqCst);
        self.active.any(|_, ctx| on_table(&ctx.writes))
            // Early-released commits are out of `active` but their stamps may
            // still be rolled back by a torn epoch — the rollback needs the
            // store attached, so a cutover must wait these out too.
            || self.unstable_ctx.any(|_, ctx| on_table(&ctx.writes))
            // A commit moves its context from one map to the other by
            // remove-then-insert. Every move that had started by now had
            // finished before the scans began only if the two counts agree;
            // otherwise one may have been in neither map when looked for.
            || self.transits.0.load(Ordering::SeqCst) != finished
    }

    /// Multi-version GC across all tables.
    pub fn purge(&self, horizon: u64) {
        for store in self.tables.read().values() {
            store.purge(horizon);
        }
    }

    /// Install a transaction another node committed (replica apply): its
    /// rows become versions stamped at its commit timestamp. Changes to a
    /// table this engine does not hold are skipped.
    pub fn apply_committed(&self, txn: &CommittedTxn) {
        self.apply_committed_where(txn, |_| true);
    }

    /// [`StorageEngine::apply_committed`] for the tables `keep` admits.
    pub fn apply_committed_where(&self, txn: &CommittedTxn, keep: impl Fn(TableId) -> bool) {
        for change in txn.changes.iter().filter(|c| keep(c.table)) {
            if let Ok(store) = self.store(change.table) {
                let op = change.row.clone().map_or(VersionOp::Delete, VersionOp::Put);
                store.apply_committed(txn.trx, txn.commit_ts, change.key.clone(), op);
            }
        }
    }

    /// Total visible row count of a table at `snapshot_ts` (tests/metrics).
    pub fn count_rows(&self, table: TableId, snapshot_ts: u64) -> Result<usize> {
        Ok(self.scan_table(table, snapshot_ts)?.len())
    }

    /// Crash recovery: reinstall a PREPARED-but-undecided transaction from
    /// its replayed redo (`changes` are its rows in log order, `prepare_ts`
    /// the recorded prepare timestamp).
    ///
    /// Intents go back into the version stores and the transaction lands in
    /// PREPARED state, so snapshot readers once again *wait* for its
    /// decision exactly as they did before the crash (§IV case 2); the
    /// in-doubt resolver then settles its fate by asking its peers. The
    /// rebuilt context carries no redo: a 2PC prepare already drained the
    /// row redo to the durable log, so the eventual phase-two commit only
    /// appends its commit record — same as before the crash.
    ///
    /// Idempotent: a transaction the table already knows (replayed twice,
    /// or already settled by the resolver) is left untouched.
    pub fn recover_in_doubt(
        &self,
        trx: TrxId,
        prepare_ts: u64,
        changes: &[RowChange],
    ) -> Result<()> {
        if self.txns.state(trx).is_some() {
            return Ok(());
        }
        self.txns.begin(trx);
        let mut writes = Vec::with_capacity(changes.len());
        for RowChange { table, key, row } in changes {
            let version_op = row.clone().map_or(VersionOp::Delete, VersionOp::Put);
            // Validation passes by construction: these intents were the
            // newest versions of their keys at crash time, and every commit
            // logged before the prepare has already been replayed with a
            // commit_ts at or below prepare_ts.
            self.store(*table)?.write(&self.txns, trx, prepare_ts, key.clone(), version_op)?;
            writes.push((*table, key.clone()));
        }
        self.active.insert(trx, TrxCtx { snapshot_ts: prepare_ts, writes, redo: Vec::new() });
        self.txns.prepare_with(trx, || prepare_ts)?;
        Ok(())
    }
}

/// Replays a redo stream onto an engine's stores: each committed
/// transaction the [`TxnAssembler`] yields is applied with its commit
/// timestamp. This is the apply loop of RO nodes (§II-C) and Paxos
/// followers (§III); aborted transactions' ops are dropped.
pub struct RedoApplier {
    engine: Arc<StorageEngine>,
    assembler: Mutex<TxnAssembler>,
}

impl RedoApplier {
    /// An applier targeting `engine`.
    pub fn new(engine: Arc<StorageEngine>) -> RedoApplier {
        RedoApplier { engine, assembler: Mutex::new(TxnAssembler::default()) }
    }

    /// Feed one record.
    pub fn apply(&self, record: &RedoPayload) {
        let committed = self.assembler.lock().push(record.clone());
        if let Some(txn) = committed {
            self.engine.apply_committed(&txn);
        }
    }

    /// Feed a whole byte run of encoded records.
    pub fn apply_bytes(&self, bytes: Bytes) -> Result<()> {
        let committed = self.assembler.lock().feed(bytes)?;
        committed.iter().for_each(|txn| self.engine.apply_committed(txn));
        Ok(())
    }

    /// Transactions whose commit record has not arrived yet.
    pub fn in_flight(&self) -> usize {
        self.assembler.lock().in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Value;

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64, v: &str) -> Row {
        Row::new(vec![Value::Int(n), Value::str(v)])
    }

    const T: TableId = TableId(1);
    const TEN: TenantId = TenantId(1);

    fn engine() -> Arc<StorageEngine> {
        let e = StorageEngine::in_memory();
        e.create_table(T, TEN);
        e
    }

    #[test]
    fn insert_commit_read() {
        let e = engine();
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "a"))).unwrap();
        e.commit(TrxId(1), 10).unwrap();
        assert_eq!(e.read(T, &key(1), 10, None).unwrap(), Some(row(1, "a")));
        assert_eq!(e.read(T, &key(1), 9, None).unwrap(), None);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let e = engine();
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "a"))).unwrap();
        e.commit(TrxId(1), 10).unwrap();
        e.begin(TrxId(2), 10);
        let err = e.write(TrxId(2), T, key(1), WriteOp::Insert(row(1, "b"))).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));
        // Same transaction inserting twice also fails.
        e.begin(TrxId(3), 10);
        e.write(TrxId(3), T, key(2), WriteOp::Insert(row(2, "x"))).unwrap();
        assert!(e.write(TrxId(3), T, key(2), WriteOp::Insert(row(2, "y"))).is_err());
    }

    #[test]
    fn update_delete_lifecycle() {
        let e = engine();
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "a"))).unwrap();
        e.commit(TrxId(1), 10).unwrap();
        e.begin(TrxId(2), 10);
        e.write(TrxId(2), T, key(1), WriteOp::Update(row(1, "b"))).unwrap();
        e.commit(TrxId(2), 20).unwrap();
        e.begin(TrxId(3), 20);
        e.write(TrxId(3), T, key(1), WriteOp::Delete).unwrap();
        e.commit(TrxId(3), 30).unwrap();
        assert_eq!(e.read(T, &key(1), 15, None).unwrap(), Some(row(1, "a")));
        assert_eq!(e.read(T, &key(1), 25, None).unwrap(), Some(row(1, "b")));
        assert_eq!(e.read(T, &key(1), 35, None).unwrap(), None);
    }

    #[test]
    fn abort_rolls_back() {
        let e = engine();
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "a"))).unwrap();
        e.abort(TrxId(1));
        assert_eq!(e.read(T, &key(1), 100, None).unwrap(), None);
        assert!(!e.has_active_txns());
    }

    #[test]
    fn two_phase_commit_path() {
        let e = engine();
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "2pc"))).unwrap();
        let (_, lsn1) = e.prepare_with(TrxId(1), &[], || 50).unwrap();
        assert!(lsn1 > Lsn::ZERO, "prepare persists redo");
        let lsn2 = e.commit(TrxId(1), 60).unwrap();
        assert!(lsn2 > lsn1, "commit record follows");
        assert_eq!(e.read(T, &key(1), 60, None).unwrap(), Some(row(1, "2pc")));
    }

    #[test]
    fn write_conflict_between_engines_transactions() {
        let e = engine();
        e.begin(TrxId(1), 0);
        e.begin(TrxId(2), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Update(row(1, "a"))).unwrap();
        let err = e.write(TrxId(2), T, key(1), WriteOp::Update(row(1, "b"))).unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }));
    }

    #[test]
    fn unknown_table_rejected() {
        let e = engine();
        e.begin(TrxId(1), 0);
        assert!(e.write(TrxId(1), TableId(99), key(1), WriteOp::Delete).is_err());
        assert!(e.read(TableId(99), &key(1), 0, None).is_err());
    }

    #[test]
    fn detach_attach_moves_data_without_copy() {
        let e1 = engine();
        e1.begin(TrxId(1), 0);
        e1.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "moved"))).unwrap();
        e1.commit(TrxId(1), 10).unwrap();
        let store = e1.detach_table(T).unwrap();
        assert!(e1.read(T, &key(1), 100, None).is_err(), "source lost ownership");

        let e2 = StorageEngine::in_memory();
        e2.attach_table(T, store);
        assert_eq!(e2.read(T, &key(1), 100, None).unwrap(), Some(row(1, "moved")));
    }

    #[test]
    fn redo_applier_replays_committed_only() {
        let src = engine();
        let sink = VecSink::new();
        let src2 = StorageEngine::with_sink(sink.clone() as Arc<dyn LogSink>);
        src2.create_table(T, TEN);
        // Committed transaction.
        src2.begin(TrxId(1), 0);
        src2.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "yes"))).unwrap();
        src2.commit(TrxId(1), 10).unwrap();
        // Aborted transaction.
        src2.begin(TrxId(2), 10);
        src2.write(TrxId(2), T, key(2), WriteOp::Insert(row(2, "no"))).unwrap();
        src2.abort(TrxId(2));

        // Replay the log into a replica engine.
        let replica = StorageEngine::in_memory();
        replica.create_table(T, TEN);
        let applier = RedoApplier::new(Arc::clone(&replica));
        applier.apply_bytes(Bytes::from(sink.contiguous())).unwrap();
        assert_eq!(replica.read(T, &key(1), 100, None).unwrap(), Some(row(1, "yes")));
        assert_eq!(replica.read(T, &key(2), 100, None).unwrap(), None);
        assert_eq!(applier.in_flight(), 0);
        drop(src);
    }

    #[test]
    fn a_lone_commit_is_one_sink_write() {
        // Also the construction `benchmark/src/layers.rs` spells out.
        let sink = VecSink::new();
        let e = StorageEngine::with_durability(SyncLocalDurability::new(LogBuffer::new(
            sink.clone() as Arc<dyn LogSink>,
        )));
        e.create_table(T, TEN);
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "a"))).unwrap();
        e.commit(TrxId(1), 10).unwrap();
        assert_eq!(sink.writes().len(), 1);
        assert_eq!(e.wal_metrics().unwrap().flushes_per_commit(), 1.0);
        assert_eq!(e.read(T, &key(1), 10, None).unwrap(), Some(row(1, "a")));
    }

    #[test]
    fn scan_table_counts() {
        let e = engine();
        for i in 0..20i64 {
            let trx = TrxId(100 + i as u64);
            e.begin(trx, 0);
            e.write(trx, T, key(i), WriteOp::Insert(row(i, "v"))).unwrap();
            e.commit(trx, 10).unwrap();
        }
        assert_eq!(e.count_rows(T, 100).unwrap(), 20);
        assert_eq!(e.count_rows(T, 5).unwrap(), 0);
    }

    /// A sink whose writes can be made to fail on demand — the "crashed
    /// mid-flush" shape the recovery harness injects.
    struct FlakySink {
        inner: Arc<VecSink>,
        fail: AtomicBool,
    }

    impl LogSink for FlakySink {
        fn write(&self, at: Lsn, bytes: Bytes) -> polardbx_common::Result<()> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(Error::storage("flush failed"));
            }
            self.inner.write(at, bytes)
        }
    }

    /// An engine over `sink`, plus its pipeline and log.
    fn epoch_engine(
        sink: Arc<dyn LogSink>,
    ) -> (Arc<StorageEngine>, Arc<EpochPipeline>, Arc<LogBuffer>) {
        let log = LogBuffer::new(sink);
        let e = StorageEngine::with_durability(LocalEpochSink::new(Arc::clone(&log)));
        e.create_table(T, TEN);
        let pipe = Arc::clone(e.pipeline());
        (e, pipe, log)
    }

    #[test]
    fn epoch_commit_is_visible_and_durable() {
        let sink = VecSink::new();
        let (e, pipe, log) = epoch_engine(sink.clone());
        for n in 1..=10i64 {
            let trx = TrxId(n as u64);
            e.begin(trx, (n as u64 - 1) * 10);
            e.write(trx, T, key(n), WriteOp::Insert(row(n, "v"))).unwrap();
            e.commit(trx, n as u64 * 10).unwrap();
        }
        for n in 1..=10i64 {
            assert_eq!(e.read(T, &key(n), 100, None).unwrap(), Some(row(n, "v")));
        }
        assert_eq!(pipe.metrics.commits.get(), 10);
        assert_eq!(log.flushed(), log.head(), "every epoch flushed");
        // The durable stream decodes to each transaction's records as a run:
        // one row record + one commit record per transaction, in order.
        let records = RedoPayload::decode_all(Bytes::from(sink.contiguous())).unwrap();
        assert_eq!(records.len(), 20);
        assert!(matches!(records[0], RedoPayload::Insert { trx: TrxId(1), .. }));
        assert!(matches!(records[1], RedoPayload::TxnCommit { trx: TrxId(1), commit_ts: 10 }));
    }

    #[test]
    fn epoch_pipelined_tickets_overlap_commits() {
        let sink = VecSink::new();
        let (e, pipe, _log) = epoch_engine(sink);
        // Submit a window of commits without waiting, then harvest.
        let mut tickets = Vec::new();
        for n in 1..=50i64 {
            let trx = TrxId(n as u64);
            e.begin(trx, (n as u64 - 1) * 10);
            e.write(trx, T, key(n), WriteOp::Insert(row(n, "w"))).unwrap();
            tickets.push(e.commit_pipelined(trx, n as u64 * 10).unwrap());
        }
        for t in tickets {
            pipe.wait_ticket(t, Duration::from_secs(5)).unwrap();
        }
        assert_eq!(pipe.metrics.commits.get(), 50);
        assert_eq!(pipe.metrics.flushes.get(), 1, "the first harvest persists the window");
        for n in 1..=50i64 {
            assert_eq!(e.read(T, &key(n), 1000, None).unwrap(), Some(row(n, "w")));
        }
    }

    #[test]
    fn torn_epoch_rolls_back_undecided_commit() {
        let flaky = Arc::new(FlakySink { inner: VecSink::new(), fail: AtomicBool::new(false) });
        let (e, _pipe, _log) = epoch_engine(Arc::clone(&flaky) as Arc<dyn LogSink>);
        // A healthy commit first.
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "ok"))).unwrap();
        e.commit(TrxId(1), 10).unwrap();
        // Break the sink: the next commit's epoch tears.
        flaky.fail.store(true, Ordering::SeqCst);
        e.begin(TrxId(2), 10);
        e.write(TrxId(2), T, key(2), WriteOp::Insert(row(2, "torn"))).unwrap();
        let err = e.commit(TrxId(2), 20).unwrap_err();
        assert!(matches!(err, Error::Shared(_)), "{err:?}");
        // Presumed abort: state demoted, stamped version removed, reads
        // see nothing — exactly what replay of the torn log would yield.
        assert!(matches!(e.txn_state(TrxId(2)), Some(crate::txn::TxnState::Aborted)));
        assert_eq!(e.read(T, &key(2), 100, None).unwrap(), None);
        assert_eq!(e.read(T, &key(1), 100, None).unwrap(), Some(row(1, "ok")));
        // The pipeline keeps serving once the sink heals.
        flaky.fail.store(false, Ordering::SeqCst);
        e.begin(TrxId(3), 20);
        e.write(TrxId(3), T, key(3), WriteOp::Insert(row(3, "after"))).unwrap();
        e.commit(TrxId(3), 30).unwrap();
        assert_eq!(e.read(T, &key(3), 100, None).unwrap(), Some(row(3, "after")));
    }

    #[test]
    fn torn_epoch_reverts_decided_commit_to_prepared() {
        let flaky = Arc::new(FlakySink { inner: VecSink::new(), fail: AtomicBool::new(false) });
        let (e, _pipe, _log) = epoch_engine(Arc::clone(&flaky) as Arc<dyn LogSink>);
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "2pc"))).unwrap();
        let (prepare_ts, _) = e.prepare_with(TrxId(1), &[], || 10).unwrap();
        flaky.fail.store(true, Ordering::SeqCst);
        e.commit_decided(TrxId(1), prepare_ts).unwrap_err();
        // Every participant voted yes: never aborted, back to
        // PREPARED with readers waiting on it.
        assert!(matches!(e.txn_state(TrxId(1)), Some(crate::txn::TxnState::Prepared { .. })));
        let err = e
            .store(T)
            .unwrap()
            .read_waiting(&e.txns, &key(1), 20, None, Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }), "{err:?}");
        // Re-driving the commit after the sink heals finishes the job.
        flaky.fail.store(false, Ordering::SeqCst);
        e.commit_decided(TrxId(1), prepare_ts).unwrap();
        assert_eq!(e.read(T, &key(1), 20, None).unwrap(), Some(row(1, "2pc")));
    }

    #[test]
    fn prepare_and_abort_ride_the_pipeline() {
        let sink = VecSink::new();
        let (e, pipe, log) = epoch_engine(sink.clone());
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "p"))).unwrap();
        e.prepare_with(TrxId(1), &[], || 10).unwrap();
        e.begin(TrxId(2), 0);
        e.write(TrxId(2), T, key(2), WriteOp::Insert(row(2, "x"))).unwrap();
        e.abort(TrxId(2));
        e.commit_decided(TrxId(1), 10).unwrap();
        // A refusal takes the same path, and refuses once.
        e.begin(TrxId(3), 0);
        assert!(e.refuse(TrxId(3)).unwrap());
        assert!(!e.refuse(TrxId(3)).unwrap() && !e.refuse(TrxId(1)).unwrap());
        assert_eq!(pipe.metrics.commits.get(), 4, "prepare, abort, commit, abort");
        assert_eq!(log.flushed(), log.head());
        let records = RedoPayload::decode_all(Bytes::from(sink.contiguous())).unwrap();
        // Insert+Prepare(T1), Abort(T2), Commit(T1) — submission order.
        assert!(matches!(records[0], RedoPayload::Insert { trx: TrxId(1), .. }));
        assert!(matches!(records[1], RedoPayload::TxnPrepare { trx: TrxId(1), .. }));
        assert!(matches!(records[2], RedoPayload::TxnAbort { trx: TrxId(2) }));
        assert!(matches!(records[3], RedoPayload::TxnCommit { trx: TrxId(1), commit_ts: 10 }));
    }

    #[test]
    fn commit_with_detached_store_fails_instead_of_skipping() {
        let e = engine();
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "x"))).unwrap();
        // A re-home cutover detaches the store while the transaction still
        // holds an intent in it: the commit must surface an error — a
        // silent stamp-skip would ack a write that no longer exists here.
        let _store = e.detach_table(T).unwrap();
        let err = e.commit(TrxId(1), 10).unwrap_err();
        assert!(err.is_retryable(), "detached-store commit must bounce retryably: {err:?}");
    }

    #[test]
    fn frozen_table_bounces_writes_retryably() {
        let e = engine();
        e.freeze_writes(T);
        e.begin(TrxId(1), 0);
        let err = e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "x"))).unwrap_err();
        assert!(err.is_retryable(), "frozen-table write must bounce retryably: {err:?}");
        assert!(!e.has_active_writes_on(T), "bounced write must leave no intent behind");
        e.unfreeze_writes(T);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "x"))).unwrap();
        e.commit(TrxId(1), 10).unwrap();
        assert_eq!(e.read(T, &key(1), 20, None).unwrap(), Some(row(1, "x")));
    }
    /// A cutover drains on `has_active_writes_on` and then detaches. The
    /// drain must not see a committing transaction gone before the commit
    /// holds the table map: the detach would slip in, and a decided
    /// phase-two commit would find its store missing and stay PREPARED for
    /// good (nothing re-drives it), its readers waiting on it.
    #[test]
    fn a_drained_cutover_never_strands_a_decided_commit() {
        use std::sync::atomic::AtomicU64;
        let e = engine();
        let stop = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(0));
        let committer = {
            let (e, stop, committed) = (Arc::clone(&e), Arc::clone(&stop), Arc::clone(&committed));
            std::thread::spawn(move || -> Result<()> {
                for n in 1.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let trx = TrxId(n);
                    e.begin(trx, 2 * n);
                    match e.write(trx, T, key(1), WriteOp::Update(row(1, "x"))) {
                        Ok(()) => {}
                        // Frozen, or between detach and attach.
                        Err(Error::Throttled { .. } | Error::UnknownTable { .. }) => {
                            e.abort(trx);
                            continue;
                        }
                        Err(err) => panic!("write: {err:?}"),
                    }
                    e.prepare_with(trx, &[], || 2 * n)?;
                    // Stranded: stop the cutovers, whose drain would now
                    // wait on this transaction for ever.
                    e.commit_decided(trx, 2 * n + 1)
                        .inspect_err(|_| stop.store(true, Ordering::Relaxed))?;
                    committed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        };
        // 2 000 cutovers, and more for as long as it takes the committer to
        // get 50 commits through between them.
        let mut cutovers = 0;
        while (cutovers < 2_000 || committed.load(Ordering::Relaxed) < 50)
            && !stop.load(Ordering::Relaxed)
        {
            cutovers += 1;
            e.freeze_writes(T);
            while e.has_active_writes_on(T) && !stop.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            if !stop.load(Ordering::Relaxed) {
                let store = e.detach_table(T).unwrap();
                std::thread::yield_now(); // the store is on its way to another node
                e.attach_table(T, store);
            }
            e.unfreeze_writes(T);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        committer.join().unwrap().expect("stranded by a drained cutover");
    }
}
