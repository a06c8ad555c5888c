//! The DN-side participant service.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use polardbx_common::time::mono_now;
use polardbx_common::{Error, HistoryRecorder, NodeId, Result, TrxId};
use polardbx_hlc::{Clock, HlcTimestamp};
use polardbx_simnet::{Handler, SimNet};
use polardbx_storage::{StorageEngine, TxnState, WriteOp};

use crate::config::ResolverConfig;
use crate::metrics::TxnMetrics;
use crate::msg::{Edit, StagedWrites, TxnMsg, Vote, WireWriteOp};

/// How long the row count of a commit-round message's edits is kept for a
/// duplicated or retried copy of that message to report again. A copy trails
/// the original by at most the coordinator's retry schedule plus the longest
/// wait of a message beside it in the round (the engine's 5 s PREPARED
/// wait), so this is generous.
const EDIT_COUNT_RETENTION: Duration = Duration::from_secs(10);

/// A PREPARED transaction awaiting its 2PC outcome.
struct InDoubt {
    /// The DNs of its vote round, this one included: whom to ask.
    peers: Vec<NodeId>,
    /// When this participant entered PREPARED.
    since: Duration,
}

/// Deliberate participant breakages that validate the isolation checker
/// (`sitcheck` mutation runs), like [`crate::ProtocolMutations`]. Never
/// enable these outside checker validation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParticipantMutations {
    /// A transaction whose first message here carries a
    /// [`WireWriteOp::Edit`] validates its writes against the end of time,
    /// not its snapshot: the edit reads the row at the snapshot and then
    /// overwrites a version committed after it.
    pub skip_edit_conflict_check: bool,
    /// The resolver counts a peer it cannot reach as PREPARED.
    pub resolve_on_partial_view: bool,
    /// A statement arriving after a refusal re-opens the transaction, so a
    /// later Prepare votes yes.
    pub forget_refusals: bool,
}

/// A DN participant: storage engine + node clock, attached to the fabric.
pub struct DnService {
    /// Node id on the fabric.
    pub node: NodeId,
    /// The node's storage engine.
    pub engine: Arc<StorageEngine>,
    /// The node's clock (HLC, TSO client, or Clock-SI).
    pub clock: Arc<dyn Clock>,
    /// Chaos counters (duplicates absorbed, in-doubt resolutions…).
    pub metrics: TxnMetrics,
    /// Transactions this participant has begun locally, with start times
    /// (for abandoned-ACTIVE expiry).
    started: Mutex<HashMap<TrxId, Duration>>,
    /// PREPARED transactions whose outcome is not yet known here.
    prepared: Mutex<HashMap<TrxId, InDoubt>>,
    /// Rows written by the edits of the commit-round messages served in the
    /// last [`EDIT_COUNT_RETENTION`], oldest first: what a duplicated or
    /// retried copy of such a message reports again instead of re-applying.
    /// A message whose edits wrote nothing is not listed (absent reads 0).
    edit_counts: Mutex<VecDeque<(Duration, TrxId, u64)>>,
    /// Checker-validation breakages, see [`DnService::set_mutations`].
    mutations: Mutex<ParticipantMutations>,
}

impl DnService {
    /// Wrap an engine and a clock as a participant service.
    pub fn new(node: NodeId, engine: Arc<StorageEngine>, clock: Arc<dyn Clock>) -> Arc<DnService> {
        Arc::new(DnService {
            node,
            engine,
            clock,
            metrics: TxnMetrics::new(),
            started: Mutex::new(HashMap::new()),
            prepared: Mutex::new(HashMap::new()),
            edit_counts: Mutex::new(VecDeque::new()),
            mutations: Mutex::new(ParticipantMutations::default()),
        })
    }

    /// Enable deliberate breakages. Checker validation (`sitcheck` mutation
    /// runs) only.
    pub fn set_mutations(&self, mutations: ParticipantMutations) {
        *self.mutations.lock() = mutations;
    }

    fn mutations(&self) -> ParticipantMutations {
        *self.mutations.lock()
    }

    /// Attach a history recorder: installs the MVCC tap on this node's
    /// engine (reads, writes, local commit stamps, aborts and refusals).
    pub fn attach_recorder(&self, rec: Arc<HistoryRecorder>) {
        self.engine.set_recorder(rec, self.node, false);
    }

    /// Number of PREPARED transactions still awaiting their outcome here.
    pub fn in_doubt_count(&self) -> usize {
        self.prepared.lock().len()
    }

    /// Crash recovery: re-adopt a PREPARED-but-undecided transaction found
    /// in the replayed redo log, with the `peers` its prepare record names,
    /// so the in-doubt resolver settles it by asking them. `since` is
    /// backdated to the epoch: a recovered in-doubt transaction has by
    /// definition already waited long enough, so the very next sweep asks.
    pub fn adopt_in_doubt(&self, trx: TrxId, peers: Vec<NodeId>) {
        self.prepared.lock().insert(trx, InDoubt { peers, since: Duration::ZERO });
    }

    /// Spawn the in-doubt resolver: a background sweep that settles
    /// PREPARED transactions older than `cfg.in_doubt_after` by their
    /// peers' votes and locally aborts ACTIVE transactions abandoned longer
    /// than `cfg.abandon_active_after` (safe: an ACTIVE transaction has not
    /// voted, so nothing can have committed it; the abort is a refusal).
    /// Stop via the returned handle.
    pub fn start_resolver(
        self: &Arc<Self>,
        net: Arc<SimNet<TxnMsg>>,
        cfg: ResolverConfig,
    ) -> Result<ResolverHandle> {
        let me = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("txn-resolver-{}", self.node))
            .spawn(move || loop {
                // Parked, not asleep: dropping the handle wakes the thread.
                std::thread::park_timeout(cfg.interval);
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                me.resolve_once(&net, &cfg);
            })
            .map_err(|e| Error::execution(format!("spawn txn resolver: {e}")))?;
        Ok(ResolverHandle { stop, handle: Some(handle) })
    }

    /// One resolver sweep (also callable directly from tests).
    pub fn resolve_once(&self, net: &SimNet<TxnMsg>, cfg: &ResolverConfig) {
        let now = mono_now();
        // In-doubt PREPARED: settle by the peers' votes. A peer that cannot
        // be heard (the fabric may drop the question) leaves the
        // transaction for the next sweep.
        let in_doubt: Vec<(TrxId, Vec<NodeId>)> = self
            .prepared
            .lock()
            .iter()
            .filter(|(_, d)| now.saturating_sub(d.since) >= cfg.in_doubt_after)
            .map(|(t, d)| (*t, d.peers.clone()))
            .collect();
        for (trx, peers) in in_doubt {
            if let Some(outcome) = self.outcome(net, trx, &peers) {
                let _ = self.handle(self.node, outcome);
            }
        }
        // Abandoned ACTIVE: the coordinator died (or gave up) before ever
        // asking for a vote. Expiring it is a refusal, atomic against a
        // racing Prepare: a transaction that slips into PREPARED under our
        // feet is left for the in-doubt path above.
        let abandoned: Vec<TrxId> = self
            .started
            .lock()
            .iter()
            .filter(|(_, s)| now.saturating_sub(**s) >= cfg.abandon_active_after)
            .map(|(t, _)| *t)
            .collect();
        for trx in abandoned {
            if !matches!(self.engine.refuse(trx), Ok(false)) {
                self.metrics.expired_active.inc();
                self.started.lock().remove(&trx);
            }
        }
    }

    /// What the votes of `trx`'s peers decide, as the message that applies
    /// it here: any `Committed(ts)` commits at `ts`; every peer PREPARED
    /// commits at the max `prepare_ts`, ours included — the coordinator's
    /// own rule (step ⑤); a refusal aborts. `None` while a peer is unheard.
    fn outcome(&self, net: &SimNet<TxnMsg>, trx: TrxId, peers: &[NodeId]) -> Option<TxnMsg> {
        let Some(TxnState::Prepared { prepare_ts }) = self.engine.txn_state(trx) else {
            return None;
        };
        let partial_view = self.mutations().resolve_on_partial_view;
        let others = peers.iter().filter(|p| **p != self.node);
        let asks = others.map(|p| (*p, TxnMsg::Vote { trx })).collect();
        let (mut commit_ts, mut refused, mut unheard) = (prepare_ts, false, false);
        for reply in net.call_many(self.node, asks) {
            match reply {
                Ok(TxnMsg::Voted(Vote::Committed(ts))) => {
                    self.metrics.in_doubt_commits.inc();
                    return Some(TxnMsg::Commit { trx, commit_ts: ts });
                }
                Ok(TxnMsg::Voted(Vote::Prepared(ts))) => commit_ts = commit_ts.max(ts),
                Ok(TxnMsg::Voted(Vote::Refused)) => refused = true,
                Err(_) if partial_view => {}
                _ => unheard = true,
            }
        }
        if refused {
            self.metrics.in_doubt_aborts.inc();
            Some(TxnMsg::Abort { trx })
        } else if unheard {
            None
        } else {
            self.metrics.in_doubt_commits.inc();
            Some(TxnMsg::Commit { trx, commit_ts })
        }
    }

    /// Step ③ of Fig 4 — and the Clock-SI divergence point. HLC absorbs the
    /// incoming timestamp (`ClockUpdate`); Clock-SI has no causality
    /// propagation, so when the snapshot is ahead of the local physical
    /// clock the participant must *delay* the statement until its clock
    /// catches up (bounded by the configured worst-case skew).
    fn sync_snapshot(&self, snapshot_ts: u64) {
        if self.clock.causality_wait_millis() > 0 {
            let deadline =
                mono_now() + Duration::from_millis(self.clock.causality_wait_millis() + 1);
            while self.clock.now().raw() < snapshot_ts {
                if mono_now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        } else {
            self.clock.update(HlcTimestamp::from_raw(snapshot_ts));
        }
    }

    /// Begin `trx` here on its first message. A transaction this node
    /// already knows is left as it is — above all a refused one: a late or
    /// duplicated `Write` then fails `TxnAborted` instead of re-opening it,
    /// and the Prepare behind it is refused too.
    fn ensure_started(&self, trx: TrxId, snapshot_ts: u64) {
        if trx.raw() == 0 {
            return;
        }
        let fresh = self.engine.begin(trx, snapshot_ts)
            || self.mutations().forget_refusals
                && self.engine.txn_state(trx) == Some(TxnState::Aborted)
                && {
                    self.engine.txns.forget(trx);
                    self.engine.begin(trx, snapshot_ts)
                };
        if fresh {
            self.started.lock().insert(trx, mono_now());
        }
    }

    fn finish(&self, trx: TrxId) {
        self.started.lock().remove(&trx);
        self.prepared.lock().remove(&trx);
    }

    /// Serve one write; returns how many rows an edit wrote (0 for the
    /// blind ops, whose senders already know their count).
    fn do_write(
        &self,
        trx: TrxId,
        snapshot_ts: u64,
        table: polardbx_common::TableId,
        key: polardbx_common::Key,
        op: WireWriteOp,
    ) -> Result<u64> {
        self.sync_snapshot(snapshot_ts);
        let is_edit = matches!(op, WireWriteOp::Edit(_));
        let validate_at = if is_edit && self.mutations().skip_edit_conflict_check {
            u64::MAX
        } else {
            snapshot_ts
        };
        self.ensure_started(trx, validate_at);
        let op = match op {
            WireWriteOp::Insert(row) => WriteOp::Insert(row),
            WireWriteOp::Update(row) => WriteOp::Update(row),
            WireWriteOp::Delete => WriteOp::Delete,
            WireWriteOp::Edit(edit) => {
                // The `Read` message this replaces, served in place: it
                // waits out a PREPARED writer of the row, and the history
                // tap records the version it observed.
                let old = self
                    .engine
                    .read(table, &key, snapshot_ts, Some(trx))
                    .map_err(remap_stale_route)?;
                match old.map(|old| edit.apply(&old)).transpose()? {
                    None | Some(Edit::Keep) => return Ok(0),
                    Some(Edit::Put(row)) => WriteOp::Update(row),
                    Some(Edit::Delete) => WriteOp::Delete,
                }
            }
        };
        self.engine.write(trx, table, key, op).map_err(remap_stale_route)?;
        Ok(is_edit as u64)
    }

    /// Apply the writes a commit-round message carries, each exactly as a
    /// `Write` message would have been, before the vote. Returns the rows
    /// its edits wrote.
    ///
    /// Idempotency rule: only a transaction that has not voted here takes
    /// them. Once it is PREPARED or decided, this is a duplicated or
    /// retried copy of a message already served — its writes stand (or
    /// fell with the abort), nothing is re-applied, and the vote code the
    /// caller runs next answers from the recorded state, count included
    /// ([`DnService::remembered_edit_count`]). All or nothing: when a write
    /// is refused the transaction is rolled back here at once, so a retry
    /// never meets half of its own writes, and the refusal goes back as
    /// the participant's own typed error.
    fn apply_staged(&self, trx: TrxId, staged: StagedWrites) -> Result<u64> {
        if staged.writes.is_empty()
            || !matches!(self.engine.txn_state(trx), None | Some(TxnState::Active))
        {
            return Ok(0);
        }
        let mut edited = 0;
        for (table, key, op) in staged.writes {
            match self.do_write(trx, staged.snapshot_ts, table, key, op) {
                Ok(n) => edited += n,
                Err(e) => {
                    self.finish(trx);
                    self.engine.abort(trx);
                    return Err(e);
                }
            }
        }
        if edited > 0 {
            let now = mono_now();
            let mut counts = self.edit_counts.lock();
            while counts.front().is_some_and(|(at, ..)| *at + EDIT_COUNT_RETENTION < now) {
                counts.pop_front();
            }
            counts.push_back((now, trx, edited));
        }
        Ok(edited)
    }

    /// Rows the edits of `trx`'s commit-round message wrote when its first
    /// copy was served.
    fn remembered_edit_count(&self, trx: TrxId) -> u64 {
        let counts = self.edit_counts.lock();
        counts.iter().rev().find(|(_, t, _)| *t == trx).map_or(0, |(.., n)| *n)
    }
}

/// A statement for a table this DN no longer hosts raced a partition
/// re-home: the CN routed before the cutover detached the store. That is
/// transient routing staleness, not a schema error — remap it retryable so
/// the client re-routes and finds the new home. (CNs never send statements
/// for tables they did not resolve through the catalog, so a missing store
/// at statement time always means a stale route.)
fn remap_stale_route(e: Error) -> Error {
    match e {
        Error::UnknownTable { name } => Error::Throttled { rule: format!("stale-route:{name}") },
        other => other,
    }
}

impl Handler<TxnMsg> for DnService {
    fn handle(&self, _from: NodeId, msg: TxnMsg) -> TxnMsg {
        match msg {
            TxnMsg::Write { trx, snapshot_ts, table, key, op } => {
                match self.do_write(trx, snapshot_ts, table, key, op) {
                    Ok(_) => TxnMsg::Ok,
                    Err(e) => TxnMsg::Failed(e),
                }
            }
            TxnMsg::Read { trx, snapshot_ts, table, key } => {
                self.sync_snapshot(snapshot_ts);
                let me = (trx.raw() != 0).then(|| {
                    self.ensure_started(trx, snapshot_ts);
                    trx
                });
                match self.engine.read(table, &key, snapshot_ts, me) {
                    Ok(row) => TxnMsg::RowResult(row),
                    Err(e) => TxnMsg::Failed(remap_stale_route(e)),
                }
            }
            TxnMsg::Scan { trx, snapshot_ts, table, lower, upper } => {
                self.sync_snapshot(snapshot_ts);
                let me = (trx.raw() != 0).then(|| {
                    self.ensure_started(trx, snapshot_ts);
                    trx
                });
                let lo = lower.as_ref().map(Bound::Included).unwrap_or(Bound::Unbounded);
                let hi = upper.as_ref().map(Bound::Excluded).unwrap_or(Bound::Unbounded);
                match self.engine.scan(table, lo, hi, snapshot_ts, me) {
                    Ok(rows) => TxnMsg::Rows(rows),
                    Err(e) => TxnMsg::Failed(remap_stale_route(e)),
                }
            }
            TxnMsg::Prepare { trx, staged, peers } => {
                // Idempotency first: a duplicated or retried Prepare must
                // return the SAME prepare_ts and edit count, not advance
                // the state again. A copy that arrives once the peers have
                // settled the commit asked for a yes vote: the commit
                // timestamp, the max of every vote, stands in for it.
                if let Some(
                    TxnState::Prepared { prepare_ts } | TxnState::Committed { commit_ts: prepare_ts },
                ) = self.engine.txn_state(trx)
                {
                    self.metrics.duplicate_msgs.inc();
                    return TxnMsg::Prepared { prepare_ts, edited: self.remembered_edit_count(trx) };
                }
                let edited = match self.apply_staged(trx, staged) {
                    Ok(edited) => edited,
                    Err(e) => return TxnMsg::Failed(e),
                };
                // Step ④: validate, enter PREPARED, return ClockAdvance().
                // The advance happens inside the transaction table's lock:
                // allocated-but-not-yet-PREPARED is a window in which a
                // reader could sync a higher snapshot and skip our ACTIVE
                // intents, then miss the commit below its snapshot.
                match self.engine.prepare_with(trx, &peers, || self.clock.advance().raw()) {
                    Ok((prepare_ts, _)) => {
                        self.prepared.lock().insert(trx, InDoubt { peers, since: mono_now() });
                        TxnMsg::Prepared { prepare_ts, edited }
                    }
                    // The vote itself failed (the transaction is unknown
                    // here, or already aborted): refuse for good — so no
                    // later copy of this Prepare votes yes — and say which
                    // node refused.
                    Err(e) => {
                        let _ = self.engine.refuse(trx);
                        self.finish(trx);
                        TxnMsg::Failed(Error::PrepareRejected {
                            participant: self.node.to_string(),
                            reason: e.to_string(),
                        })
                    }
                }
            }
            TxnMsg::Commit { trx, commit_ts } => {
                // Step ⑦: absorb the commit timestamp, then commit.
                self.clock.update(HlcTimestamp::from_raw(commit_ts));
                // Idempotency: a duplicate Commit re-acks the recorded
                // timestamp instead of failing on the released context.
                if let Some(TxnState::Committed { commit_ts: recorded }) =
                    self.engine.txn_state(trx)
                {
                    self.metrics.duplicate_msgs.inc();
                    self.finish(trx);
                    return TxnMsg::Committed { commit_ts: recorded, edited: 0 };
                }
                // Every participant voted yes and the commit may already be
                // acked upstream: a local durability failure leaves the
                // transaction PREPARED (in-doubt, still tracked for the
                // resolver) rather than rolling it back.
                match self.engine.commit_decided(trx, commit_ts) {
                    Ok(_) => {
                        self.finish(trx);
                        TxnMsg::Committed { commit_ts, edited: 0 }
                    }
                    Err(e) => TxnMsg::Failed(e),
                }
            }
            TxnMsg::CommitLocal { trx, staged } => {
                // Idempotency: a retried CommitLocal (lost reply) must ack
                // the original commit timestamp and edit count, not
                // allocate or apply again.
                if let Some(TxnState::Committed { commit_ts }) = self.engine.txn_state(trx) {
                    self.metrics.duplicate_msgs.inc();
                    self.finish(trx);
                    return TxnMsg::Committed { commit_ts, edited: self.remembered_edit_count(trx) };
                }
                let edited = match self.apply_staged(trx, staged) {
                    Ok(edited) => edited,
                    Err(e) => return TxnMsg::Failed(e),
                };
                // Single-participant fast path: the commit timestamp is this
                // node's ClockAdvance — no cross-node max needed. The
                // advance rides the same in-lock PREPARED transition as a
                // 2PC prepare (readers wait instead of skipping ACTIVE
                // intents once the timestamp exists), but without a second
                // durability flush.
                let commit_ts =
                    match self.engine.mark_prepared_with(trx, || self.clock.advance().raw()) {
                        Ok(ts) => ts,
                        Err(e) => return TxnMsg::Failed(e),
                    };
                self.finish(trx);
                match self.engine.commit(trx, commit_ts) {
                    Ok(_) => TxnMsg::Committed { commit_ts, edited },
                    Err(e) => TxnMsg::Failed(e),
                }
            }
            TxnMsg::Abort { trx } => {
                // A late or duplicated Abort must never clobber a commit
                // (the engine also guards this; counting it here keeps the
                // metric honest).
                if matches!(self.engine.txn_state(trx), Some(TxnState::Committed { .. })) {
                    self.metrics.duplicate_msgs.inc();
                    return TxnMsg::Ok;
                }
                self.finish(trx);
                self.engine.abort(trx);
                TxnMsg::Ok
            }
            TxnMsg::Vote { trx } => {
                // One that has not voted refuses first — whether it holds
                // the transaction ACTIVE or never saw it — and the refusal
                // is durable before it is told.
                match self.engine.refuse(trx) {
                    Ok(true) => self.finish(trx),
                    Ok(false) => {}
                    Err(e) => return TxnMsg::Failed(e),
                }
                // A yes counts once `prepared` lists it, i.e. its prepare
                // record is durable; until then the asker hears nothing.
                let durable = self.prepared.lock().contains_key(&trx);
                TxnMsg::Voted(match self.engine.txn_state(trx) {
                    Some(TxnState::Prepared { prepare_ts }) if durable => Vote::Prepared(prepare_ts),
                    Some(TxnState::Prepared { .. }) => {
                        return TxnMsg::Failed(Error::Timeout { what: format!("prepare of {trx}") })
                    }
                    Some(TxnState::Committed { commit_ts }) => Vote::Committed(commit_ts),
                    _ => Vote::Refused,
                })
            }
            other => other,
        }
    }

    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        // Phase-two messages may arrive as posts (asynchronous second phase).
        let _ = self.handle(from, msg);
    }
}

/// Handle to a running in-doubt resolver; dropping it stops and joins it.
pub struct ResolverHandle {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for ResolverHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::testing::bump;
    use polardbx_common::{DcId, Key, Row, TableId, TenantId, Value};
    use polardbx_hlc::{Hlc, TestClock};
    use polardbx_simnet::{LatencyMatrix, SimNet};

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64) -> Row {
        Row::new(vec![Value::Int(n)])
    }

    #[test]
    fn participant_updates_clock_from_snapshot() {
        let pc = TestClock::at(100);
        let clock = Hlc::with_physical(pc);
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), engine, clock.clone());
        // A snapshot far in the future arrives (from a fast coordinator).
        let future = HlcTimestamp::new(5000, 0);
        let reply = dn.handle(
            NodeId(9),
            TxnMsg::Read { trx: TrxId(0), snapshot_ts: future.raw(), table: TableId(1), key: key(1) },
        );
        assert!(matches!(reply, TxnMsg::RowResult(None)));
        assert!(clock.now() >= future, "ClockUpdate must have absorbed the snapshot");
    }

    #[test]
    fn prepare_returns_advancing_timestamp() {
        let clock = Hlc::with_physical(TestClock::at(100));
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), engine, clock);
        dn.handle(
            NodeId(9),
            TxnMsg::Write {
                trx: TrxId(5),
                snapshot_ts: HlcTimestamp::new(100, 0).raw(),
                table: TableId(1),
                key: key(1),
                op: WireWriteOp::Insert(row(1)),
            },
        );
        let r1 = dn.handle(NodeId(9), TxnMsg::Prepare { trx: TrxId(5), staged: Default::default(), peers: vec![] });
        let TxnMsg::Prepared { prepare_ts, .. } = r1 else { panic!("expected Prepared, got {r1:?}") };
        assert!(prepare_ts > HlcTimestamp::new(100, 0).raw());
    }

    #[test]
    fn full_local_2pc_roundtrip_via_fabric() {
        let net = SimNet::new(LatencyMatrix::zero());
        let clock = Hlc::with_physical(TestClock::at(1));
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), Arc::clone(&engine), clock);
        net.register(NodeId(1), DcId(1), dn);
        struct Cn;
        impl Handler<TxnMsg> for Cn {
            fn handle(&self, _f: NodeId, m: TxnMsg) -> TxnMsg {
                m
            }
        }
        net.register(NodeId(9), DcId(1), Arc::new(Cn));

        let snapshot = HlcTimestamp::new(1, 0).raw();
        let w = net
            .call(
                NodeId(9),
                NodeId(1),
                TxnMsg::Write {
                    trx: TrxId(7),
                    snapshot_ts: snapshot,
                    table: TableId(1),
                    key: key(1),
                    op: WireWriteOp::Insert(row(1)),
                },
            )
            .unwrap();
        assert!(matches!(w, TxnMsg::Ok));
        let p = net
            .call(NodeId(9), NodeId(1), TxnMsg::Prepare { trx: TrxId(7), staged: Default::default(), peers: vec![] })
            .unwrap();
        let TxnMsg::Prepared { prepare_ts, .. } = p else { panic!() };
        let c = net
            .call(NodeId(9), NodeId(1), TxnMsg::Commit { trx: TrxId(7), commit_ts: prepare_ts })
            .unwrap();
        assert!(matches!(c, TxnMsg::Committed { .. }));
        assert_eq!(engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), Some(row(1)));
    }

    #[test]
    fn duplicate_prepare_returns_same_ts() {
        let clock = Hlc::with_physical(TestClock::at(100));
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), engine, clock);
        dn.handle(
            NodeId(9),
            TxnMsg::Write {
                trx: TrxId(5),
                snapshot_ts: HlcTimestamp::new(100, 0).raw(),
                table: TableId(1),
                key: key(1),
                op: WireWriteOp::Insert(row(1)),
            },
        );
        let r1 = dn.handle(NodeId(9), TxnMsg::Prepare { trx: TrxId(5), staged: Default::default(), peers: vec![] });
        let r2 = dn.handle(NodeId(9), TxnMsg::Prepare { trx: TrxId(5), staged: Default::default(), peers: vec![] });
        let TxnMsg::Prepared { prepare_ts: t1, .. } = r1 else { panic!("{r1:?}") };
        let TxnMsg::Prepared { prepare_ts: t2, .. } = r2 else { panic!("{r2:?}") };
        assert_eq!(t1, t2, "duplicate Prepare must not advance the timestamp");
        assert_eq!(dn.metrics.duplicate_msgs.get(), 1);
    }

    fn staged(writes: Vec<(Key, WireWriteOp)>) -> StagedWrites {
        staged_at(HlcTimestamp::new(100, 0).raw(), writes)
    }

    fn staged_at(snapshot_ts: u64, writes: Vec<(Key, WireWriteOp)>) -> StagedWrites {
        StagedWrites {
            snapshot_ts,
            writes: writes.into_iter().map(|(k, op)| (TableId(1), k, op)).collect(),
        }
    }

    #[test]
    fn duplicated_commit_round_message_applies_its_writes_once() {
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), Arc::clone(&engine), Hlc::with_physical(TestClock::at(100)));
        // 2PC: the second copy of an Insert-carrying Prepare re-applies
        // nothing (it would be a DuplicateKey against the first) and votes
        // with the same timestamp.
        let prepare = TxnMsg::Prepare {
            trx: TrxId(5),
            peers: vec![],
            staged: staged(vec![(key(1), WireWriteOp::Insert(row(1)))]),
        };
        let TxnMsg::Prepared { prepare_ts: t1, .. } = dn.handle(NodeId(9), prepare.clone()) else {
            panic!("first copy must prepare")
        };
        let TxnMsg::Prepared { prepare_ts: t2, .. } = dn.handle(NodeId(9), prepare) else {
            panic!("second copy must re-ack")
        };
        assert_eq!(t1, t2);
        assert_eq!(dn.metrics.duplicate_msgs.get(), 1);
        dn.handle(NodeId(9), TxnMsg::Commit { trx: TrxId(5), commit_ts: t1 });
        // One-phase: same rule, the second copy re-acks the commit.
        let local = TxnMsg::CommitLocal {
            trx: TrxId(6),
            staged: staged(vec![(key(2), WireWriteOp::Insert(row(2)))]),
        };
        let TxnMsg::Committed { commit_ts: c1, .. } = dn.handle(NodeId(9), local.clone()) else {
            panic!("first copy must commit")
        };
        let TxnMsg::Committed { commit_ts: c2, .. } = dn.handle(NodeId(9), local) else {
            panic!("second copy must re-ack")
        };
        assert_eq!(c1, c2);
        assert_eq!(dn.metrics.duplicate_msgs.get(), 2);
        assert_eq!(engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), Some(row(1)));
        assert_eq!(engine.read(TableId(1), &key(2), u64::MAX, None).unwrap(), Some(row(2)));
        assert!(!engine.has_active_txns());
    }

    #[test]
    fn refused_staged_write_rolls_back_and_a_retry_finds_the_abort() {
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), Arc::clone(&engine), Hlc::with_physical(TestClock::at(100)));
        dn.handle(
            NodeId(9),
            TxnMsg::CommitLocal {
                trx: TrxId(1),
                staged: staged(vec![(key(2), WireWriteOp::Insert(row(2)))]),
            },
        );
        // The first write installs, the second is a duplicate key: the
        // participant's own typed error comes back and nothing stays.
        let prepare = TxnMsg::Prepare {
            trx: TrxId(5),
            peers: vec![],
            staged: StagedWrites {
                snapshot_ts: u64::MAX >> 1,
                writes: vec![
                    (TableId(1), key(1), WireWriteOp::Insert(row(1))),
                    (TableId(1), key(2), WireWriteOp::Insert(row(2))),
                ],
            },
        };
        let reply = dn.handle(NodeId(9), prepare.clone());
        assert!(matches!(reply, TxnMsg::Failed(Error::DuplicateKey { .. })), "{reply:?}");
        assert!(!engine.has_active_txns(), "rolled back at once");
        // A retried copy (the refusal was lost on the way back) meets the
        // abort: refused by name, retryably, with nothing re-applied.
        let reply = dn.handle(NodeId(9), prepare);
        let TxnMsg::Failed(e) = reply else { panic!("{reply:?}") };
        assert!(
            matches!(&e, Error::PrepareRejected { participant, .. } if participant == "node1"),
            "{e:?}"
        );
        assert!(e.is_retryable());
        assert!(!engine.has_active_txns());
        assert_eq!(engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), None);
    }

    fn pair(id: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(v)])
    }

    /// A snapshot that sees [`dn_with_pairs`]' rows (HLC raw, pt = 1000 ms).
    const SEEDED: u64 = 1000 << polardbx_hlc::timestamp::LC_BITS;

    /// A DN holding `(1, 10)`, `(2, 20)` and `(3, 30)`.
    fn dn_with_pairs() -> (Arc<StorageEngine>, Arc<DnService>) {
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), Arc::clone(&engine), Hlc::with_physical(TestClock::at(50)));
        let seed = (1..=3).map(|n| (key(n), WireWriteOp::Insert(pair(n, 10 * n)))).collect();
        let reply = dn.handle(NodeId(9), TxnMsg::CommitLocal { trx: TrxId(1), staged: staged(seed) });
        assert!(matches!(reply, TxnMsg::Committed { edited: 0, .. }), "{reply:?}");
        (engine, dn)
    }

    fn v_of(engine: &StorageEngine, n: i64) -> i64 {
        let row = engine.read(TableId(1), &key(n), u64::MAX, None).unwrap().unwrap();
        row.get(1).unwrap().as_int().unwrap()
    }

    #[test]
    fn duplicated_edit_carrying_message_applies_once_and_reports_the_same_count() {
        let (engine, dn) = dn_with_pairs();
        // 2PC: two rows edited, one key with no row. The second copy edits
        // nothing again (`v + 1` twice is the bug) and repeats vote and count.
        let prepare = TxnMsg::Prepare {
            trx: TrxId(5),
            peers: vec![],
            staged: staged_at(
                SEEDED,
                vec![(key(1), bump(99)), (key(77), bump(99)), (key(2), bump(99))],
            ),
        };
        let TxnMsg::Prepared { prepare_ts: t1, edited: n1 } = dn.handle(NodeId(9), prepare.clone())
        else {
            panic!("first copy must prepare")
        };
        let TxnMsg::Prepared { prepare_ts: t2, edited: n2 } = dn.handle(NodeId(9), prepare) else {
            panic!("second copy must re-ack")
        };
        assert_eq!((t1, n1), (t2, n2));
        assert_eq!(n1, 2, "the key with no row counts for nothing");
        dn.handle(NodeId(9), TxnMsg::Commit { trx: TrxId(5), commit_ts: t1 });
        assert_eq!((v_of(&engine, 1), v_of(&engine, 2), v_of(&engine, 3)), (11, 21, 30));
        // One-phase: the reply of the first copy was lost, the retry meets
        // the commit and must report the count the first copy would have.
        let local = TxnMsg::CommitLocal {
            trx: TrxId(6),
            staged: staged_at(u64::MAX >> 1, vec![(key(1), bump(99))]),
        };
        let TxnMsg::Committed { commit_ts: c1, edited: n1 } = dn.handle(NodeId(9), local.clone())
        else {
            panic!("first copy must commit")
        };
        let TxnMsg::Committed { commit_ts: c2, edited: n2 } = dn.handle(NodeId(9), local) else {
            panic!("second copy must re-ack")
        };
        assert_eq!((c1, n1), (c2, n2));
        assert_eq!(n1, 1);
        assert_eq!(v_of(&engine, 1), 12);
        assert_eq!(dn.metrics.duplicate_msgs.get(), 2);
        // An edit that keeps the row, or finds none, writes and counts nothing.
        let reply = dn.handle(
            NodeId(9),
            TxnMsg::CommitLocal { trx: TrxId(7), staged: staged(vec![(key(77), bump(99))]) },
        );
        assert!(matches!(reply, TxnMsg::Committed { edited: 0, .. }), "{reply:?}");
        assert!(!engine.has_active_txns());
    }

    #[test]
    fn refused_edit_rolls_back_every_edit_of_its_message() {
        let (engine, dn) = dn_with_pairs();
        let late = u64::MAX >> 1;
        let message = |trx, second: WireWriteOp| TxnMsg::Prepare {
            trx: TrxId(trx),
            peers: vec![],
            staged: staged_at(late, vec![(key(1), bump(99)), (key(2), second)]),
        };
        // The edit's own refusal (a row that fails validation) comes back typed.
        let reply = dn.handle(NodeId(9), message(5, bump(20)));
        assert!(matches!(reply, TxnMsg::Failed(Error::Schema { .. })), "{reply:?}");
        assert!(!engine.has_active_txns(), "rolled back at once");
        assert_eq!(v_of(&engine, 1), 10, "the first edit fell with the second");
        // So does the engine's: another transaction holds row 2.
        dn.handle(
            NodeId(9),
            TxnMsg::Write {
                trx: TrxId(6),
                snapshot_ts: late,
                table: TableId(1),
                key: key(2),
                op: WireWriteOp::Update(pair(2, 0)),
            },
        );
        let reply = dn.handle(NodeId(9), message(7, bump(99)));
        assert!(matches!(reply, TxnMsg::Failed(Error::WriteConflict { .. })), "{reply:?}");
        assert_eq!(engine.txn_state(TrxId(7)), Some(TxnState::Aborted));
        dn.handle(NodeId(9), TxnMsg::Abort { trx: TrxId(6) });
        assert_eq!((v_of(&engine, 1), v_of(&engine, 2)), (10, 20));
        assert!(!engine.has_active_txns());
    }

    #[test]
    fn edit_waits_out_a_prepared_writer_where_a_blind_update_bounces() {
        let (engine, dn) = dn_with_pairs();
        // Trx 5 holds row 1 PREPARED: voted, phase two still on its way.
        let holder = TxnMsg::Prepare {
            trx: TrxId(5),
            peers: vec![],
            staged: staged_at(SEEDED, vec![(key(1), bump(99))]),
        };
        let TxnMsg::Prepared { prepare_ts, .. } = dn.handle(NodeId(9), holder) else { panic!() };
        let next = |trx, op| TxnMsg::CommitLocal {
            trx: TrxId(trx),
            // The next statement of the same session: its snapshot is past
            // the holder's commit timestamp.
            staged: staged_at(prepare_ts + 1, vec![(key(1), op)]),
        };
        // A blind write has no read in front of it and bounces at once.
        let reply = dn.handle(NodeId(9), next(6, WireWriteOp::Update(pair(1, 0))));
        assert!(matches!(reply, TxnMsg::Failed(Error::WriteConflict { .. })), "{reply:?}");
        // The edit's read waits for the holder's outcome, as the `Read`
        // message it replaces did. Phase two lands only once the edit's
        // transaction has begun here, i.e. while its message is being served.
        std::thread::scope(|s| {
            s.spawn(|| {
                while engine.txn_state(TrxId(7)).is_none() {
                    std::thread::yield_now();
                }
                dn.handle(NodeId(9), TxnMsg::Commit { trx: TrxId(5), commit_ts: prepare_ts });
            });
            let reply = dn.handle(NodeId(9), next(7, bump(99)));
            assert!(matches!(reply, TxnMsg::Committed { edited: 1, .. }), "{reply:?}");
        });
        assert_eq!(v_of(&engine, 1), 12, "both increments stand");
    }

    #[test]
    fn duplicate_commit_and_late_abort_are_absorbed() {
        let clock = Hlc::with_physical(TestClock::at(100));
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), Arc::clone(&engine), clock);
        dn.handle(
            NodeId(9),
            TxnMsg::Write {
                trx: TrxId(5),
                snapshot_ts: 1,
                table: TableId(1),
                key: key(1),
                op: WireWriteOp::Insert(row(1)),
            },
        );
        let TxnMsg::Prepared { prepare_ts, .. } =
            dn.handle(NodeId(9), TxnMsg::Prepare { trx: TrxId(5), staged: Default::default(), peers: vec![] })
        else {
            panic!()
        };
        let c1 = dn.handle(NodeId(9), TxnMsg::Commit { trx: TrxId(5), commit_ts: prepare_ts });
        assert!(matches!(c1, TxnMsg::Committed { .. }));
        // Duplicate Commit re-acks instead of failing on the gone context.
        let c2 = dn.handle(NodeId(9), TxnMsg::Commit { trx: TrxId(5), commit_ts: prepare_ts });
        let TxnMsg::Committed { commit_ts, .. } = c2 else { panic!("{c2:?}") };
        assert_eq!(commit_ts, prepare_ts);
        // A late Abort (redelivered under loss) must not clobber the commit.
        let a = dn.handle(NodeId(9), TxnMsg::Abort { trx: TrxId(5) });
        assert!(matches!(a, TxnMsg::Ok));
        assert_eq!(engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), Some(row(1)));
        assert_eq!(dn.metrics.duplicate_msgs.get(), 2);
    }

    /// DN 1 and DN 2 on one fabric (no CN: the tests hand messages in).
    fn two_dns() -> (Arc<SimNet<TxnMsg>>, Arc<DnService>, Arc<DnService>) {
        let net = SimNet::new(LatencyMatrix::zero());
        let mk = |n: u64| {
            let engine = StorageEngine::in_memory();
            engine.create_table(TableId(1), TenantId(1));
            let dn = DnService::new(NodeId(n), engine, Hlc::with_physical(TestClock::at(100 * n)));
            net.register(NodeId(n), DcId(n), Arc::clone(&dn) as Arc<dyn Handler<TxnMsg>>);
            dn
        };
        let (dn1, dn2) = (mk(1), mk(2));
        (net, dn1, dn2)
    }

    /// `trx` inserting `row(n)` on `dn`, voted with peers DN 1 and DN 2.
    fn prepare_on(dn: &DnService, trx: u64, n: i64) -> u64 {
        let reply = dn.handle(
            NodeId(9),
            TxnMsg::Prepare {
                trx: TrxId(trx),
                staged: staged_at(1, vec![(key(n), WireWriteOp::Insert(row(n)))]),
                peers: vec![NodeId(1), NodeId(2)],
            },
        );
        let TxnMsg::Prepared { prepare_ts, .. } = reply else { panic!("{reply:?}") };
        prepare_ts
    }

    const NOW: ResolverConfig = ResolverConfig {
        interval: Duration::from_millis(5),
        in_doubt_after: Duration::ZERO,
        abandon_active_after: Duration::from_secs(60),
    };

    #[test]
    fn resolver_commits_when_every_peer_is_prepared() {
        let (net, dn1, dn2) = two_dns();
        // Both voted yes; phase two never came.
        let (t1, t2) = (prepare_on(&dn1, 5, 1), prepare_on(&dn2, 5, 2));
        // A peer that cannot be heard leaves the transaction in doubt.
        net.crash(NodeId(2));
        dn1.resolve_once(&net, &NOW);
        assert_eq!(dn1.in_doubt_count(), 1);
        net.restart_resume(NodeId(2));
        dn1.resolve_once(&net, &NOW);
        assert_eq!(dn1.in_doubt_count(), 0);
        assert_eq!(dn1.metrics.in_doubt_commits.get(), 1);
        // At the max of the votes: the coordinator's own rule.
        let commit_ts = t1.max(t2);
        assert_eq!(dn1.engine.txn_state(TrxId(5)), Some(TxnState::Committed { commit_ts }));
        assert_eq!(dn1.engine.read(TableId(1), &key(1), commit_ts, None).unwrap(), Some(row(1)));
        // DN2 then hears that DN1 committed, and commits at the same ts.
        dn2.resolve_once(&net, &NOW);
        assert_eq!(dn2.engine.txn_state(TrxId(5)), Some(TxnState::Committed { commit_ts }));
    }

    #[test]
    fn resolver_aborts_through_a_refusal() {
        let (net, dn1, dn2) = two_dns();
        // DN2's Prepare never arrived: asked, it refuses before it votes.
        prepare_on(&dn1, 6, 1);
        dn1.resolve_once(&net, &NOW);
        assert_eq!(dn1.in_doubt_count(), 0);
        assert_eq!(dn1.metrics.in_doubt_aborts.get(), 1);
        assert_eq!(dn1.engine.txn_state(TrxId(6)), Some(TxnState::Aborted));
        assert_eq!(dn1.engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), None);
        assert!(!dn1.engine.has_active_txns());
        // The refusal is final: the late Prepare is refused too.
        let late = dn2.handle(
            NodeId(9),
            TxnMsg::Prepare {
                trx: TrxId(6),
                staged: staged_at(1, vec![(key(2), WireWriteOp::Insert(row(2)))]),
                peers: vec![NodeId(1), NodeId(2)],
            },
        );
        assert!(matches!(late, TxnMsg::Failed(Error::PrepareRejected { .. })), "{late:?}");
        assert_eq!(dn2.engine.read(TableId(1), &key(2), u64::MAX, None).unwrap(), None);
    }

    #[test]
    fn a_refused_transaction_stays_refused() {
        let (_net, dn1, dn2) = two_dns();
        let write = |trx: u64| TxnMsg::Write {
            trx: TrxId(trx),
            snapshot_ts: 1,
            table: TableId(1),
            key: key(7),
            op: WireWriteOp::Insert(row(7)),
        };
        let prepare = |trx: u64| TxnMsg::Prepare {
            trx: TrxId(trx),
            staged: Default::default(),
            peers: vec![NodeId(1), NodeId(2)],
        };
        // Trx 7 aborted on DN1; trx 8 refused on DN2, which held it ACTIVE.
        assert!(matches!(dn1.handle(NodeId(9), write(7)), TxnMsg::Ok));
        dn1.handle(NodeId(9), TxnMsg::Abort { trx: TrxId(7) });
        assert!(matches!(dn2.handle(NodeId(9), write(8)), TxnMsg::Ok));
        let vote = dn2.handle(NodeId(1), TxnMsg::Vote { trx: TrxId(8) });
        assert!(matches!(vote, TxnMsg::Voted(Vote::Refused)), "{vote:?}");
        for (dn, trx) in [(&dn1, 7), (&dn2, 8)] {
            // A duplicated Write, then a Prepare: both refused, nothing installed.
            let w = dn.handle(NodeId(9), write(trx));
            assert!(matches!(w, TxnMsg::Failed(Error::TxnAborted { .. })), "{w:?}");
            let p = dn.handle(NodeId(9), prepare(trx));
            assert!(matches!(p, TxnMsg::Failed(Error::PrepareRejected { .. })), "{p:?}");
            assert_eq!(dn.engine.txn_state(TrxId(trx)), Some(TxnState::Aborted));
            assert_eq!(dn.engine.read(TableId(1), &key(7), u64::MAX, None).unwrap(), None);
            assert!(!dn.engine.has_active_txns());
        }
        // A peer asking again hears the same answer.
        let again = dn2.handle(NodeId(1), TxnMsg::Vote { trx: TrxId(8) });
        assert!(matches!(again, TxnMsg::Voted(Vote::Refused)), "{again:?}");
    }

    #[test]
    fn resolver_expires_abandoned_active_txn() {
        use polardbx_simnet::LatencyMatrix;
        let net = SimNet::<TxnMsg>::new(LatencyMatrix::zero());
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), engine, Hlc::with_physical(TestClock::at(100)));
        net.register(NodeId(1), DcId(1), dn.clone());
        dn.handle(
            NodeId(9),
            TxnMsg::Write {
                trx: TrxId(7),
                snapshot_ts: 1,
                table: TableId(1),
                key: key(3),
                op: WireWriteOp::Insert(row(3)),
            },
        );
        assert!(dn.engine.has_active_txns());
        let cfg = ResolverConfig {
            interval: Duration::from_millis(5),
            in_doubt_after: Duration::from_millis(10),
            abandon_active_after: Duration::from_millis(20),
        };
        std::thread::sleep(Duration::from_millis(30));
        dn.resolve_once(&net, &cfg);
        assert!(!dn.engine.has_active_txns(), "abandoned ACTIVE must expire");
        assert_eq!(dn.metrics.expired_active.get(), 1);
    }

    #[test]
    fn abort_cleans_up() {
        let clock = Hlc::with_physical(TestClock::at(1));
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), Arc::clone(&engine), clock);
        dn.handle(
            NodeId(9),
            TxnMsg::Write {
                trx: TrxId(3),
                snapshot_ts: 1,
                table: TableId(1),
                key: key(1),
                op: WireWriteOp::Insert(row(1)),
            },
        );
        dn.handle(NodeId(9), TxnMsg::Abort { trx: TrxId(3) });
        assert_eq!(engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), None);
        assert!(!engine.has_active_txns());
    }
}
