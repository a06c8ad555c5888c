//! The CN-side transaction coordinator.

use std::sync::Arc;

use parking_lot::Mutex;

use polardbx_common::metrics::{InFlight, InFlightGuard};
use polardbx_common::{
    Error, HistoryRecorder, IdGenerator, Key, NodeId, Result, Row, TableId, TrxId, TxnEvent,
};
use polardbx_hlc::{Clock, HlcTimestamp};
use polardbx_simnet::SimNet;

use crate::config::TxnConfig;
use crate::metrics::TxnMetrics;
use crate::msg::{StagedWrite, StagedWrites, TxnMsg, WireWriteOp};
use crate::route::{AccessObserver, CommitGuard, PartTouch, RoutingFence};

/// Upper bound on distinct partitions a transaction can pin routing epochs
/// for (and on the write-partition set streamed to the access observer).
/// Fixed so the commit hot path stays allocation-free; bulk loaders that
/// exceed it should route unfenced (moves never run during loads).
pub const MAX_TOUCHED: usize = 32;

/// A hook invoked at named points in the commit protocol, letting chaos
/// tests inject failures (e.g. crash the CN) at exact protocol positions.
pub type Failpoint = Arc<dyn Fn(&'static str) + Send + Sync>;

/// Deliberate protocol breakages used to validate the isolation checker
/// (`sitcheck` mutation runs): each one removes a safety step HLC-SI
/// depends on, and the checker must catch the resulting anomaly. Never
/// enable these outside checker validation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolMutations {
    /// Skip the coordinator's commit-time `ClockUpdate` (step ⑥): later
    /// transactions from this CN may take snapshots below commit
    /// timestamps they causally follow.
    pub skip_commit_clock_update: bool,
    /// Silently drop this participant from the 2PC fan-out (no vote
    /// request, no phase-two Commit), while still committing the others:
    /// its writes are lost even though the coordinator reports success.
    /// Writes staged for it still reach it, as plain `Write`s: the
    /// mutation drops the vote a commit-round message carries, not the
    /// statement.
    pub drop_participant: Option<NodeId>,
    /// Skip the routing-epoch fence at commit: a transaction routed before
    /// a partition re-home commits to the *old* home as if nothing moved,
    /// splitting the partition's history across two DNs.
    pub skip_routing_epoch_fence: bool,
}

/// A coordinator living on a CN node.
pub struct Coordinator {
    /// The CN node id on the fabric.
    pub me: NodeId,
    net: Arc<SimNet<TxnMsg>>,
    clock: Arc<dyn Clock>,
    trx_ids: Arc<IdGenerator>,
    config: TxnConfig,
    metrics: Arc<TxnMetrics>,
    failpoint: Option<Failpoint>,
    recorder: Option<Arc<HistoryRecorder>>,
    mutations: ProtocolMutations,
    fence: Option<Arc<dyn RoutingFence>>,
    observer: Option<Arc<dyn AccessObserver>>,
    /// Counts each open transaction as TP work, so the CN's AP governor
    /// paces while one is open.
    tp_work: InFlight,
    /// Serializes `begin`'s (ClockNow, Begin-record) pair against commit's
    /// (ClockUpdate, Commit-record) pair — only when a recorder is
    /// installed. The checker infers session order from record sequence
    /// numbers, so each pair must be atomic or a commit landing between a
    /// racing begin's clock read and its Begin record shows up as a false
    /// G-SIb "lost ClockUpdate". Untapped coordinators never touch it.
    session_order: Mutex<()>,
}

impl Coordinator {
    /// A coordinator using `clock` for timestamps. Share `trx_ids` between
    /// coordinators for globally unique transaction ids.
    pub fn new(
        me: NodeId,
        net: Arc<SimNet<TxnMsg>>,
        clock: Arc<dyn Clock>,
        trx_ids: Arc<IdGenerator>,
    ) -> Coordinator {
        Coordinator {
            me,
            net,
            clock,
            trx_ids,
            config: TxnConfig::default(),
            metrics: Arc::new(TxnMetrics::new()),
            failpoint: None,
            recorder: None,
            mutations: ProtocolMutations::default(),
            fence: None,
            observer: None,
            tp_work: InFlight::new(),
            session_order: Mutex::named("txn.session_order", ()),
        }
    }

    /// Builder: override the retry policy.
    pub fn with_config(mut self, config: TxnConfig) -> Coordinator {
        self.config = config;
        self
    }

    /// Builder: share a metrics sink (retry and in-doubt counters).
    pub fn with_metrics(mut self, metrics: Arc<TxnMetrics>) -> Coordinator {
        self.metrics = metrics;
        self
    }

    /// Builder: install a failpoint hook. The 2PC commit path announces
    /// `"txn.after_votes"`: every participant voted yes, phase two is not
    /// yet sent.
    pub fn with_failpoint(mut self, fp: Failpoint) -> Coordinator {
        self.failpoint = Some(fp);
        self
    }

    /// Builder: record transaction begins and global commit/abort outcomes
    /// to a history recorder (isolation checking).
    pub fn with_recorder(mut self, rec: Arc<HistoryRecorder>) -> Coordinator {
        self.recorder = Some(rec);
        self
    }

    /// Builder: enable deliberate protocol breakages. Checker-validation
    /// (`sitcheck` mutation runs) only.
    pub fn with_mutations(mut self, mutations: ProtocolMutations) -> Coordinator {
        self.mutations = mutations;
        self
    }

    /// Builder: validate pinned routing epochs against `fence` at commit,
    /// so transactions routed before a partition re-home abort (retryably)
    /// instead of committing to the old home.
    pub fn with_fence(mut self, fence: Arc<dyn RoutingFence>) -> Coordinator {
        self.fence = Some(fence);
        self
    }

    /// Builder: stream each commit's write-partition set to `observer`
    /// (the adaptive placer's co-access sketch).
    pub fn with_observer(mut self, observer: Arc<dyn AccessObserver>) -> Coordinator {
        self.observer = Some(observer);
        self
    }

    /// Builder: count each open transaction on `tp_work`, the gauge of TP
    /// work the CN's AP governor reads.
    pub fn with_tp_work(mut self, tp_work: InFlight) -> Coordinator {
        self.tp_work = tp_work;
        self
    }

    fn record(&self, ev: TxnEvent) {
        if let Some(rec) = &self.recorder {
            rec.record(ev);
        }
    }

    /// This coordinator's metrics.
    pub fn metrics(&self) -> &Arc<TxnMetrics> {
        &self.metrics
    }

    fn hit_failpoint(&self, point: &'static str) {
        if let Some(fp) = &self.failpoint {
            fp(point);
        }
    }

    /// One commit-path round with bounded, deterministic exponential
    /// backoff: every message goes out together ([`SimNet::call_many`]),
    /// and those whose exchange timed out or hit a transient network
    /// failure go out again, together, after the backoff. Replies come back
    /// in request order. Only used for idempotent messages (Prepare,
    /// CommitLocal): a lost *reply* means the handler already ran, and
    /// retrying must be harmless.
    fn round_retry(&self, msgs: &[(NodeId, TxnMsg)]) -> Vec<Result<TxnMsg>> {
        let mut replies = self.net.call_many(self.me, msgs.to_vec());
        let mut attempt = 1u32;
        loop {
            let lost: Vec<usize> = replies
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Err(Error::Timeout { .. } | Error::Network { .. })))
                .map(|(i, _)| i)
                .collect();
            if lost.is_empty() || attempt >= self.config.max_attempts {
                return replies;
            }
            self.metrics.rpc_retries.add(lost.len() as u64);
            std::thread::sleep(self.config.backoff(attempt));
            attempt += 1;
            let again = lost.iter().map(|&i| msgs[i].clone()).collect();
            for (i, reply) in lost.into_iter().zip(self.net.call_many(self.me, again)) {
                replies[i] = reply;
            }
        }
    }

    /// Begin a distributed transaction: `snapshot_ts = ClockNow()` (step ①;
    /// for TSO this is the first oracle round trip).
    pub fn begin(&self) -> DistTxn<'_> {
        let trx = TrxId(self.trx_ids.next_id());
        // Snapshot acquisition and the Begin record form one atomic step
        // relative to commit's (ClockUpdate, Commit-record) pair; see the
        // `session_order` field for why the checker needs this.
        let _order = self.recorder.is_some().then(|| self.session_order.lock());
        let snapshot_ts = self.clock.now();
        self.record(TxnEvent::Begin { trx, session: self.me, snapshot_ts: snapshot_ts.raw() });
        drop(_order);
        DistTxn {
            coord: self,
            _tp_work: self.tp_work.enter(),
            trx,
            snapshot_ts,
            participants: Vec::new(),
            write_sets: Vec::new(),
            touched: [PartTouch { table: TableId(0), dn: NodeId(0), epoch: 0 }; MAX_TOUCHED],
            touched_len: 0,
            touched_overflow: false,
            pins: [(TableId(0), 0); MAX_TOUCHED],
            pins_len: 0,
            finished: false,
        }
    }

    /// Autocommit snapshot read outside any transaction.
    pub fn read_autocommit(
        &self,
        dn: NodeId,
        table: TableId,
        key: &Key,
    ) -> Result<Option<Row>> {
        let snapshot_ts = self.clock.now().raw();
        match self.net.call(
            self.me,
            dn,
            TxnMsg::Read { trx: TrxId(0), snapshot_ts, table, key: key.clone() },
        )? {
            TxnMsg::RowResult(r) => Ok(r),
            TxnMsg::Failed(e) => Err(e),
            other => Err(Error::execution(format!("unexpected reply {other:?}"))),
        }
    }

    /// The coordinator's clock (exposed for session-level reuse).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }
}

/// One read of a statement's read set (see [`DistTxn::read_many`]).
#[derive(Debug, Clone)]
pub enum ReadOp {
    /// Snapshot point read of one key.
    Point(Key),
    /// Snapshot range scan; bounds as in [`DistTxn::scan`].
    Scan {
        /// Inclusive lower bound (`None` = unbounded).
        lower: Option<Key>,
        /// Exclusive upper bound (`None` = unbounded).
        upper: Option<Key>,
    },
}

/// An in-flight distributed transaction handle.
pub struct DistTxn<'a> {
    coord: &'a Coordinator,
    /// Open until dropped: TP work in flight.
    _tp_work: InFlightGuard,
    trx: TrxId,
    snapshot_ts: HlcTimestamp,
    /// Every DN a message of this transaction was sent to (reads included)
    /// — these may hold per-transaction state at the engine and must be
    /// released on any outcome.
    participants: Vec<NodeId>,
    /// The DNs this transaction writes — only these vote in the commit —
    /// in first-write order, each with the writes staged for it: not sent
    /// yet, delivered by its commit-round message. A DN written only
    /// through [`DistTxn::write`] has none.
    write_sets: Vec<(NodeId, Vec<StagedWrite>)>,
    /// Write-touched partitions, fixed-size: streamed to the access
    /// observer on commit without allocating.
    touched: [PartTouch; MAX_TOUCHED],
    touched_len: usize,
    touched_overflow: bool,
    /// Routing epochs pinned by the driver, one per routed partition,
    /// validated against the fence at commit.
    pins: [(TableId, u64); MAX_TOUCHED],
    pins_len: usize,
    finished: bool,
}

impl DistTxn<'_> {
    /// This transaction's id.
    pub fn id(&self) -> TrxId {
        self.trx
    }

    /// Participant DNs sent a message so far (reads included).
    #[cfg(test)]
    pub fn participants(&self) -> usize {
        self.participants.len()
    }

    /// DNs written, staged writes included — the set that decides 1PC vs
    /// 2PC.
    #[cfg(test)]
    pub fn write_participants(&self) -> usize {
        self.write_sets.len()
    }

    fn note_participant(&mut self, dn: NodeId) {
        if !self.participants.contains(&dn) {
            self.participants.push(dn);
        }
    }

    /// The writes staged for `dn`, which from now on votes in the commit.
    fn write_set(&mut self, dn: NodeId) -> &mut Vec<StagedWrite> {
        let at = match self.write_sets.iter().position(|(d, _)| *d == dn) {
            Some(at) => at,
            None => {
                self.write_sets.push((dn, Vec::new()));
                self.write_sets.len() - 1
            }
        };
        &mut self.write_sets[at].1
    }

    /// Pin the routing epoch captured when a statement was routed to
    /// `table` (a shard table). At commit every pinned epoch is validated
    /// against the coordinator's fence; a re-homed partition fails the
    /// check and the transaction aborts retryably. The first pin per
    /// table wins — later re-routes of the same partition inside one
    /// transaction must not weaken the check.
    pub fn pin_epoch(&mut self, table: TableId, epoch: u64) -> Result<()> {
        for (t, _) in &self.pins[..self.pins_len] {
            if *t == table {
                return Ok(());
            }
        }
        if self.pins_len == MAX_TOUCHED {
            return Err(Error::invalid("too many pinned partitions in one transaction"));
        }
        self.pins[self.pins_len] = (table, epoch);
        self.pins_len += 1;
        Ok(())
    }

    /// Epoch pinned for `table`, or 0 when the driver routed unfenced.
    fn pinned_epoch(&self, table: TableId) -> u64 {
        for (t, e) in &self.pins[..self.pins_len] {
            if *t == table {
                return *e;
            }
        }
        0
    }

    /// Record a write-touched partition in the fixed-size set.
    // lint:hotpath
    fn note_touch(&mut self, dn: NodeId, table: TableId) {
        for t in &self.touched[..self.touched_len] {
            if t.table == table && t.dn == dn {
                return;
            }
        }
        if self.touched_len == MAX_TOUCHED {
            self.touched_overflow = true;
            return;
        }
        self.touched[self.touched_len] =
            PartTouch { table, dn, epoch: self.pinned_epoch(table) };
        self.touched_len += 1;
    }

    /// Stream the write-partition set to the access observer (if any).
    // lint:hotpath
    fn observe(&self, one_phase: bool) {
        if self.touched_overflow {
            return;
        }
        if let Some(obs) = &self.coord.observer {
            obs.observe_commit(&self.touched[..self.touched_len], one_phase);
        }
    }

    /// Validate every pinned routing epoch and enter the per-shard commit
    /// gates. The guards must stay alive until the commit outcome is
    /// decided and phase-two messages are handed to the fabric, so a
    /// cutover waits for us. Returns a retryable error when a pinned
    /// partition was frozen or re-homed since it was routed.
    fn enter_fence(&self) -> Result<[CommitGuard; MAX_TOUCHED]> {
        let mut guards: [CommitGuard; MAX_TOUCHED] =
            std::array::from_fn(|_| CommitGuard::none());
        let Some(fence) = &self.coord.fence else { return Ok(guards) };
        if self.coord.mutations.skip_routing_epoch_fence {
            return Ok(guards);
        }
        for (i, (table, epoch)) in self.pins[..self.pins_len].iter().enumerate() {
            // On error, already-entered gates release via Drop.
            guards[i] = fence.enter_commit(*table, *epoch)?;
        }
        Ok(guards)
    }

    fn call(&self, dn: NodeId, msg: TxnMsg) -> Result<TxnMsg> {
        self.coord.net.call(self.coord.me, dn, msg)
    }

    /// Execute a write on `dn` now (step ②): one blocking round trip, and
    /// the participant's verdict on this write (`WriteConflict`,
    /// `DuplicateKey`, …) before the next statement. For a driver that
    /// decides what to do next from that verdict; a statement that already
    /// knows its whole write set stages it with [`DistTxn::stage_write`]
    /// (which is also the only way to learn how many rows a
    /// [`WireWriteOp::Edit`] wrote: this reply carries no count).
    pub fn write(
        &mut self,
        dn: NodeId,
        table: TableId,
        key: Key,
        op: WireWriteOp,
    ) -> Result<()> {
        self.note_participant(dn);
        self.write_set(dn);
        self.note_touch(dn, table);
        match self.call(
            dn,
            TxnMsg::Write { trx: self.trx, snapshot_ts: self.snapshot_ts.raw(), table, key, op },
        )? {
            TxnMsg::Ok => Ok(()),
            TxnMsg::Failed(e) => Err(e),
            other => Err(Error::execution(format!("unexpected reply {other:?}"))),
        }
    }

    /// Stage a write for `dn` without sending anything: it travels in the
    /// one message [`DistTxn::commit`] sends `dn`, which applies the
    /// staged writes in order — after any [`DistTxn::write`] already sent
    /// there — and then votes. The participant's verdict on the write
    /// therefore arrives as `commit`'s error, typed as `write` would have
    /// returned it. A staged [`WireWriteOp::Edit`] is a whole
    /// read-modify-write with no round of its own; how many rows the
    /// staged edits wrote comes back from [`DistTxn::commit_counting`].
    pub fn stage_write(&mut self, dn: NodeId, table: TableId, key: Key, op: WireWriteOp) {
        self.note_touch(dn, table);
        self.write_set(dn).push((table, key, op));
    }

    /// Snapshot point read on `dn`.
    pub fn read(&mut self, dn: NodeId, table: TableId, key: &Key) -> Result<Option<Row>> {
        self.note_participant(dn);
        match self.call(
            dn,
            TxnMsg::Read {
                trx: self.trx,
                snapshot_ts: self.snapshot_ts.raw(),
                table,
                key: key.clone(),
            },
        )? {
            TxnMsg::RowResult(r) => Ok(r),
            TxnMsg::Failed(e) => Err(e),
            other => Err(Error::execution(format!("unexpected reply {other:?}"))),
        }
    }

    /// Snapshot range scan on `dn`.
    pub fn scan(
        &mut self,
        dn: NodeId,
        table: TableId,
        lower: Option<Key>,
        upper: Option<Key>,
    ) -> Result<Vec<(Key, Row)>> {
        self.note_participant(dn);
        match self.call(
            dn,
            TxnMsg::Scan {
                trx: self.trx,
                snapshot_ts: self.snapshot_ts.raw(),
                table,
                lower,
                upper,
            },
        )? {
            TxnMsg::Rows(r) => Ok(r),
            TxnMsg::Failed(e) => Err(e),
            other => Err(Error::execution(format!("unexpected reply {other:?}"))),
        }
    }

    /// A statement's whole read set in one blocking round: the same `Read`
    /// / `Scan` messages [`DistTxn::read`] and [`DistTxn::scan`] send, all
    /// at once. Returns, per read and in the order given, the rows it
    /// found (none or one for a point read). Any failed read fails the
    /// round, after every reply is in.
    pub fn read_many(
        &mut self,
        reads: Vec<(NodeId, TableId, ReadOp)>,
    ) -> Result<Vec<Vec<(Key, Row)>>> {
        let (trx, snapshot_ts) = (self.trx, self.snapshot_ts.raw());
        let mut round = Vec::with_capacity(reads.len());
        for (dn, table, op) in &reads {
            self.note_participant(*dn);
            let table = *table;
            round.push((
                *dn,
                match op.clone() {
                    ReadOp::Point(key) => TxnMsg::Read { trx, snapshot_ts, table, key },
                    ReadOp::Scan { lower, upper } => {
                        TxnMsg::Scan { trx, snapshot_ts, table, lower, upper }
                    }
                },
            ));
        }
        let replies = self.coord.net.call_many(self.coord.me, round);
        replies
            .into_iter()
            .zip(reads)
            .map(|(reply, (_, _, op))| match (reply?, op) {
                (TxnMsg::RowResult(row), ReadOp::Point(key)) => {
                    Ok(row.map(|r| (key, r)).into_iter().collect())
                }
                (TxnMsg::Rows(rows), ReadOp::Scan { .. }) => Ok(rows),
                (TxnMsg::Failed(e), _) => Err(e),
                (other, _) => Err(Error::execution(format!("unexpected reply {other:?}"))),
            })
            .collect()
    }

    /// Commit. The decision is keyed off the *write* set: DNs that only
    /// served snapshot reads hold no votes under SI, so they are released
    /// up front and never pay a Prepare. Every write DN is sent exactly one
    /// message, all in one round: the writes staged for it (possibly none)
    /// and the vote request. A single write DN → `CommitLocal`, one-phase
    /// (the participant's `ClockAdvance` is the commit timestamp), even
    /// when reads touched other DNs. Several → `Prepare`, full 2PC with
    /// `commit_ts = max(prepare_ts)` and one batched `ClockUpdate` at the
    /// coordinator (the §IV contention optimization). Returns the commit
    /// timestamp.
    ///
    /// The routing fence is entered before that round leaves — so a
    /// transaction routed before a cutover aborts before any staged write
    /// is sent — and held until phase two is handed to the fabric.
    ///
    /// A participant's refusal comes back as its own error: the typed
    /// verdict on a staged write (`WriteConflict`, `DuplicateKey`,
    /// `Throttled`, …) exactly as [`DistTxn::write`] would have returned
    /// it, or `PrepareRejected` naming the node when the vote itself
    /// failed.
    ///
    /// A lost message with no refusal beside it means the outcome is IN
    /// DOUBT, and the commit returns [`Error::InDoubt`], which is not
    /// retryable: the transaction may have committed, and running it again
    /// could apply it twice. 2PC: the votes decide it — the transaction
    /// commits iff every participant is PREPARED — and the participants'
    /// resolvers settle it by asking each other; this coordinator posts
    /// nothing, for it never aborts a PREPARED participant on its own.
    /// One-phase: the one participant whose answer was lost already
    /// decided. Any other error means the transaction aborted.
    pub fn commit(self) -> Result<u64> {
        self.commit_counting().map(|(commit_ts, _)| commit_ts)
    }

    /// [`DistTxn::commit`] that also returns, after the commit timestamp,
    /// how many rows the staged [`WireWriteOp::Edit`]s wrote, summed over
    /// the participants' replies: the affected count of a statement whose
    /// read-modify-writes ran where the rows live.
    pub fn commit_counting(mut self) -> Result<(u64, u64)> {
        self.finished = true;
        let mut write_sets = std::mem::take(&mut self.write_sets);
        let votes = |dn: &NodeId| write_sets.iter().any(|(w, _)| w == dn);
        // Release DNs that only served reads: their snapshot reads are
        // already consistent and they hold no write intents, so they play
        // no part in the commit decision. (The engine records no history
        // event for aborting a writeless transaction.)
        for dn in self.participants.iter().filter(|dn| !votes(dn)) {
            self.post_abort(*dn);
        }
        if write_sets.is_empty() {
            let commit_ts = self.snapshot_ts.raw(); // wrote-nothing transaction
            self.absorb_and_record_commit(commit_ts, false);
            return Ok((commit_ts, 0));
        }
        // Routing-epoch fence: validate before anything of the commit round
        // is paid for, and hold the commit gates until phase two is handed
        // to the fabric so a cutover waits for this commit.
        let _fence = match self.enter_fence() {
            Ok(guards) => guards,
            Err(e) => {
                // Nothing of the round has left: only a DN an earlier
                // message reached holds anything to roll back.
                for dn in self.participants.iter().filter(|dn| votes(dn)) {
                    self.post_abort(*dn);
                }
                self.record_abort();
                return Err(e);
            }
        };
        let one_phase = write_sets.len() == 1;
        let (trx, snapshot_ts) = (self.trx, self.snapshot_ts.raw());
        // The drop_participant mutation silently forgets one DN: it gets
        // neither a vote request nor a phase-two Commit, while the rest of
        // the transaction commits normally.
        if let (Some(victim), false) = (self.coord.mutations.drop_participant, one_phase) {
            if let Some(at) = write_sets.iter().position(|(dn, _)| *dn == victim) {
                for (table, key, op) in write_sets.remove(at).1 {
                    let _ = self.call(victim, TxnMsg::Write { trx, snapshot_ts, table, key, op });
                }
            }
        }
        let peers: Vec<NodeId> =
            if one_phase { Vec::new() } else { write_sets.iter().map(|(dn, _)| *dn).collect() };
        let round: Vec<(NodeId, TxnMsg)> = write_sets
            .into_iter()
            .map(|(dn, writes)| {
                let staged = StagedWrites { snapshot_ts, writes };
                let vote = if one_phase {
                    TxnMsg::CommitLocal { trx, staged }
                } else {
                    TxnMsg::Prepare { trx, staged, peers: peers.clone() }
                };
                (dn, vote)
            })
            .collect();
        let abort_voters = || round.iter().for_each(|(dn, _)| self.post_abort(*dn));
        // Both messages are idempotent at the participant (a duplicate gets
        // the recorded timestamp and re-applies nothing), so the round is
        // safe to retry.
        let (mut commit_ts, mut edited) = (0u64, 0u64);
        let (mut refused, mut unheard) = (None, None);
        for reply in self.coord.round_retry(&round) {
            match reply {
                // Step ⑤: commit_ts = max(prepare_ts).
                Ok(TxnMsg::Prepared { prepare_ts, edited: n }) if !one_phase => {
                    commit_ts = commit_ts.max(prepare_ts);
                    edited += n;
                }
                Ok(TxnMsg::Committed { commit_ts: ts, edited: n }) if one_phase => {
                    commit_ts = ts;
                    edited += n;
                }
                Ok(TxnMsg::Failed(e)) => refused = refused.or(Some(e)),
                Ok(other) => {
                    refused =
                        refused.or(Some(Error::execution(format!("unexpected reply {other:?}"))))
                }
                Err(e) => unheard = unheard.or(Some(e)),
            }
        }
        // A participant's verdict says more than a lost message beside it:
        // a refusal decides, and the voters roll back.
        if let Some(e) = refused {
            abort_voters();
            self.record_abort();
            return Err(e);
        }
        if let Some(e) = unheard {
            // In doubt. 2PC: the PREPARED voters settle it with the unheard
            // one, so nothing is posted. One-phase: when the participant's
            // answer was lost it may have committed; the Abort is then a
            // no-op there, otherwise it rolls back what a `write` left
            // behind — but the outcome is the participant's to record.
            if one_phase {
                abort_voters();
            }
            return Err(Error::InDoubt { what: format!("commit of {trx}: {e}") });
        }
        if one_phase {
            self.coord.metrics.one_phase_commits.inc();
            self.observe(true);
            // Absorb the participant's timestamp so later transactions
            // from this CN observe it.
            self.absorb_and_record_commit(commit_ts, true);
            return Ok((commit_ts, edited));
        }
        self.coord.hit_failpoint("txn.after_votes");
        // Phase two is asynchronous: post and return. New readers
        // hitting PREPARED versions wait for the decision, so this
        // is safe under HLC-SI (§IV case 2).
        for (dn, _) in &round {
            let _ = self.coord.net.post(self.coord.me, *dn, TxnMsg::Commit { trx, commit_ts });
        }
        self.coord.metrics.two_phase_commits.inc();
        self.observe(false);
        // Step ⑥: a single batched ClockUpdate, paired atomically
        // with the commit record.
        self.absorb_and_record_commit(commit_ts, true);
        Ok((commit_ts, edited))
    }

    /// Abort everywhere.
    pub fn abort(mut self) {
        self.finished = true;
        self.participants.iter().for_each(|dn| self.post_abort(*dn));
        self.record_abort();
    }

    fn post_abort(&self, dn: NodeId) {
        let _ = self.coord.net.post(self.coord.me, dn, TxnMsg::Abort { trx: self.trx });
    }

    /// Absorb `commit_ts` into the CN clock (step ⑥, unless this is a
    /// wrote-nothing commit with nothing to absorb) and record the global
    /// commit outcome, as ONE atomic step relative to `begin`'s
    /// (ClockNow, Begin-record) pair — see `Coordinator::session_order`.
    fn absorb_and_record_commit(&self, commit_ts: u64, absorb: bool) {
        let _order =
            self.coord.recorder.is_some().then(|| self.coord.session_order.lock());
        if absorb && !self.coord.mutations.skip_commit_clock_update {
            self.coord.clock.update(HlcTimestamp::from_raw(commit_ts));
        }
        self.record_commit(commit_ts);
    }

    /// Record the global commit outcome at the coordinator.
    fn record_commit(&self, commit_ts: u64) {
        self.coord
            .record(TxnEvent::Commit { trx: self.trx, node: self.coord.me, commit_ts });
    }

    /// Record the global abort outcome at the coordinator.
    fn record_abort(&self) {
        self.coord.record(TxnEvent::Abort { trx: self.trx, node: self.coord.me });
    }
}

impl Drop for DistTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.participants.iter().for_each(|dn| self.post_abort(*dn));
            self.record_abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{DcId, TenantId, Value};
    use polardbx_hlc::{Hlc, TestClock};
    use polardbx_simnet::{Handler, LatencyMatrix};
    use polardbx_storage::{StorageEngine, TxnState};
    use std::time::Duration;

    use crate::msg::testing::bump;
    use crate::participant::DnService;

    struct CnStub;
    impl Handler<TxnMsg> for CnStub {
        fn handle(&self, _f: NodeId, m: TxnMsg) -> TxnMsg {
            m
        }
    }

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(n), Value::Int(v)])
    }

    const T: TableId = TableId(1);

    /// Three DNs in three DCs plus one CN coordinator, all on HLC clocks.
    fn cluster() -> (Arc<SimNet<TxnMsg>>, Coordinator, Vec<Arc<DnService>>) {
        let net = SimNet::new(LatencyMatrix::zero());
        let mut dns = Vec::new();
        for i in 1..=3u64 {
            let clock = Hlc::with_physical(TestClock::at(1000 * i)); // skewed clocks!
            let engine = StorageEngine::in_memory();
            engine.create_table(T, TenantId(1));
            let dn = DnService::new(NodeId(i), engine, clock);
            net.register(NodeId(i), DcId(i), dn.clone() as Arc<dyn Handler<TxnMsg>>);
            dns.push(dn);
        }
        net.register(NodeId(9), DcId(1), Arc::new(CnStub));
        let coord = Coordinator::new(
            NodeId(9),
            Arc::clone(&net),
            Hlc::with_physical(TestClock::at(500)),
            Arc::new(IdGenerator::new()),
        );
        (net, coord, dns)
    }

    fn await_visible(dn: &DnService, k: &Key, timeout: Duration) -> Option<Row> {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if let Ok(Some(r)) = dn.engine.read(T, k, u64::MAX, None) {
                return Some(r);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn cross_shard_transaction_commits_atomically() {
        let (_net, coord, dns) = cluster();
        let mut txn = coord.begin();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 100))).unwrap();
        txn.write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 200))).unwrap();
        txn.write(NodeId(3), T, key(3), WireWriteOp::Insert(row(3, 300))).unwrap();
        let commit_ts = txn.commit().unwrap();
        assert!(commit_ts > 0);
        // Asynchronous phase two: rows land shortly after.
        assert_eq!(await_visible(&dns[0], &key(1), Duration::from_secs(1)), Some(row(1, 100)));
        assert_eq!(await_visible(&dns[1], &key(2), Duration::from_secs(1)), Some(row(2, 200)));
        assert_eq!(await_visible(&dns[2], &key(3), Duration::from_secs(1)), Some(row(3, 300)));
    }

    #[test]
    fn single_participant_uses_one_phase() {
        let (net, coord, dns) = cluster();
        let before = net.stats.snapshot().0;
        let mut txn = coord.begin();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        txn.commit().unwrap();
        let after = net.stats.snapshot().0;
        // Write + CommitLocal = 2 sync calls; a 2PC would need 3+.
        assert_eq!(after - before, 2);
        assert!(dns[0].engine.read(T, &key(1), u64::MAX, None).unwrap().is_some());
    }

    #[test]
    fn commit_ts_is_max_of_prepares_and_coordinator_learns_it() {
        let (_net, coord, _dns) = cluster();
        let mut txn = coord.begin();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        txn.write(NodeId(3), T, key(3), WireWriteOp::Insert(row(3, 3))).unwrap();
        let commit_ts = txn.commit().unwrap();
        // DN3's clock started at pt=3000, far ahead of the others; the max
        // rule means commit_ts reflects it.
        assert!(HlcTimestamp::from_raw(commit_ts).pt() >= 3000);
        // And the coordinator's clock absorbed it (batched ClockUpdate).
        assert!(coord.clock().now().raw() >= commit_ts);
    }

    #[test]
    fn snapshot_isolation_across_shards() {
        let (_net, coord, dns) = cluster();
        // Seed two rows on different DNs.
        let mut seed = coord.begin();
        seed.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 50))).unwrap();
        seed.write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 50))).unwrap();
        seed.commit().unwrap();
        await_visible(&dns[0], &key(1), Duration::from_secs(1)).unwrap();
        await_visible(&dns[1], &key(2), Duration::from_secs(1)).unwrap();

        // Reader takes its snapshot BEFORE the transfer commits.
        let mut reader = coord.begin();
        let r1_before = reader.read(NodeId(1), T, &key(1)).unwrap().unwrap();

        // A transfer moves 10 from key1 (DN1) to key2 (DN2).
        let mut transfer = coord.begin();
        transfer.write(NodeId(1), T, key(1), WireWriteOp::Update(row(1, 40))).unwrap();
        transfer.write(NodeId(2), T, key(2), WireWriteOp::Update(row(2, 60))).unwrap();
        transfer.commit().unwrap();
        await_visible(&dns[1], &key(2), Duration::from_secs(1)).unwrap();

        // The reader must still see the OLD value of key2: its snapshot
        // predates the transfer's commit_ts. (No fractured read.)
        let r2 = reader.read(NodeId(2), T, &key(2)).unwrap().unwrap();
        assert_eq!(r1_before.get(1).unwrap().as_int().unwrap(), 50);
        assert_eq!(r2.get(1).unwrap().as_int().unwrap(), 50, "fractured read detected");
        reader.abort();
    }

    #[test]
    fn prepare_failure_aborts_cleanly() {
        let (_net, coord, dns) = cluster();
        // Seed a row, then open a conflicting write to force prepare-time
        // validation failure... conflicts surface at write time in this
        // engine, so emulate participant failure by writing a duplicate.
        let mut seed = coord.begin();
        seed.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        seed.commit().unwrap();
        await_visible(&dns[0], &key(1), Duration::from_secs(1)).unwrap();

        let mut txn = coord.begin();
        let err = txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 2))).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));
        txn.abort();
        // The engine holds no leaked transaction state.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!dns[0].engine.has_active_txns());
    }

    #[test]
    fn write_conflict_propagates_to_coordinator() {
        let (_net, coord, _dns) = cluster();
        let mut t1 = coord.begin();
        let mut t2 = coord.begin();
        t1.write(NodeId(1), T, key(7), WireWriteOp::Update(row(7, 1))).unwrap();
        let err = t2.write(NodeId(1), T, key(7), WireWriteOp::Update(row(7, 2))).unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }));
        t2.abort();
        t1.commit().unwrap();
    }

    #[test]
    fn dropped_transaction_auto_aborts() {
        let (_net, coord, dns) = cluster();
        {
            let mut txn = coord.begin();
            txn.write(NodeId(1), T, key(42), WireWriteOp::Insert(row(42, 1))).unwrap();
            // Dropped without commit.
        }
        std::thread::sleep(Duration::from_millis(30));
        assert!(!dns[0].engine.has_active_txns(), "drop must trigger abort");
        assert_eq!(dns[0].engine.read(T, &key(42), u64::MAX, None).unwrap(), None);
    }

    #[test]
    fn lost_commit_local_is_retried_idempotently() {
        use polardbx_simnet::{FaultPlan, OneShot, OneShotFault};
        let (net, coord, dns) = cluster();
        let coord = coord.with_config(crate::config::TxnConfig {
            max_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        });
        // Drop the CN's 2nd send: the write is send 1, CommitLocal is send
        // 2. The retry (send 3) must succeed and ack the SAME commit_ts the
        // participant already decided.
        net.set_fault_plan(FaultPlan::new(1).with_one_shot(OneShot {
            from: NodeId(9),
            after_sends: 2,
            fault: OneShotFault::DropNext,
        }));
        let mut txn = coord.begin();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        let commit_ts = txn.commit().unwrap();
        assert!(commit_ts > 0);
        assert_eq!(coord.metrics().rpc_retries.get(), 1);
        assert_eq!(dns[0].metrics.duplicate_msgs.get(), 0, "first CommitLocal never arrived");
        assert!(dns[0].engine.read(T, &key(1), u64::MAX, None).unwrap().is_some());
    }

    #[test]
    fn a_lost_vote_leaves_the_outcome_to_the_participants() {
        let (net, coord, dns) = cluster();
        let coord = coord.with_config(crate::config::TxnConfig {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        });
        let mut txn = coord.begin();
        let trx = txn.id();
        txn.stage_write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1)));
        txn.stage_write(NodeId(3), T, key(3), WireWriteOp::Insert(row(3, 3)));
        // DN3 cannot be reached: its vote is unheard, not refused, so the
        // outcome is in doubt and the coordinator must not abort DN1 — the
        // vote might have been a yes lost on its way back.
        net.crash(NodeId(3));
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, Error::InDoubt { .. }) && !err.is_retryable(), "{err:?}");
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(dns[0].engine.txn_state(trx), Some(TxnState::Prepared { .. })));
        // Resolution belongs to the participants: DN3 comes back, never
        // voted, and refuses when DN1 asks.
        net.restart_resume(NodeId(3));
        let now = crate::config::ResolverConfig { in_doubt_after: Duration::ZERO, ..Default::default() };
        dns[0].resolve_once(&net, &now);
        assert_eq!(dns[0].engine.txn_state(trx), Some(TxnState::Aborted));
        assert_eq!(dns[2].engine.txn_state(trx), Some(TxnState::Aborted));
        assert!(!dns[0].engine.has_active_txns());
    }

    #[test]
    fn prepare_refusal_aborts_every_voter() {
        let (_net, coord, dns) = cluster();
        // Write-time failures abort before prepare; to exercise a refused
        // vote, abort the trx on DN3 behind the coordinator's back.
        let mut txn = coord.begin();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        txn.write(NodeId(3), T, key(3), WireWriteOp::Insert(row(3, 3))).unwrap();
        let trx = txn.id();
        dns[2].handle(NodeId(8), TxnMsg::Abort { trx });
        let err = txn.commit().unwrap_err();
        assert!(
            matches!(&err, Error::PrepareRejected { participant, .. } if participant == "node3"),
            "the refusal names the node: {err:?}"
        );
        // Everything rolled back.
        assert!(await_drained(&dns[0], Duration::from_secs(1)));
        assert!(await_drained(&dns[2], Duration::from_secs(1)));
        assert_eq!(dns[0].engine.txn_state(trx), Some(TxnState::Aborted));
    }

    #[test]
    fn failpoints_fire_in_order() {
        use parking_lot::Mutex;
        let (_net, coord, _dns) = cluster();
        let seen: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let coord = coord.with_failpoint(Arc::new(move |p| seen2.lock().push(p)));
        let mut txn = coord.begin();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        txn.write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 2))).unwrap();
        txn.commit().unwrap();
        assert_eq!(*seen.lock(), vec!["txn.after_votes"]);
    }

    fn await_drained(dn: &DnService, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if !dn.engine.has_active_txns() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn remote_reads_do_not_force_two_phase() {
        let (net, coord, dns) = cluster();
        let mut seed = coord.begin();
        seed.write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 20))).unwrap();
        seed.write(NodeId(3), T, key(3), WireWriteOp::Insert(row(3, 30))).unwrap();
        seed.commit().unwrap();
        await_visible(&dns[1], &key(2), Duration::from_secs(1)).unwrap();
        await_visible(&dns[2], &key(3), Duration::from_secs(1)).unwrap();

        let before = net.stats.snapshot().0;
        let base = coord.metrics().one_phase_commits.get();
        let mut txn = coord.begin();
        txn.read(NodeId(2), T, &key(2)).unwrap();
        txn.read(NodeId(3), T, &key(3)).unwrap();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        assert_eq!(txn.participants(), 3);
        assert_eq!(txn.write_participants(), 1);
        txn.commit().unwrap();
        // 2 reads + 1 write + CommitLocal = 4 sync calls; a 2PC over the
        // read DNs would need prepares on top.
        assert_eq!(net.stats.snapshot().0 - before, 4);
        assert_eq!(coord.metrics().one_phase_commits.get(), base + 1);
        assert!(dns[0].engine.read(T, &key(1), u64::MAX, None).unwrap().is_some());
        // The read-only participants were released (posted aborts).
        assert!(await_drained(&dns[1], Duration::from_secs(1)));
        assert!(await_drained(&dns[2], Duration::from_secs(1)));
    }

    #[test]
    fn read_only_commit_pays_no_commit_rpc() {
        let (net, coord, dns) = cluster();
        let mut seed = coord.begin();
        seed.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        seed.commit().unwrap();
        await_visible(&dns[0], &key(1), Duration::from_secs(1)).unwrap();

        let before = net.stats.snapshot().0;
        let mut txn = coord.begin();
        txn.read(NodeId(1), T, &key(1)).unwrap();
        txn.read(NodeId(2), T, &key(2)).unwrap();
        let ts = txn.commit().unwrap();
        assert!(ts > 0);
        assert_eq!(net.stats.snapshot().0 - before, 2, "reads only, no commit RPCs");
        assert!(await_drained(&dns[0], Duration::from_secs(1)));
        assert!(await_drained(&dns[1], Duration::from_secs(1)));
    }

    struct TestFence {
        epoch: std::sync::atomic::AtomicU64,
        gate: Arc<std::sync::atomic::AtomicU64>,
    }

    impl crate::route::RoutingFence for TestFence {
        fn epoch_of(&self, _table: TableId) -> u64 {
            self.epoch.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn enter_commit(
            &self,
            table: TableId,
            captured: u64,
        ) -> polardbx_common::Result<crate::route::CommitGuard> {
            if captured != self.epoch.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(Error::TxnAborted {
                    reason: format!("routing epoch moved for {table:?}"),
                });
            }
            Ok(crate::route::CommitGuard::holding(Arc::clone(&self.gate)))
        }
    }

    fn test_fence() -> Arc<TestFence> {
        Arc::new(TestFence {
            epoch: std::sync::atomic::AtomicU64::new(0),
            gate: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }

    #[test]
    fn stale_routing_epoch_aborts_retryably() {
        let (_net, coord, dns) = cluster();
        let fence = test_fence();
        let coord = coord.with_fence(Arc::clone(&fence) as _);
        let mut txn = coord.begin();
        txn.pin_epoch(T, 0).unwrap();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        // The partition re-homes while the transaction is in flight.
        fence.epoch.store(1, std::sync::atomic::Ordering::SeqCst);
        let err = txn.commit().unwrap_err();
        assert!(err.is_retryable(), "fence abort must be retryable: {err:?}");
        assert!(await_drained(&dns[0], Duration::from_secs(1)), "abort must clean up");
        assert_eq!(dns[0].engine.read(T, &key(1), u64::MAX, None).unwrap(), None);
        assert_eq!(
            fence.gate.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "no guard may leak"
        );
    }

    #[test]
    fn fence_skip_mutation_commits_despite_stale_epoch() {
        let (_net, coord, dns) = cluster();
        let fence = test_fence();
        let coord = coord.with_fence(Arc::clone(&fence) as _).with_mutations(
            ProtocolMutations { skip_routing_epoch_fence: true, ..Default::default() },
        );
        let mut txn = coord.begin();
        txn.pin_epoch(T, 0).unwrap();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        fence.epoch.store(1, std::sync::atomic::Ordering::SeqCst);
        txn.commit().unwrap();
        assert!(dns[0].engine.read(T, &key(1), u64::MAX, None).unwrap().is_some());
    }

    #[test]
    fn fenced_commit_holds_the_gate() {
        let (_net, coord, _dns) = cluster();
        let fence = test_fence();
        let coord = coord.with_fence(Arc::clone(&fence) as _);
        let mut txn = coord.begin();
        txn.pin_epoch(T, 0).unwrap();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1))).unwrap();
        txn.commit().unwrap();
        assert_eq!(
            fence.gate.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "gate released after commit"
        );
    }

    fn rounds(net: &SimNet<TxnMsg>) -> u64 {
        net.stats.rounds.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn staged_writes_cost_one_round_and_one_message_per_dn() {
        let (net, coord, dns) = cluster();
        let (calls, waits) = (net.stats.snapshot().0, rounds(&net));
        let mut txn = coord.begin();
        txn.stage_write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 100)));
        txn.stage_write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 200)));
        txn.stage_write(NodeId(3), T, key(3), WireWriteOp::Insert(row(3, 300)));
        txn.stage_write(NodeId(3), T, key(3), WireWriteOp::Update(row(3, 301)));
        assert_eq!(txn.write_participants(), 3);
        assert_eq!(net.stats.snapshot().0, calls, "staging sends nothing");
        let commit_ts = txn.commit().unwrap();
        assert_eq!(net.stats.snapshot().0 - calls, 3, "one Prepare per write DN");
        assert_eq!(rounds(&net) - waits, 1);
        assert_eq!(coord.metrics().two_phase_commits.get(), 1);
        // DN3's clock is the furthest ahead; the max rule still applies.
        assert!(HlcTimestamp::from_raw(commit_ts).pt() >= 3000);
        assert_eq!(await_visible(&dns[0], &key(1), Duration::from_secs(1)), Some(row(1, 100)));
        assert_eq!(await_visible(&dns[1], &key(2), Duration::from_secs(1)), Some(row(2, 200)));
        // Staged writes to one DN are applied in the order staged.
        assert_eq!(await_visible(&dns[2], &key(3), Duration::from_secs(1)), Some(row(3, 301)));
    }

    #[test]
    fn staged_single_dn_commits_in_one_message() {
        let (net, coord, dns) = cluster();
        let (calls, waits) = (net.stats.snapshot().0, rounds(&net));
        let mut txn = coord.begin();
        txn.stage_write(NodeId(2), T, key(1), WireWriteOp::Insert(row(1, 1)));
        txn.stage_write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 2)));
        txn.commit().unwrap();
        // The writes ride the CommitLocal: 1 sync call where write() +
        // commit() pay one per write and one more.
        assert_eq!(net.stats.snapshot().0 - calls, 1);
        assert_eq!(rounds(&net) - waits, 1);
        assert_eq!(coord.metrics().one_phase_commits.get(), 1);
        assert_eq!(dns[1].engine.read(T, &key(2), u64::MAX, None).unwrap(), Some(row(2, 2)));
        assert!(!dns[1].engine.has_active_txns());
    }

    #[test]
    fn read_many_is_one_round_in_request_order() {
        let (net, coord, dns) = cluster();
        let mut seed = coord.begin();
        for n in 1..=3 {
            seed.stage_write(NodeId(n as u64), T, key(n), WireWriteOp::Insert(row(n, 10 * n)));
            seed.stage_write(NodeId(n as u64), T, key(n + 10), WireWriteOp::Insert(row(n + 10, 0)));
        }
        seed.commit().unwrap();
        for (dn, n) in dns.iter().zip(1..) {
            await_visible(dn, &key(n), Duration::from_secs(1)).unwrap();
        }
        let (calls, waits) = (net.stats.snapshot().0, rounds(&net));
        let mut txn = coord.begin();
        let got = txn
            .read_many(vec![
                (NodeId(3), T, ReadOp::Point(key(3))),
                (NodeId(1), T, ReadOp::Scan { lower: None, upper: None }),
                (NodeId(2), T, ReadOp::Point(key(99))),
                (NodeId(2), T, ReadOp::Scan { lower: Some(key(5)), upper: None }),
            ])
            .unwrap();
        assert_eq!(net.stats.snapshot().0 - calls, 4);
        assert_eq!(rounds(&net) - waits, 1);
        assert_eq!(txn.participants(), 3);
        assert_eq!(got[0], vec![(key(3), row(3, 30))]);
        assert_eq!(got[1], vec![(key(1), row(1, 10)), (key(11), row(11, 0))]);
        assert_eq!(got[2], vec![]);
        assert_eq!(got[3], vec![(key(12), row(12, 0))]);
        // One failed read fails the round.
        let err = txn
            .read_many(vec![
                (NodeId(1), T, ReadOp::Point(key(1))),
                (NodeId(2), TableId(77), ReadOp::Point(key(1))),
            ])
            .unwrap_err();
        assert!(matches!(err, Error::Throttled { .. }), "a missing store is a stale route: {err:?}");
        txn.abort();
    }

    #[test]
    fn staged_write_refusal_reaches_the_caller_typed_and_rolls_back_everywhere() {
        let (_net, coord, dns) = cluster();
        let mut seed = coord.begin();
        seed.stage_write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 0)));
        seed.commit().unwrap();

        // 2PC: DN2 refuses its second write; DN1 prepared and must roll back.
        let mut txn = coord.begin();
        txn.stage_write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1)));
        txn.stage_write(NodeId(2), T, key(20), WireWriteOp::Insert(row(20, 1)));
        txn.stage_write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 1)));
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }) && !err.is_retryable(), "{err:?}");
        assert!(await_drained(&dns[0], Duration::from_secs(1)));
        assert!(await_drained(&dns[1], Duration::from_secs(1)));
        assert_eq!(dns[0].engine.read(T, &key(1), u64::MAX, None).unwrap(), None);
        assert_eq!(dns[1].engine.read(T, &key(20), u64::MAX, None).unwrap(), None, "all or nothing");

        // One-phase: first committer wins, the loser learns it at commit.
        let mut t1 = coord.begin();
        let mut t2 = coord.begin();
        t1.write(NodeId(2), T, key(2), WireWriteOp::Update(row(2, 1))).unwrap();
        t2.stage_write(NodeId(2), T, key(2), WireWriteOp::Update(row(2, 2)));
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }), "{err:?}");
        t1.commit().unwrap();
        assert_eq!(dns[1].engine.read(T, &key(2), u64::MAX, None).unwrap(), Some(row(2, 1)));
    }

    /// Rows `(n, 10 n)` for `n` in 1..=3, row `n` on DN `n`, visible to the
    /// next transaction.
    fn seed_pairs(coord: &Coordinator, dns: &[Arc<DnService>]) {
        let mut seed = coord.begin();
        for n in 1..=3 {
            seed.stage_write(NodeId(n as u64), T, key(n), WireWriteOp::Insert(row(n, 10 * n)));
        }
        seed.commit().unwrap();
        for (dn, n) in dns.iter().zip(1..) {
            await_visible(dn, &key(n), Duration::from_secs(1)).unwrap();
        }
    }

    fn v_of(dn: &DnService, n: i64) -> i64 {
        let row = dn.engine.read(T, &key(n), u64::MAX, None).unwrap().unwrap();
        row.get(1).unwrap().as_int().unwrap()
    }

    #[test]
    fn staged_edits_cost_one_round_and_commit_counts_their_rows() {
        use polardbx_simnet::{FaultPlan, LinkFaults};
        let (net, coord, dns) = cluster();
        seed_pairs(&coord, &dns);
        // Every message is delivered twice: each DN answers from the count
        // it remembered, and the sum is still one per row.
        net.set_fault_plan(FaultPlan::new(1).with_all_links(LinkFaults::none().with_duplicate(1.0)));
        let (calls, waits) = (net.stats.snapshot().0, rounds(&net));
        let mut txn = coord.begin();
        for n in 1..=3 {
            txn.stage_write(NodeId(n as u64), T, key(n), bump(99));
            txn.stage_write(NodeId(n as u64), T, key(n + 50), bump(99)); // no such row
        }
        let (_, edited) = txn.commit_counting().unwrap();
        net.clear_fault_plan();
        assert_eq!(edited, 3);
        assert_eq!(net.stats.snapshot().0 - calls, 3, "no read travels: one Prepare per DN");
        assert_eq!(rounds(&net) - waits, 1);
        for (dn, n) in dns.iter().zip(1..) {
            assert!(await_drained(dn, Duration::from_secs(1)));
            assert_eq!(v_of(dn, n), 10 * n + 1, "applied once");
            assert!(dn.metrics.duplicate_msgs.get() >= 1);
        }
    }

    /// Forwards to a DN; lifts the fabric's fault plan when the first
    /// `CommitLocal` lands, so exactly that message's reply is lost.
    struct LiftOnCommitLocal {
        inner: Arc<DnService>,
        net: Arc<SimNet<TxnMsg>>,
    }

    impl Handler<TxnMsg> for LiftOnCommitLocal {
        fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
            if matches!(msg, TxnMsg::CommitLocal { .. }) {
                self.net.clear_fault_plan();
            }
            self.inner.handle(from, msg)
        }
    }

    #[test]
    fn lost_reply_of_an_edit_carrying_commit_local_reports_the_same_count() {
        use polardbx_simnet::{FaultPlan, LinkFaults};
        let (net, coord, dns) = cluster();
        let coord = coord.with_config(crate::config::TxnConfig {
            max_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        });
        seed_pairs(&coord, &dns);
        let lift = LiftOnCommitLocal { inner: Arc::clone(&dns[1]), net: Arc::clone(&net) };
        net.register(NodeId(2), DcId(2), Arc::new(lift));
        // A call rolls its reply against the plan in force when it left.
        net.set_fault_plan(FaultPlan::new(1).with_link(DcId(2), DcId(1), LinkFaults::lossy(1.0)));
        let mut txn = coord.begin();
        txn.stage_write(NodeId(2), T, key(2), bump(99));
        txn.stage_write(NodeId(2), T, key(52), bump(99)); // no such row
        let (_, edited) = txn.commit_counting().unwrap();
        assert_eq!(edited, 1, "the retry reports what the lost reply carried");
        assert_eq!(net.fault_stats.dropped_replies.get(), 1);
        assert_eq!(coord.metrics().rpc_retries.get(), 1);
        assert_eq!(dns[1].metrics.duplicate_msgs.get(), 1, "the second copy was absorbed");
        assert_eq!(v_of(&dns[1], 2), 21, "applied once");
    }

    #[test]
    fn refused_edit_reaches_the_caller_typed_and_rolls_back_every_edit() {
        let (_net, coord, dns) = cluster();
        seed_pairs(&coord, &dns);
        // The edit's own refusal: DN1 and DN3 edited and prepared, DN2's
        // row fails validation.
        let mut txn = coord.begin();
        for (n, limit) in [(1, 99), (2, 20), (3, 99)] {
            txn.stage_write(NodeId(n as u64), T, key(n), bump(limit));
        }
        let err = txn.commit_counting().unwrap_err();
        assert!(matches!(err, Error::Schema { .. }) && !err.is_retryable(), "{err:?}");
        // The engine's refusal: first committer wins against a transaction
        // that began before `winner` committed.
        let mut loser = coord.begin();
        let mut winner = coord.begin();
        winner.stage_write(NodeId(2), T, key(2), bump(99));
        assert_eq!(winner.commit_counting().unwrap().1, 1);
        loser.stage_write(NodeId(1), T, key(1), bump(99));
        loser.stage_write(NodeId(2), T, key(2), bump(99));
        let err = loser.commit_counting().unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }), "{err:?}");
        for (dn, n) in dns.iter().zip(1..) {
            assert!(await_drained(dn, Duration::from_secs(1)));
            assert_eq!(v_of(dn, n), 10 * n + (n == 2) as i64, "only the winner's edit stands");
        }
    }

    #[test]
    fn stale_routing_epoch_aborts_before_a_staged_write_is_sent() {
        let (net, coord, dns) = cluster();
        let fence = test_fence();
        let coord = coord.with_fence(Arc::clone(&fence) as _);
        let calls = net.stats.snapshot();
        let mut txn = coord.begin();
        let trx = txn.id();
        txn.pin_epoch(T, 0).unwrap();
        txn.stage_write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 1)));
        txn.stage_write(NodeId(2), T, key(2), WireWriteOp::Insert(row(2, 2)));
        fence.epoch.store(1, std::sync::atomic::Ordering::SeqCst);
        let err = txn.commit().unwrap_err();
        assert!(err.is_retryable(), "fence abort must be retryable: {err:?}");
        assert_eq!(net.stats.snapshot(), calls, "no message of any kind left the coordinator");
        assert_eq!(dns[0].engine.txn_state(trx), None);
        assert_eq!(dns[1].engine.txn_state(trx), None);
        assert_eq!(fence.gate.load(std::sync::atomic::Ordering::SeqCst), 0, "no guard may leak");
    }

    #[test]
    fn failed_one_phase_commit_leaves_no_intent_behind() {
        use polardbx_simnet::{FaultPlan, OneShot, OneShotFault};
        let (net, coord, dns) = cluster();
        let coord = coord.with_config(crate::config::TxnConfig {
            max_attempts: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(1),
        });
        let mut seed = coord.begin();
        seed.write(NodeId(1), T, key(1), WireWriteOp::Insert(row(1, 0))).unwrap();
        seed.commit().unwrap();
        // The CommitLocal (the CN's 2nd send from here) is lost and there is
        // no retry: the DN is left holding the write's ACTIVE intent.
        net.set_fault_plan(FaultPlan::new(1).with_one_shot(OneShot {
            from: NodeId(9),
            after_sends: 2,
            fault: OneShotFault::DropNext,
        }));
        let mut txn = coord.begin();
        txn.write(NodeId(1), T, key(1), WireWriteOp::Update(row(1, 1))).unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, Error::InDoubt { .. }), "{err:?}");
        assert!(await_drained(&dns[0], Duration::from_secs(1)), "the Abort must follow");
        // So the row is not blocked for the next writer.
        let mut next = coord.begin();
        next.stage_write(NodeId(1), T, key(1), WireWriteOp::Update(row(1, 2)));
        next.commit().unwrap();
        assert_eq!(dns[0].engine.read(T, &key(1), u64::MAX, None).unwrap(), Some(row(1, 2)));
    }

    #[test]
    fn autocommit_read() {
        let (_net, coord, dns) = cluster();
        let mut seed = coord.begin();
        seed.write(NodeId(2), T, key(5), WireWriteOp::Insert(row(5, 9))).unwrap();
        seed.commit().unwrap();
        await_visible(&dns[1], &key(5), Duration::from_secs(1)).unwrap();
        // Autocommit read may need to wait until the CN clock passes the
        // commit (it does: commit updated the coordinator clock).
        let got = coord.read_autocommit(NodeId(2), T, &key(5)).unwrap();
        assert_eq!(got, Some(row(5, 9)));
    }
}
