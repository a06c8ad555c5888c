//! The Paxos replica state machine.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use polardbx_common::metrics::Counter;
use polardbx_common::time::mono_now;
use polardbx_common::{DcId, Error, Lsn, NodeId, Result};
use polardbx_simnet::{Handler, SimNet};
use polardbx_wal::{FrameBatcher, LogSink, Mtr, PaxosFrame, MAX_FRAME_PAYLOAD};

use crate::msg::PaxosMsg;
use crate::waiters::CommitWaiters;

/// Replica roles (§III). `Candidate` is the transient campaigning state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Executes transactions; the only writer of the log.
    Leader,
    /// Persists and replays the log; electable.
    Follower,
    /// Persists the log only — "has no data … can participate in leader
    /// election but cannot be selected as the leader."
    Logger,
    /// Campaigning for leadership.
    Candidate,
}

/// Callback invoked on followers when log becomes applicable (`<= DLSN`).
/// The DN storage engine hooks its redo replay here.
pub type ApplyFn = Box<dyn Fn(&PaxosFrame) + Send + Sync>;

struct State {
    epoch: u64,
    voted_in: u64,
    role: Role,
    is_logger: bool,
    leader: Option<NodeId>,
    /// In-memory copy of the frame log (persisted via `sink` as received).
    log: Vec<PaxosFrame>,
    last_lsn: Lsn,
    dlsn: Lsn,
    applied: Lsn,
    /// Leader only: highest LSN each peer has persisted.
    match_lsn: HashMap<NodeId, Lsn>,
    /// Candidate only: votes received this epoch.
    votes: HashSet<NodeId>,
    last_leader_contact: Duration,
}

/// Recovery-path counters: how often chaos (lost, duplicated, reordered
/// messages; dead leaders) forced the protocol off its happy path.
#[derive(Debug, Default)]
pub struct ConsensusMetrics {
    /// Gap-recovery retransmissions sent by the leader after a rejected ack.
    pub retransmits: Counter,
    /// Campaigns started on election timeout.
    pub elections_started: Counter,
    /// Campaigns that won leadership.
    pub elections_won: Counter,
    /// Duplicate frames skipped by followers (at-least-once delivery).
    pub duplicate_frames: Counter,
    /// Appends rejected for a log gap (triggers reject-resend recovery).
    pub gap_rejects: Counter,
    /// Frames encoded on the replicate path. Should equal frames produced:
    /// the leader encodes once and shares the bytes across its own sink
    /// write and every peer (retransmissions re-encode, which is fine —
    /// they are off the happy path and counted in `retransmits`).
    pub frames_encoded: Counter,
}

impl ConsensusMetrics {
    /// One-line summary for harness output.
    pub fn report(&self) -> String {
        format!(
            "retransmits={} · elections: started={} won={} · dup-frames={} · gap-rejects={} · frames-encoded={}",
            self.retransmits.get(),
            self.elections_started.get(),
            self.elections_won.get(),
            self.duplicate_frames.get(),
            self.gap_rejects.get(),
            self.frames_encoded.get(),
        )
    }
}

/// A snapshot of replica state for tests and monitoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Current role.
    pub role: Role,
    /// Current epoch.
    pub epoch: u64,
    /// End of the local log.
    pub last_lsn: Lsn,
    /// Durable LSN as known locally.
    pub dlsn: Lsn,
    /// LSN applied to the local state machine.
    pub applied: Lsn,
    /// Known leader.
    pub leader: Option<NodeId>,
}

/// One member of a Paxos group.
pub struct Replica {
    /// This replica's node id.
    pub me: NodeId,
    /// Datacenter.
    pub dc: DcId,
    members: Vec<NodeId>,
    net: Arc<SimNet<PaxosMsg>>,
    st: Mutex<State>,
    /// Commit waiters — the asynchronous-commit registry.
    pub waiters: CommitWaiters,
    /// Recovery-path counters (retransmits, elections, duplicates).
    pub metrics: ConsensusMetrics,
    sink: Arc<dyn LogSink>,
    /// The follower-side apply callback, once installed. A DLSN advance
    /// reads it without a lock; the mutex orders the applies of a replica
    /// that has one.
    apply: OnceLock<Mutex<ApplyFn>>,
    /// Optional history tap: leadership changes are annotated into recorded
    /// histories so isolation witnesses carry their schedule context.
    recorder: Mutex<Option<Arc<polardbx_common::HistoryRecorder>>>,
}

impl Replica {
    /// Create a replica. `members` must include `me`.
    pub fn new(
        me: NodeId,
        dc: DcId,
        members: Vec<NodeId>,
        is_logger: bool,
        net: Arc<SimNet<PaxosMsg>>,
        sink: Arc<dyn LogSink>,
    ) -> Arc<Replica> {
        assert!(members.contains(&me), "members must include self");
        Arc::new(Replica {
            me,
            dc,
            members,
            net,
            st: Mutex::new(State {
                epoch: 0,
                voted_in: 0,
                role: if is_logger { Role::Logger } else { Role::Follower },
                is_logger,
                leader: None,
                log: Vec::new(),
                last_lsn: Lsn::ZERO,
                dlsn: Lsn::ZERO,
                applied: Lsn::ZERO,
                match_lsn: HashMap::new(),
                votes: HashSet::new(),
                last_leader_contact: mono_now(),
            }),
            waiters: CommitWaiters::new(),
            metrics: ConsensusMetrics::default(),
            sink,
            apply: OnceLock::new(),
            recorder: Mutex::new(None),
        })
    }

    /// Rebuild a replica from its durable log after an amnesia restart.
    ///
    /// `frames` is the checksum-valid prefix recovered by
    /// [`polardbx_wal::scan_frames`] over the node's durable sink (torn
    /// tail already truncated away); `sink` is that same sink, so new
    /// appends extend the surviving log. Volatile coordinates are
    /// re-derived conservatively: the epoch is the highest epoch recorded
    /// in the log (and `voted_in` matches it, so the replica cannot
    /// re-grant a vote it may have cast before the crash), while DLSN and
    /// the applied cursor restart at zero — the durable horizon is
    /// *learned* from the leader's next heartbeat, never remembered.
    /// Until that heartbeat arrives the replica acks `rejected` whenever
    /// its log ends below the group DLSN, which drives the leader's
    /// reject-resend path to backfill every slot it missed while down.
    pub fn recovered(
        me: NodeId,
        dc: DcId,
        members: Vec<NodeId>,
        is_logger: bool,
        net: Arc<SimNet<PaxosMsg>>,
        sink: Arc<dyn LogSink>,
        frames: Vec<PaxosFrame>,
    ) -> Arc<Replica> {
        assert!(members.contains(&me), "members must include self");
        let epoch = frames.iter().map(|f| f.epoch).max().unwrap_or(0);
        let last_lsn = frames.last().map(|f| f.lsn_end).unwrap_or(Lsn::ZERO);
        Arc::new(Replica {
            me,
            dc,
            members,
            net,
            st: Mutex::new(State {
                epoch,
                voted_in: epoch,
                role: if is_logger { Role::Logger } else { Role::Follower },
                is_logger,
                leader: None,
                log: frames,
                last_lsn,
                dlsn: Lsn::ZERO,
                applied: Lsn::ZERO,
                match_lsn: HashMap::new(),
                votes: HashSet::new(),
                last_leader_contact: mono_now(),
            }),
            waiters: CommitWaiters::new(),
            metrics: ConsensusMetrics::default(),
            sink,
            apply: OnceLock::new(),
            recorder: Mutex::new(None),
        })
    }

    /// Install a history tap: commit-decision context (leadership changes)
    /// is annotated into `rec` for isolation-checker reports.
    pub fn set_event_recorder(&self, rec: Arc<polardbx_common::HistoryRecorder>) {
        *self.recorder.lock() = Some(rec);
    }

    /// Annotate the history recorder, if installed. Called with no other
    /// locks held.
    fn note_event(&self, label: String) {
        let rec = self.recorder.lock().clone();
        if let Some(rec) = rec {
            rec.note(self.me, label);
        }
    }

    /// Install the apply callback (follower-side redo replay).
    #[cfg(test)]
    pub fn set_apply(&self, f: ApplyFn) {
        assert!(self.apply.set(Mutex::new(f)).is_ok(), "one apply callback per replica");
    }

    /// Snapshot of current state.
    pub fn status(&self) -> ReplicaStatus {
        let st = self.st.lock();
        ReplicaStatus {
            role: st.role,
            epoch: st.epoch,
            last_lsn: st.last_lsn,
            dlsn: st.dlsn,
            applied: st.applied,
            leader: st.leader,
        }
    }

    /// Force-promote to leader at `epoch` (bootstrap: the initial topology
    /// is installed by GMS rather than elected).
    pub fn bootstrap_leader(&self, epoch: u64) {
        let mut st = self.st.lock();
        assert!(!st.is_logger, "logger cannot lead");
        st.epoch = epoch;
        st.role = Role::Leader;
        st.leader = Some(self.me);
        st.match_lsn.clear();
        drop(st);
        self.note_event(format!("paxos-bootstrap-leader epoch={epoch}"));
        self.broadcast_heartbeat();
    }

    fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// Leader API: replicate a batch of MTRs. Persists locally, pipelines
    /// frames to followers, and returns the end LSN of the batch. The
    /// caller registers that LSN with [`Replica::waiters`] (async commit)
    /// or uses [`Replica::replicate_and_wait`].
    pub fn replicate(&self, mtrs: &[Mtr]) -> Result<Lsn> {
        if mtrs.is_empty() {
            return Ok(self.st.lock().last_lsn);
        }
        let (encoded, end_lsn, epoch, dlsn) = {
            let mut st = self.st.lock();
            if st.role != Role::Leader {
                return Err(Error::NotLeader { leader_hint: st.leader.map(|n| n.raw()) });
            }
            let mut batcher =
                FrameBatcher::new(st.epoch, st.log.len() as u64, st.last_lsn);
            let mut frames = Vec::new();
            for m in mtrs {
                if let Some(f) = batcher.push(m.clone()) {
                    frames.push(f);
                }
            }
            // lint:allow(guard_blocking, "FrameBatcher::flush is an in-memory drain, not I/O")
            if let Some(f) = batcher.flush() {
                frames.push(f);
            }
            let mut encoded = Vec::with_capacity(frames.len());
            for f in frames {
                // Encode exactly once; `Bytes` clones share the buffer, so
                // the sink write and every peer's AppendEntries reuse the
                // same encoding (and its checksum computation).
                let enc = f.encode();
                self.metrics.frames_encoded.inc();
                // Leader durability: the frame goes to the sink before it is
                // offered to followers ("the redo log entries are flushed to
                // PolarFS, which will also be sent to followers"; the sink
                // plays PolarFS).
                // lint:allow(guard_blocking, "sink write deliberately under st: last_lsn/log must not expose a hole ahead of the sink")
                self.sink.write(f.lsn_start, enc.clone())?;
                st.last_lsn = f.lsn_end;
                encoded.push(enc);
                st.log.push(f);
            }
            let me = self.me;
            let last = st.last_lsn;
            st.match_lsn.insert(me, last);
            (encoded, st.last_lsn, st.epoch, st.dlsn)
        };
        // Pipelining: post without waiting for acks of previous batches.
        for &peer in &self.members {
            if peer != self.me {
                let _ = self.net.post(
                    self.me,
                    peer,
                    PaxosMsg::AppendEntries {
                        epoch,
                        leader: self.me,
                        frames: encoded.clone(),
                        dlsn,
                    },
                );
            }
        }
        // Single-node group degenerates to local durability.
        self.recompute_dlsn();
        Ok(end_lsn)
    }

    /// Synchronous convenience: replicate and block until durable.
    pub fn replicate_and_wait(&self, mtrs: &[Mtr], timeout: Duration) -> Result<Lsn> {
        let lsn = self.replicate(mtrs)?;
        self.waiters.wait(lsn, timeout)?;
        Ok(lsn)
    }

    /// Leader API for the epoch pipeline: replicate one sealed epoch's
    /// pre-encoded record stream. `cuts` are record-aligned end offsets
    /// (ascending, last one equal to `payload.len()`); the stream is split
    /// into `MLOG_PAXOS` frames only at those offsets, because followers
    /// apply whole frames and must never see half a record. Each frame is
    /// still bounded by [`MAX_FRAME_PAYLOAD`].
    pub fn replicate_raw(&self, payload: &[u8], cuts: &[usize]) -> Result<Lsn> {
        if payload.is_empty() {
            return Ok(self.st.lock().last_lsn);
        }
        debug_assert_eq!(cuts.last().copied(), Some(payload.len()), "cuts must cover the payload");
        let (encoded, end_lsn, epoch, dlsn) = {
            let mut st = self.st.lock();
            if st.role != Role::Leader {
                return Err(Error::NotLeader { leader_hint: st.leader.map(|n| n.raw()) });
            }
            // Greedy chunking: extend the current frame to the furthest cut
            // that keeps it under the payload bound.
            let mut chunks: Vec<(usize, usize)> = Vec::new();
            let mut start = 0usize;
            let mut reach = 0usize;
            for &cut in cuts {
                if cut - start > MAX_FRAME_PAYLOAD {
                    if reach == start {
                        // One submission larger than a frame: the pipeline
                        // seals epochs well under the bound, so this is a
                        // single oversized record stream — reject it.
                        return Err(Error::storage(format!(
                            "epoch cut {cut} exceeds frame bound from {start}"
                        )));
                    }
                    chunks.push((start, reach));
                    start = reach;
                    if cut - start > MAX_FRAME_PAYLOAD {
                        return Err(Error::storage(format!(
                            "epoch cut {cut} exceeds frame bound from {start}"
                        )));
                    }
                }
                reach = cut;
            }
            if reach > start {
                chunks.push((start, reach));
            }
            let mut encoded = Vec::with_capacity(chunks.len());
            for (a, b) in chunks {
                let lsn_start = st.last_lsn;
                let f = PaxosFrame {
                    epoch: st.epoch,
                    index: st.log.len() as u64,
                    lsn_start,
                    lsn_end: lsn_start.advance((b - a) as u64),
                    payload: Bytes::copy_from_slice(&payload[a..b]),
                };
                let enc = f.encode();
                self.metrics.frames_encoded.inc();
                // Leader durability before followers, same as `replicate`.
                // lint:allow(guard_blocking, "sink write deliberately under st: last_lsn/log must not expose a hole ahead of the sink")
                self.sink.write(f.lsn_start, enc.clone())?;
                st.last_lsn = f.lsn_end;
                encoded.push(enc);
                st.log.push(f);
            }
            let me = self.me;
            let last = st.last_lsn;
            st.match_lsn.insert(me, last);
            (encoded, st.last_lsn, st.epoch, st.dlsn)
        };
        for &peer in &self.members {
            if peer != self.me {
                let _ = self.net.post(
                    self.me,
                    peer,
                    PaxosMsg::AppendEntries {
                        epoch,
                        leader: self.me,
                        frames: encoded.clone(),
                        dlsn,
                    },
                );
            }
        }
        self.recompute_dlsn();
        Ok(end_lsn)
    }

    /// Start a campaign (called by the ticker on election timeout, or
    /// directly by tests/GMS failover).
    pub fn campaign(&self) {
        let (epoch, last_lsn) = {
            let mut st = self.st.lock();
            if st.is_logger || st.role == Role::Leader {
                return;
            }
            self.metrics.elections_started.inc();
            st.epoch += 1;
            st.voted_in = st.epoch;
            st.role = Role::Candidate;
            st.leader = None;
            st.votes.clear();
            let me = self.me;
            st.votes.insert(me);
            (st.epoch, st.last_lsn)
        };
        if self.members.len() == 1 {
            self.try_win(epoch);
            return;
        }
        for &peer in &self.members {
            if peer != self.me {
                let _ = self.net.post(
                    self.me,
                    peer,
                    PaxosMsg::RequestVote { epoch, candidate: self.me, last_lsn },
                );
            }
        }
    }

    fn try_win(&self, epoch: u64) {
        let won = {
            let mut st = self.st.lock();
            if st.role != Role::Candidate || st.epoch != epoch {
                return;
            }
            if st.votes.len() >= self.majority() {
                self.metrics.elections_won.inc();
                st.role = Role::Leader;
                st.leader = Some(self.me);
                st.match_lsn.clear();
                let me = self.me;
                let last = st.last_lsn;
                st.match_lsn.insert(me, last);
                true
            } else {
                false
            }
        };
        if won {
            self.note_event(format!("paxos-leader-elected epoch={epoch}"));
            self.broadcast_heartbeat();
        }
    }

    fn broadcast_heartbeat(&self) {
        // Heartbeats are empty AppendEntries (as in Raft): they disseminate
        // DLSN *and* solicit acks, so a newly elected leader learns the
        // majority-persisted point and can advance DLSN over entries
        // committed under the previous epoch without new writes.
        let (epoch, dlsn) = {
            let st = self.st.lock();
            if st.role != Role::Leader {
                return;
            }
            (st.epoch, st.dlsn)
        };
        for &peer in &self.members {
            if peer != self.me {
                let _ = self.net.post(
                    self.me,
                    peer,
                    PaxosMsg::AppendEntries {
                        epoch,
                        leader: self.me,
                        frames: Vec::new(),
                        dlsn,
                    },
                );
            }
        }
    }

    /// Leader: recompute DLSN as the majority-persisted LSN; on advance,
    /// wake async-commit waiters and disseminate.
    fn recompute_dlsn(&self) {
        let advanced = {
            let mut st = self.st.lock();
            if st.role != Role::Leader {
                return;
            }
            let mut persisted: Vec<Lsn> = st.match_lsn.values().copied().collect();
            // Peers we have no ack from count as ZERO.
            persisted.resize(self.members.len(), Lsn::ZERO);
            persisted.sort_unstable_by(|a, b| b.cmp(a));
            // Clamp to our own log end: after `abandon_unacked` fenced a
            // suffix, a straggler ack for the abandoned frames must not
            // drag the durability horizon past the log we actually hold.
            let candidate = persisted[self.majority() - 1].min(st.last_lsn);
            if candidate > st.dlsn {
                st.dlsn = candidate;
                Some(st.dlsn)
            } else {
                None
            }
        };
        if let Some(dlsn) = advanced {
            // This is the async_log_committer sweep: complete the waiting
            // transactions whose last MTR is now durable.
            self.waiters.advance(dlsn);
            self.apply_up_to(dlsn);
            self.broadcast_heartbeat();
        }
    }

    /// Apply frames with `lsn_end <= dlsn` through the apply callback.
    fn apply_up_to(&self, dlsn: Lsn) {
        let Some(apply) = self.apply.get() else { return };
        let apply_fn = apply.lock();
        loop {
            let frame = {
                let mut st = self.st.lock();
                let next = st
                    .log
                    .iter()
                    .find(|f| f.lsn_start >= st.applied && f.lsn_end <= dlsn)
                    .cloned();
                match next {
                    Some(f) => {
                        st.applied = f.lsn_end;
                        f
                    }
                    None => break,
                }
            };
            apply_fn(&frame);
        }
    }

    /// A deposed leader (or conflicting follower) truncates its log tail
    /// beyond `keep`. The durable sink is truncated in lockstep: an
    /// abandoned frame left on disk would be resurrected by crash
    /// recovery's scan even though the live node no longer acknowledges it.
    fn truncate_after(&self, st: &mut State, keep: Lsn) {
        if st.last_lsn <= keep {
            return;
        }
        st.log.retain(|f| f.lsn_end <= keep);
        st.last_lsn = st.log.last().map(|f| f.lsn_end).unwrap_or(Lsn::ZERO).max(st.dlsn.min(keep));
        if st.last_lsn < keep {
            st.last_lsn = st.log.last().map(|f| f.lsn_end).unwrap_or(Lsn::ZERO);
        }
        // lint:allow(guard_blocking, "sink truncation deliberately under st: log/last_lsn must not run ahead of the durable artifact")
        self.sink.truncate(st.last_lsn);
    }

    /// Leader-side fence after a failed replication round (quorum-wait
    /// timeout, or a mid-batch sink error): discard the log suffix the
    /// group never acknowledged — in memory *and* in the durable sink —
    /// so that heal-time retransmission and crash-recovery replay agree
    /// with the engine's presumed-abort of those transactions. This is
    /// §III's deposed-leader cleanup (`step_down` does the identical
    /// truncation at DLSN) applied to a leader that keeps serving.
    ///
    /// Follower acks for the abandoned range are clamped so a late or
    /// lost-then-rediscovered ack can never count the fenced frames
    /// toward a quorum; a follower that did persist them truncates its
    /// conflict tail on the next append, exactly as after a failover.
    ///
    /// Returns the fence point (the new log end). Errors on non-leaders:
    /// a deposed leader already fenced in [`Replica::step_down`].
    pub fn abandon_unacked(&self) -> Result<Lsn> {
        let fence = {
            let mut st = self.st.lock();
            if st.role != Role::Leader {
                return Err(Error::NotLeader { leader_hint: st.leader.map(|n| n.raw()) });
            }
            let dlsn = st.dlsn;
            self.truncate_after(&mut st, dlsn);
            let fence = st.last_lsn;
            for l in st.match_lsn.values_mut() {
                *l = (*l).min(fence);
            }
            fence
        };
        self.note_event(format!("paxos-abandon-unacked fence={fence}"));
        Ok(fence)
    }

    fn step_down(&self, st: &mut State, epoch: u64, leader: Option<NodeId>) {
        let was_leader = st.role == Role::Leader;
        st.epoch = epoch;
        st.role = if st.is_logger { Role::Logger } else { Role::Follower };
        st.leader = leader;
        st.votes.clear();
        if was_leader {
            // §III: "determine the range of redo log entries that are not
            // submitted, evict dirty pages related to them". The range is
            // truncated; with no buffer pool there are no pages to evict.
            let dlsn = st.dlsn;
            self.truncate_after(st, dlsn);
            self.waiters.fail_all();
        }
    }

    fn on_append(&self, from: NodeId, epoch: u64, leader: NodeId, frames: Vec<Bytes>, dlsn: Lsn) {
        let (ack, apply_to) = {
            let mut st = self.st.lock();
            if epoch < st.epoch {
                (
                    PaxosMsg::AppendAck {
                        epoch: st.epoch,
                        from: self.me,
                        persisted: st.last_lsn,
                        rejected: true,
                    },
                    None,
                )
            } else {
                if epoch > st.epoch || st.role == Role::Candidate || st.role == Role::Leader {
                    self.step_down(&mut st, epoch, Some(leader));
                }
                st.leader = Some(leader);
                st.last_leader_contact = mono_now();
                let mut rejected = false;
                for enc in frames {
                    let mut bytes = enc.clone();
                    let Ok(frame) = PaxosFrame::decode(&mut bytes) else {
                        rejected = true;
                        break;
                    };
                    if frame.lsn_end <= st.last_lsn {
                        self.metrics.duplicate_frames.inc();
                        continue; // duplicate
                    }
                    if frame.lsn_start > st.last_lsn {
                        self.metrics.gap_rejects.inc();
                        rejected = true; // gap: ask leader to resend
                        break;
                    }
                    if frame.lsn_start < st.last_lsn {
                        // Conflict tail from an old epoch: truncate, only
                        // ever beyond DLSN by construction.
                        debug_assert!(frame.lsn_start >= st.dlsn);
                        self.truncate_after(&mut st, frame.lsn_start);
                    }
                    // lint:allow(guard_blocking, "sink write deliberately under st: follower log/last_lsn stay in lockstep with the sink")
                    if self.sink.write(frame.lsn_start, enc).is_err() {
                        rejected = true;
                        break;
                    }
                    st.last_lsn = frame.lsn_end;
                    st.log.push(frame);
                }
                // A log that ends below the group's durable horizon is
                // missing slots the group already acked — a rejoining
                // (amnesia-restarted) replica is the canonical case. Ack
                // `rejected` so even an empty heartbeat solicits the
                // leader's reject-resend backfill.
                rejected = rejected || st.last_lsn < dlsn;
                // Adopt the leader's DLSN, capped by what we hold.
                let new_dlsn = dlsn.min(st.last_lsn);
                if new_dlsn > st.dlsn {
                    st.dlsn = new_dlsn;
                }
                let apply_to = st.dlsn;
                (
                    PaxosMsg::AppendAck {
                        epoch: st.epoch,
                        from: self.me,
                        persisted: st.last_lsn,
                        rejected,
                    },
                    Some(apply_to),
                )
            }
        };
        if let Some(dlsn) = apply_to {
            // Loggers have no state machine; skip apply.
            if !self.st.lock().is_logger {
                self.apply_up_to(dlsn);
            }
            self.waiters.advance(dlsn);
        }
        let _ = self.net.post(self.me, from, ack);
    }

    fn on_ack(&self, epoch: u64, from: NodeId, persisted: Lsn, rejected: bool) {
        let resend = {
            let mut st = self.st.lock();
            if st.role != Role::Leader || epoch != st.epoch {
                if epoch > st.epoch {
                    self.step_down(&mut st, epoch, None);
                }
                return;
            }
            st.match_lsn
                .entry(from)
                .and_modify(|l| *l = (*l).max(persisted))
                .or_insert(persisted);
            if rejected && persisted < st.last_lsn {
                // Retransmit everything the follower is missing.
                let frames: Vec<Bytes> = st
                    .log
                    .iter()
                    .filter(|f| f.lsn_start >= persisted)
                    .map(|f| f.encode())
                    .collect();
                Some((frames, st.epoch, st.dlsn))
            } else {
                None
            }
        };
        if let Some((frames, epoch, dlsn)) = resend {
            self.metrics.retransmits.inc();
            let _ = self.net.post(
                self.me,
                from,
                PaxosMsg::AppendEntries { epoch, leader: self.me, frames, dlsn },
            );
        }
        self.recompute_dlsn();
    }

    fn on_request_vote(&self, candidate: NodeId, epoch: u64, last_lsn: Lsn) {
        let granted = {
            let mut st = self.st.lock();
            if epoch <= st.voted_in || epoch < st.epoch {
                false
            } else if last_lsn < st.last_lsn {
                // Log-completeness: never elect someone missing entries we
                // persisted (majority intersection then guarantees the new
                // leader holds everything up to the global DLSN).
                false
            } else {
                st.voted_in = epoch;
                if epoch > st.epoch {
                    self.step_down(&mut st, epoch, None);
                }
                true
            }
        };
        let epoch_now = self.st.lock().epoch;
        let _ = self.net.post(
            self.me,
            candidate,
            PaxosMsg::Vote { epoch: epoch_now.max(epoch), from: self.me, granted },
        );
    }

    fn on_vote(&self, epoch: u64, from: NodeId, granted: bool) {
        {
            let mut st = self.st.lock();
            if epoch > st.epoch {
                self.step_down(&mut st, epoch, None);
                return;
            }
            if st.role != Role::Candidate || epoch != st.epoch || !granted {
                return;
            }
            st.votes.insert(from);
        }
        self.try_win(epoch);
    }

    fn on_heartbeat(&self, epoch: u64, leader: NodeId, dlsn: Lsn) {
        let apply_to = {
            let mut st = self.st.lock();
            if epoch < st.epoch {
                return;
            }
            if epoch > st.epoch || st.role == Role::Candidate || st.role == Role::Leader {
                self.step_down(&mut st, epoch, Some(leader));
            }
            st.leader = Some(leader);
            st.last_leader_contact = mono_now();
            let new_dlsn = dlsn.min(st.last_lsn);
            if new_dlsn > st.dlsn {
                st.dlsn = new_dlsn;
            }
            if st.is_logger { None } else { Some(st.dlsn) }
        };
        if let Some(dlsn) = apply_to {
            self.apply_up_to(dlsn);
            self.waiters.advance(dlsn);
        }
    }

    /// Drive periodic work: leaders emit heartbeats; followers campaign
    /// after `election_timeout` without leader contact, until
    /// [`Ticker::stop`].
    #[cfg(test)]
    pub(crate) fn start_ticker(
        self: &Arc<Self>,
        interval: Duration,
        election_timeout: Duration,
    ) -> Ticker {
        use std::sync::atomic::{AtomicBool, Ordering};
        let me = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("paxos-ticker-{}", self.me))
            .spawn(move || loop {
                if stopped.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(interval);
                let (role, stale) = {
                    let st = me.st.lock();
                    (st.role, mono_now().saturating_sub(st.last_leader_contact) > election_timeout)
                };
                match role {
                    Role::Leader => me.broadcast_heartbeat(),
                    Role::Follower | Role::Candidate if stale => me.campaign(),
                    _ => {}
                }
            })
            .expect("spawn paxos ticker");
        Ticker { stop, thread }
    }

    /// Leader API: trigger a catch-up round now. Broadcasts an empty
    /// AppendEntries (heartbeat); each follower's ack reports its
    /// persisted LSN — a rejoining replica whose log ends below DLSN
    /// acks `rejected`, which drives retransmission of every frame it is
    /// missing. No-op on non-leaders. Used by the recovery harness to
    /// resynchronise a replica right after an amnesia restart instead of
    /// waiting for the next ticker heartbeat.
    pub fn sync_followers(&self) {
        self.broadcast_heartbeat();
    }

    /// All decoded frames currently in the log.
    #[cfg(test)]
    pub fn log_frames(&self) -> Vec<PaxosFrame> {
        self.st.lock().log.clone()
    }
}

/// A running [`Replica::start_ticker`] thread.
#[cfg(test)]
pub(crate) struct Ticker {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

#[cfg(test)]
impl Ticker {
    /// Stop the thread and wait for it.
    pub(crate) fn stop(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

impl Handler<PaxosMsg> for Replica {
    fn handle(&self, from: NodeId, msg: PaxosMsg) -> PaxosMsg {
        // All protocol traffic is one-way; sync RPC is used only by tests.
        self.handle_oneway(from, msg);
        PaxosMsg::Ok
    }

    fn handle_oneway(&self, from: NodeId, msg: PaxosMsg) {
        match msg {
            PaxosMsg::AppendEntries { epoch, leader, frames, dlsn } => {
                self.on_append(from, epoch, leader, frames, dlsn)
            }
            PaxosMsg::AppendAck { epoch, from: acker, persisted, rejected } => {
                self.on_ack(epoch, acker, persisted, rejected)
            }
            PaxosMsg::RequestVote { epoch, candidate, last_lsn } => {
                self.on_request_vote(candidate, epoch, last_lsn)
            }
            PaxosMsg::Vote { epoch, from: voter, granted } => {
                self.on_vote(epoch, voter, granted)
            }
            PaxosMsg::Heartbeat { epoch, leader, dlsn } => {
                self.on_heartbeat(epoch, leader, dlsn)
            }
            PaxosMsg::Ok => {}
        }
    }
}
