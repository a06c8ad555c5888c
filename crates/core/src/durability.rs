//! Paxos-backed DN durability (§III): commits block on cross-DC majority.
//!
//! An engine commits through consensus in exactly one way: its epoch
//! pipeline seals concurrent commits into an epoch and [`PaxosEpochSink`]
//! replicates the epoch as one raw batch — one [`Replica::replicate_raw`]
//! and one majority wait per *epoch*, so N concurrent commits cost ~1
//! cross-DC round instead of N (STAR's one durability round per epoch).

use std::sync::Arc;
use std::time::Duration;

use polardbx_common::metrics::Counter;
use polardbx_common::{Lsn, Result};
use polardbx_consensus::Replica;

/// Epoch sink that replicates each sealed epoch as one raw batch through
/// the DN's X-Paxos group: one majority wait per *epoch*, not per
/// transaction. The epoch's record-aligned cut points become the frame
/// chunking boundaries, so followers apply whole records and the durable
/// frame stream is byte-identical to what per-transaction replication of
/// the same records would have produced.
pub struct PaxosEpochSink {
    replica: Arc<Replica>,
    timeout: Duration,
    /// Epochs replicated (== consensus rounds paid by the epoch path).
    pub rounds: Counter,
}

impl PaxosEpochSink {
    /// Wrap the leader replica of a DN's Paxos group.
    pub fn new(replica: Arc<Replica>, timeout: Duration) -> Arc<PaxosEpochSink> {
        Arc::new(PaxosEpochSink { replica, timeout, rounds: Counter::default() })
    }
}

/// Extra majority-waits granted to an epoch whose *prefix* already reached
/// quorum before the first wait timed out (see [`PaxosEpochSink::persist`]).
const IN_DOUBT_REWAITS: usize = 3;

impl polardbx_wal::EpochSink for PaxosEpochSink {
    fn persist(&self, bytes: &[u8], cuts: &[usize]) -> Result<Lsn> {
        self.rounds.inc();
        let start = self.replica.status().last_lsn;
        let end = match self.replica.replicate_raw(bytes, cuts) {
            Ok(end) => end,
            Err(e) => {
                // A mid-batch sink error can leave a frame prefix of the
                // epoch in the leader's log. The pipeline will presume-abort
                // every transaction in the epoch, so fence that prefix out
                // of the log — otherwise heal-time retransmission and crash
                // recovery would replay commits the engine rolled back.
                let _ = self.replica.abandon_unacked();
                return Err(e);
            }
        };
        match self.replica.waiters.wait(end, self.timeout) {
            Ok(()) => Ok(end),
            Err(e) => {
                // Quorum-wait failed. If the durability horizon never moved
                // past the epoch's start, no frame of it reached a majority:
                // fencing the whole epoch is sound and makes the log agree
                // with the engine's presumed abort. But if a *prefix* is
                // already majority-durable the epoch is genuinely in doubt —
                // we cannot un-commit what a quorum persisted — so grant it
                // a few more waits before giving up.
                for _ in 0..IN_DOUBT_REWAITS {
                    let dlsn = self.replica.status().dlsn;
                    if dlsn >= end {
                        return Ok(end);
                    }
                    if dlsn <= start {
                        break;
                    }
                    if self.replica.waiters.wait(end, self.timeout).is_ok() {
                        return Ok(end);
                    }
                }
                // Fence the un-acked suffix so retransmission after heal and
                // recovery's scan cannot resurrect the aborted epoch. In the
                // in-doubt case (re-waits exhausted with a partially durable
                // epoch) this still fences beyond DLSN: the residual risk is
                // that a quorum outlives the leader holding frames we now
                // abort, which only a full leader-change reconciliation
                // could repair — prefer the bounded wait above to make that
                // window vanishingly small rather than leave the log and
                // engine permanently divergent.
                let _ = self.replica.abandon_unacked();
                Err(e)
            }
        }
    }
}

/// Put a DN's Paxos group under an engine's commit pipeline: from here on
/// each epoch — commits, and the prepare/abort/marker redo ordered among
/// them — is one [`Replica::replicate_raw`] and one majority wait. Call it
/// before the engine takes traffic. Returns the engine's pipeline.
pub fn enable_paxos_epoch(
    engine: &Arc<polardbx_storage::StorageEngine>,
    replica: Arc<Replica>,
    timeout: Duration,
    cfg: polardbx_wal::EpochConfig,
) -> Arc<polardbx_wal::EpochPipeline> {
    engine.enable_epoch(PaxosEpochSink::new(replica, timeout), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{Key, Row, TableId, TenantId, TrxId, Value};
    use polardbx_consensus::{GroupConfig, PaxosGroup};
    use polardbx_simnet::LatencyMatrix;
    use polardbx_storage::{StorageEngine, WriteOp};

    #[test]
    fn engine_commits_ride_paxos() {
        let group = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = group.leader().unwrap();
        let engine = StorageEngine::in_memory();
        enable_paxos_epoch(
            &engine,
            Arc::clone(&leader),
            Duration::from_secs(5),
            polardbx_wal::EpochConfig::default(),
        );
        engine.create_table(TableId(1), TenantId(1));
        engine.begin(TrxId(1), 0);
        engine
            .write(
                TrxId(1),
                TableId(1),
                Key::encode(&[Value::Int(1)]),
                WriteOp::Insert(Row::new(vec![Value::Int(1)])),
            )
            .unwrap();
        let lsn = engine.commit(TrxId(1), 10).unwrap();
        assert!(lsn > Lsn::ZERO);
        // The commit is only reported after majority durability: the
        // leader's DLSN covers it.
        assert!(leader.status().dlsn >= lsn);
        // Followers replay the same data.
        let follower = &group.replicas[1];
        assert!(follower.status().last_lsn >= lsn);
    }

    #[test]
    fn epoch_commits_ride_paxos_and_amortize_rounds() {
        // Over a Paxos group: commits resolve once their epoch
        // reaches majority durability, and concurrent committers share
        // consensus rounds (one per epoch, not one per txn).
        let group = PaxosGroup::build(
            GroupConfig::three_dc(1)
                .with_latency(LatencyMatrix::uniform(Duration::from_millis(2))),
        );
        let leader = group.leader().unwrap();
        let engine = StorageEngine::in_memory();
        let sink = PaxosEpochSink::new(Arc::clone(&leader), Duration::from_secs(5));
        let rounds = Arc::clone(&sink);
        let pipe = engine.enable_epoch(sink, polardbx_wal::EpochConfig::default());
        engine.create_table(TableId(1), TenantId(1));

        const THREADS: u64 = 8;
        const PER: u64 = 10;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    for i in 0..PER {
                        let trx = TrxId(t * 1000 + i + 1);
                        let k = (t * 1000 + i) as i64;
                        engine.begin(trx, 0);
                        engine
                            .write(
                                trx,
                                TableId(1),
                                Key::encode(&[Value::Int(k)]),
                                WriteOp::Insert(Row::new(vec![Value::Int(k)])),
                            )
                            .unwrap();
                        engine.commit(trx, t * 1000 + i + 1).unwrap();
                    }
                });
            }
        });
        let txns = THREADS * PER;
        assert!(
            rounds.rounds.get() < txns,
            "no epoch batching: {} rounds for {txns} txns",
            rounds.rounds.get()
        );
        assert_eq!(engine.count_rows(TableId(1), u64::MAX).unwrap(), txns as usize);
        // Every commit the clients saw succeed is covered by the group's
        // durable horizon.
        assert!(leader.status().dlsn >= pipe.durable_lsn());
    }

    #[test]
    fn epoch_quorum_loss_rolls_back_the_commit() {
        // A partitioned leader cannot durably seal the epoch: the commit
        // call must fail, and the optimistically stamped write must be
        // rolled back (torn-epoch presumed abort), leaving nothing visible.
        let group = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = group.leader().unwrap();
        group.net.partition(polardbx_common::DcId(1), polardbx_common::DcId(2));
        group.net.partition(polardbx_common::DcId(1), polardbx_common::DcId(3));
        let engine = StorageEngine::in_memory();
        enable_paxos_epoch(
            &engine,
            Arc::clone(&leader),
            Duration::from_millis(50),
            polardbx_wal::EpochConfig::default(),
        );
        engine.create_table(TableId(1), TenantId(1));
        let history = polardbx_common::HistoryRecorder::new();
        engine.set_recorder(Arc::clone(&history), polardbx_common::NodeId(1), false);
        engine.begin(TrxId(1), 0);
        engine
            .write(
                TrxId(1),
                TableId(1),
                Key::encode(&[Value::Int(1)]),
                WriteOp::Insert(Row::new(vec![Value::Int(1)])),
            )
            .unwrap();
        let err = engine.commit(TrxId(1), 10).unwrap_err();
        assert!(
            matches!(err.root(), polardbx_common::Error::Timeout { .. }),
            "expected a majority-wait timeout, got {err}"
        );
        assert_eq!(
            engine
                .read(TableId(1), &Key::encode(&[Value::Int(1)]), u64::MAX, None)
                .unwrap(),
            None,
            "torn epoch must leave no visible trace"
        );
        // The pipeline heals: once the partition lifts, new commits succeed.
        group.net.heal(polardbx_common::DcId(1), polardbx_common::DcId(2));
        group.net.heal(polardbx_common::DcId(1), polardbx_common::DcId(3));
        engine.begin(TrxId(2), 20);
        engine
            .write(
                TrxId(2),
                TableId(1),
                Key::encode(&[Value::Int(2)]),
                WriteOp::Insert(Row::new(vec![Value::Int(2)])),
            )
            .unwrap();
        engine.commit(TrxId(2), 30).unwrap();
        // The history holds the commit that became durable and only the
        // abort of the one that did not: a `Commit` recorded at the early
        // stamp would make the torn epoch read as a lost write.
        let committed: Vec<TrxId> = history
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                polardbx_common::TxnEvent::Commit { trx, .. } => Some(*trx),
                _ => None,
            })
            .collect();
        assert_eq!(committed, [TrxId(2)]);
        assert!(engine
            .read(TableId(1), &Key::encode(&[Value::Int(2)]), u64::MAX, None)
            .unwrap()
            .is_some());
        // The leader's durable log must agree with the presumed abort: the
        // failed epoch was fenced, so neither heal-time retransmission nor
        // a crash-recovery replay can resurrect TrxId(1)'s commit.
        let leader_idx =
            group.replicas.iter().position(|r| Arc::ptr_eq(r, &leader)).unwrap();
        let scan = polardbx_wal::scan_frames(&group.sinks[leader_idx].frame_stream());
        assert!(scan.torn.is_none(), "fenced log must still be a clean frame stream");
        let mut stream = Vec::new();
        for f in &scan.frames {
            stream.extend_from_slice(&f.payload);
        }
        let records =
            polardbx_wal::RedoPayload::decode_all(stream.into()).unwrap();
        assert!(
            !records.iter().any(|r| matches!(
                r,
                polardbx_wal::RedoPayload::TxnCommit { trx: TrxId(1), .. }
            )),
            "fenced epoch's commit record must not survive in the durable log"
        );
        let replayed = StorageEngine::in_memory();
        replayed.create_table(TableId(1), TenantId(1));
        polardbx_storage::replay_records(&replayed, &records).unwrap();
        assert_eq!(
            replayed
                .read(TableId(1), &Key::encode(&[Value::Int(1)]), u64::MAX, None)
                .unwrap(),
            None,
            "replaying the leader's log must not resurrect the aborted commit"
        );
        assert!(
            replayed
                .read(TableId(1), &Key::encode(&[Value::Int(2)]), u64::MAX, None)
                .unwrap()
                .is_some(),
            "replaying the leader's log must keep the healed commit"
        );
    }
}
