//! Redo replay into a fresh engine: the DN side of crash recovery.
//!
//! An amnesia-restarted DN owns nothing but its durable log sink. Recovery
//! proceeds in three steps (§II-B: replicated redo makes a DN restart
//! lossless):
//!
//! 1. **Scan-and-truncate** — [`polardbx_wal::recovery::scan_records`]
//!    finds the longest valid prefix of the sink's byte stream; any torn
//!    tail beyond it is physically truncated so future appends resume at a
//!    clean horizon.
//! 2. **Classify** — the [`TxnAssembler`] every redo consumer shares holds
//!    row ops per transaction until its decision; each transaction's
//!    *final* fate in the valid prefix decides what replay does: a commit
//!    record → apply its row ops with the recorded commit timestamp; an
//!    abort record → drop its ops; a prepare record with no decision →
//!    **in-doubt**; row ops with neither prepare nor decision → the
//!    transaction was still ACTIVE, it never voted, presumed abort applies
//!    and nothing is installed.
//! 3. **Replay** — committed transactions become visible versions stamped
//!    at their recorded commit-ts (and land COMMITTED in the transaction
//!    table, which is what makes a second replay a no-op); in-doubt ones
//!    get their intents reinstated via
//!    [`StorageEngine::recover_in_doubt`], so readers block on them again
//!    until the 2PC resolver re-settles their fate by asking the peers
//!    their prepare record names.
//!
//! Replay is **idempotent**: feeding the same prefix twice leaves the same
//! observable state, because each transaction's entry in the transaction
//! table guards its application.

use std::sync::Arc;

use polardbx_common::{Lsn, NodeId, Result, TableId, TenantId, TrxId};
use polardbx_wal::recovery::scan_records;
use polardbx_wal::{LocalEpochSink, LogBuffer, LogSink, RedoPayload, VecSink};

use crate::engine::StorageEngine;
use crate::feed::TxnAssembler;
use crate::txn::TxnState;

/// What a recovery pass found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The durable horizon: end of the valid record prefix. New appends on
    /// the recovered engine resume here.
    pub durable_lsn: Lsn,
    /// Bytes of torn tail discarded by scan-and-truncate.
    pub truncated_bytes: u64,
    /// Records in the valid prefix.
    pub records: usize,
    /// Transactions replayed to COMMITTED.
    pub committed: usize,
    /// Transactions replayed to ABORTED.
    pub aborted: usize,
    /// Transactions left PREPARED-but-undecided, with their prepare
    /// timestamps and the peers of their vote rounds: the caller must
    /// re-adopt these with the participant's in-doubt resolver, which asks
    /// those peers for the outcome.
    pub in_doubt: Vec<(TrxId, u64, Vec<NodeId>)>,
    /// Transactions that were still ACTIVE at the crash (row redo but no
    /// prepare/decision). Nothing is installed for them: they never voted,
    /// so presumed abort applies trivially.
    pub active_dropped: usize,
}

/// Replay a redo-record prefix into `engine`. The engine's tables must
/// already exist (schema lives in GMS/catalog metadata, which is durable
/// elsewhere; tests recreate tables before replaying).
///
/// Safe to call more than once with the same records — each transaction's
/// state in the engine's transaction table makes reapplication a no-op.
pub fn replay_records(engine: &Arc<StorageEngine>, records: &[RedoPayload]) -> Result<RecoveryReport> {
    // Row ops wait in the assembler until their transaction's fate is known.
    let mut assembler = TxnAssembler::default();
    let mut committed = 0usize;
    let mut aborted = 0usize;

    for rec in records {
        let txn = assembler.push(rec.clone());
        match rec {
            RedoPayload::TxnCommit { trx, commit_ts } => {
                if matches!(engine.txns.state(*trx), Some(TxnState::Committed { .. })) {
                    continue; // already replayed (idempotence)
                }
                if let Some(txn) = &txn {
                    // A replica may skip a table it lacks; recovery must fail.
                    txn.changes.iter().try_for_each(|c| engine.store(c.table).map(drop))?;
                    engine.apply_committed(txn);
                }
                engine.txns.begin(*trx);
                engine.txns.commit(*trx, *commit_ts)?;
                committed += 1;
            }
            RedoPayload::TxnAbort { trx } if engine.txns.state(*trx).is_none() => {
                engine.txns.abort(*trx);
                aborted += 1;
            }
            _ => {}
        }
    }

    let mut in_doubt = Vec::new();
    let mut active_dropped = 0usize;
    for (trx, prepared, changes) in assembler.into_undecided() {
        let Some((prepare_ts, peers)) = prepared else {
            active_dropped += 1; // never voted: presumed abort, nothing installed
            continue;
        };
        engine.recover_in_doubt(trx, prepare_ts, &changes)?;
        in_doubt.push((trx, prepare_ts, peers));
    }

    Ok(RecoveryReport {
        durable_lsn: Lsn::ZERO, // filled in by the sink-level entry points
        truncated_bytes: 0,
        records: records.len(),
        committed,
        aborted,
        in_doubt,
        active_dropped,
    })
}

/// Build a fresh engine from nothing but a durable sink: scan-and-truncate,
/// recreate `tables`, replay, and wire the engine's new log buffer —
/// returned first — to resume appending at the recovered horizon (so
/// post-recovery commits extend the same log).
pub fn recovered_engine(
    sink: Arc<VecSink>,
    tables: &[TableId],
) -> Result<(Arc<LogBuffer>, Arc<StorageEngine>, RecoveryReport)> {
    // Scan before constructing the engine: the new LogBuffer must start at
    // the post-truncation horizon or fresh appends would overlap the tail.
    let base = sink
        .writes()
        .iter()
        .map(|(at, _)| *at)
        .min()
        .unwrap_or(Lsn::ZERO);
    let content = sink.contiguous();
    let scan = scan_records(&content);
    let durable = scan.durable_lsn(base);
    let truncated = (content.len() - scan.valid_len) as u64;
    if truncated > 0 {
        sink.truncate_to(durable);
    }

    let log = LogBuffer::starting_at(Arc::clone(&sink) as Arc<dyn LogSink>, durable);
    let engine = StorageEngine::with_durability(LocalEpochSink::new(Arc::clone(&log)));
    for &table in tables {
        engine.create_table(table, TenantId::default());
    }
    let mut report = replay_records(&engine, &scan.records)?;
    report.durable_lsn = durable;
    report.truncated_bytes = truncated;
    Ok((log, engine, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WriteOp;
    use polardbx_common::{Key, Row, TrxId, Value};

    const T: TableId = TableId(1);
    const TEN: TenantId = TenantId(1);
    /// The vote round of the in-doubt transaction: whom recovery must ask.
    const PEERS: [NodeId; 2] = [NodeId(1), NodeId(2)];

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64, v: &str) -> Row {
        Row::new(vec![Value::Int(n), Value::str(v)])
    }

    /// A source engine over a shared sink, with one committed, one aborted,
    /// one prepared-undecided, and one still-active transaction.
    /// One past the sink's last byte: a record sink tiles the log from 0.
    fn end_of(sink: &VecSink) -> Lsn {
        Lsn(sink.contiguous().len() as u64)
    }

    fn crashed_sink() -> Arc<VecSink> {
        let sink = VecSink::new();
        let e = StorageEngine::with_sink(Arc::clone(&sink) as Arc<dyn LogSink>);
        e.create_table(T, TEN);
        // Committed.
        e.begin(TrxId(1), 0);
        e.write(TrxId(1), T, key(1), WriteOp::Insert(row(1, "committed"))).unwrap();
        e.commit(TrxId(1), 10).unwrap();
        // Aborted.
        e.begin(TrxId(2), 10);
        e.write(TrxId(2), T, key(2), WriteOp::Insert(row(2, "aborted"))).unwrap();
        e.abort(TrxId(2));
        // Prepared, no decision: in-doubt at the crash.
        e.begin(TrxId(3), 10);
        e.write(TrxId(3), T, key(3), WriteOp::Insert(row(3, "indoubt"))).unwrap();
        e.prepare_with(TrxId(3), &PEERS, || 20).unwrap();
        // Active, never prepared: its redo never hit the log (redo ships at
        // prepare/commit), so replay sees nothing of it.
        e.begin(TrxId(4), 10);
        e.write(TrxId(4), T, key(4), WriteOp::Insert(row(4, "active"))).unwrap();
        sink
    }

    #[test]
    fn replay_rebuilds_committed_and_in_doubt() {
        let sink = crashed_sink();
        let (_, e, report) = recovered_engine(sink, &[T]).unwrap();
        assert_eq!(report.committed, 1);
        assert_eq!(report.aborted, 1);
        assert_eq!(report.in_doubt, vec![(TrxId(3), 20, PEERS.to_vec())]);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.records > 0);
        // Committed row visible at its recorded commit-ts.
        assert_eq!(e.read(T, &key(1), 10, None).unwrap(), Some(row(1, "committed")));
        assert_eq!(e.read(T, &key(1), 9, None).unwrap(), None);
        // Aborted row gone.
        assert_eq!(e.read(T, &key(2), 100, None).unwrap(), None);
        // In-doubt transaction is PREPARED again: readers meeting its
        // intent block until the resolver settles it (§IV case 2), exactly
        // as they did before the crash.
        assert!(matches!(e.txn_state(TrxId(3)), Some(TxnState::Prepared { prepare_ts: 20 })));
    }

    #[test]
    fn in_doubt_commit_after_recovery_becomes_visible() {
        let sink = crashed_sink();
        let (_, e, report) = recovered_engine(sink, &[T]).unwrap();
        assert_eq!(report.in_doubt.len(), 1);
        // The resolver learns COMMIT from a peer and finishes phase 2.
        e.commit(TrxId(3), 25).unwrap();
        assert_eq!(e.read(T, &key(3), 25, None).unwrap(), Some(row(3, "indoubt")));
        assert_eq!(e.read(T, &key(3), 19, None).unwrap(), None);
    }

    #[test]
    fn in_doubt_abort_after_recovery_rolls_back() {
        let sink = crashed_sink();
        let (_, e, _) = recovered_engine(sink, &[T]).unwrap();
        e.abort(TrxId(3));
        assert_eq!(e.read(T, &key(3), 100, None).unwrap(), None);
    }

    #[test]
    fn replay_twice_is_identical_to_once() {
        let sink = crashed_sink();
        let content = sink.contiguous();
        let scan = scan_records(&content);
        assert!(!scan.torn);

        let once = StorageEngine::in_memory();
        once.create_table(T, TEN);
        replay_records(&once, &scan.records).unwrap();

        let twice = StorageEngine::in_memory();
        twice.create_table(T, TEN);
        let r1 = replay_records(&twice, &scan.records).unwrap();
        let r2 = replay_records(&twice, &scan.records).unwrap();
        assert_eq!(r1.committed, 1);
        assert_eq!(r2.committed, 0, "second replay must re-commit nothing");
        assert_eq!(r2.in_doubt, r1.in_doubt, "in-doubt set is stable");

        // In-doubt state identical before resolution.
        assert_eq!(once.txn_state(TrxId(3)), twice.txn_state(TrxId(3)));
        // Resolve the in-doubt transaction the same way on both engines;
        // full-table scans (which would otherwise block on its intent) must
        // then agree everywhere.
        once.commit(TrxId(3), 25).unwrap();
        twice.commit(TrxId(3), 25).unwrap();
        assert_eq!(
            once.scan_table(T, u64::MAX).unwrap(),
            twice.scan_table(T, u64::MAX).unwrap()
        );
        assert_eq!(once.scan_table(T, u64::MAX).unwrap().len(), 2);
    }

    #[test]
    fn a_commit_on_a_table_the_engine_lacks_fails_the_replay() {
        let scan = scan_records(&crashed_sink().contiguous());
        let bare = StorageEngine::in_memory();
        let err = replay_records(&bare, &scan.records).unwrap_err();
        assert!(matches!(err, polardbx_common::Error::UnknownTable { .. }), "{err:?}");
        // Nothing was counted as committed on the way out.
        assert_eq!(bare.txn_state(TrxId(1)), None);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let sink = crashed_sink();
        let full = end_of(&sink);
        // Tear 3 bytes off the final flush (mid-record).
        sink.truncate_to(Lsn(full.raw() - 3));
        let (_, e, report) = recovered_engine(Arc::clone(&sink), &[T]).unwrap();
        assert!(report.truncated_bytes > 0, "mid-record cut leaves a torn suffix");
        assert!(report.durable_lsn < full);
        // The sink now ends exactly at the durable horizon.
        assert_eq!(end_of(&sink), report.durable_lsn);
        // New commits extend the log from the horizon and the result is a
        // clean stream again.
        e.begin(TrxId(50), 30);
        e.write(TrxId(50), T, key(9), WriteOp::Insert(row(9, "post"))).unwrap();
        e.commit(TrxId(50), 40).unwrap();
        let rescan = scan_records(&sink.contiguous());
        assert!(!rescan.torn, "post-recovery log must be clean");
        assert!(end_of(&sink) > report.durable_lsn);
        // And a second recovery over the extended log sees the new commit.
        let (_, e2, _) = recovered_engine(sink, &[T]).unwrap();
        assert_eq!(e2.read(T, &key(9), 40, None).unwrap(), Some(row(9, "post")));
    }

    #[test]
    fn empty_sink_recovers_to_empty_engine() {
        let sink = VecSink::new();
        let (_, e, report) = recovered_engine(sink, &[T]).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.durable_lsn, Lsn::ZERO);
        assert_eq!(e.count_rows(T, u64::MAX).unwrap(), 0);
    }
}
