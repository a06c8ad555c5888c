//! The committed-transaction feed: a node's redo stream, decoded once.
//!
//! Redo carries a transaction's row operations ahead of its decision, so
//! everything that replays the stream — RO replicas (§II-C), Paxos
//! followers (§III), the column index (§VI-E) — has to hold operations per
//! transaction until the commit record names their timestamp, and drop
//! them at an abort. [`TxnAssembler`] does that once; what comes out is a
//! [`CommittedTxn`] whose rows are already decoded, and a [`RedoConsumer`]
//! is anything that takes those in log order.

use std::collections::HashMap;

use bytes::Bytes;
use polardbx_common::{Key, Lsn, NodeId, Result, Row, TableId, TrxId};
use polardbx_wal::RedoPayload;

use crate::rowcodec::decode_row;

/// One row a committed transaction wrote.
#[derive(Debug, Clone)]
pub struct RowChange {
    /// The (shard) table written.
    pub table: TableId,
    /// Primary key of the row.
    pub key: Key,
    /// The new image; `None` deletes the row.
    pub row: Option<Row>,
}

/// One committed transaction as the redo stream carried it.
#[derive(Debug, Clone)]
pub struct CommittedTxn {
    /// The transaction.
    pub trx: TrxId,
    /// The timestamp of its commit record.
    pub commit_ts: u64,
    /// Its row changes, in log order.
    pub changes: Vec<RowChange>,
}

/// What a prepare record holds beside the transaction: its `prepare_ts`
/// and the DNs of its vote round.
pub type Prepared = (u64, Vec<NodeId>);

#[derive(Default)]
struct Undecided {
    changes: Vec<RowChange>,
    /// Set once the stream carried the transaction's prepare record.
    prepared: Option<Prepared>,
}

/// Turns a redo stream into committed transactions: row operations wait
/// per transaction for the commit record, and go at an abort.
#[derive(Default)]
pub struct TxnAssembler {
    undecided: HashMap<TrxId, Undecided>,
}

impl TxnAssembler {
    /// Feed one record; a commit record of a transaction that wrote rows
    /// yields it, complete.
    pub fn push(&mut self, record: RedoPayload) -> Option<CommittedTxn> {
        let (trx, change) = match record {
            RedoPayload::Insert { trx, table, key, row }
            | RedoPayload::Update { trx, table, key, row } => {
                (trx, RowChange { table, key, row: Some(decode_row(&row)) })
            }
            RedoPayload::Delete { trx, table, key } => (trx, RowChange { table, key, row: None }),
            RedoPayload::TxnPrepare { trx, prepare_ts, peers } => {
                self.undecided.entry(trx).or_default().prepared = Some((prepare_ts, peers));
                return None;
            }
            RedoPayload::TxnCommit { trx, commit_ts } => {
                let changes = self.undecided.remove(&trx)?.changes;
                return Some(CommittedTxn { trx, commit_ts, changes });
            }
            RedoPayload::TxnAbort { trx } => {
                self.undecided.remove(&trx);
                return None;
            }
            // A checkpoint carries no row changes.
            RedoPayload::Checkpoint { .. } => return None,
        };
        self.undecided.entry(trx).or_default().changes.push(change);
        None
    }

    /// Feed a byte run of encoded records; the transactions whose commit
    /// records it held, in log order.
    pub fn feed(&mut self, bytes: Bytes) -> Result<Vec<CommittedTxn>> {
        Ok(RedoPayload::decode_all(bytes)?.into_iter().filter_map(|r| self.push(r)).collect())
    }

    /// Transactions whose decision has not arrived yet.
    #[cfg(test)]
    pub fn in_flight(&self) -> usize {
        self.undecided.len()
    }

    /// Surrender what the stream left undecided, ordered by transaction id:
    /// its prepare timestamp and peers if it was prepared, its row changes
    /// in log order.
    pub fn into_undecided(self) -> Vec<(TrxId, Option<Prepared>, Vec<RowChange>)> {
        let mut left: Vec<_> =
            self.undecided.into_iter().map(|(trx, u)| (trx, u.prepared, u.changes)).collect();
        left.sort_unstable_by_key(|(trx, ..)| *trx);
        left
    }

    /// Is a transaction the stream showed PREPARED at or below `ts` still
    /// undecided? Its commit timestamp may yet land at or below `ts`.
    pub fn in_doubt_at(&self, ts: u64) -> bool {
        self.undecided.values().any(|u| u.prepared.as_ref().is_some_and(|(p, _)| *p <= ts))
    }
}

/// A consumer of a RW node's committed-transaction feed.
pub trait RedoConsumer: Send + Sync {
    /// `txns` are the transactions whose commit records `source` shipped
    /// since the last call, in log order; the feed has now reached
    /// `through`. Called from one thread at a time per source.
    fn consume(&self, source: NodeId, through: Lsn, txns: &[CommittedTxn]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowcodec::encode_row;
    use polardbx_common::Value;

    const T: TableId = TableId(1);

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn insert(trx: u64, n: i64) -> RedoPayload {
        let row = encode_row(&Row::new(vec![Value::Int(n)]));
        RedoPayload::Insert { trx: TrxId(trx), table: T, key: key(n), row }
    }

    #[test]
    fn rows_wait_for_the_commit_record() {
        let mut a = TxnAssembler::default();
        assert!(a.push(insert(1, 5)).is_none());
        assert!(a.push(RedoPayload::Delete { trx: TrxId(1), table: T, key: key(6) }).is_none());
        assert!(a.push(insert(2, 7)).is_none());
        assert_eq!(a.in_flight(), 2);
        let txn = a.push(RedoPayload::TxnCommit { trx: TrxId(1), commit_ts: 10 }).unwrap();
        assert_eq!((txn.trx, txn.commit_ts, txn.changes.len()), (TrxId(1), 10, 2));
        assert_eq!(txn.changes[0].row, Some(Row::new(vec![Value::Int(5)])));
        assert_eq!((txn.changes[1].key.clone(), txn.changes[1].row.clone()), (key(6), None));
        assert_eq!(a.in_flight(), 1);
    }

    #[test]
    fn an_abort_drops_the_rows_and_a_late_commit_yields_nothing() {
        let mut a = TxnAssembler::default();
        a.push(insert(1, 5));
        assert!(a.push(RedoPayload::TxnAbort { trx: TrxId(1) }).is_none());
        assert!(a.push(RedoPayload::TxnCommit { trx: TrxId(1), commit_ts: 10 }).is_none());
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn what_is_left_undecided_comes_out_ordered_by_transaction() {
        let mut a = TxnAssembler::default();
        a.push(insert(9, 1));
        a.push(insert(3, 2));
        let peers = vec![NodeId(1), NodeId(2)];
        a.push(RedoPayload::TxnPrepare { trx: TrxId(3), prepare_ts: 20, peers: peers.clone() });
        a.push(insert(5, 3));
        a.push(RedoPayload::TxnCommit { trx: TrxId(5), commit_ts: 30 });
        let left = a.into_undecided();
        let shape: Vec<_> = left.into_iter().map(|(t, p, c)| (t, p, c.len())).collect();
        assert_eq!(shape, vec![(TrxId(3), Some((20, peers)), 1), (TrxId(9), None, 1)]);
    }

    #[test]
    fn a_prepared_transaction_is_in_doubt_until_decided() {
        let mut a = TxnAssembler::default();
        a.push(insert(1, 5));
        assert!(!a.in_doubt_at(u64::MAX), "ACTIVE: its prepare will be stamped later");
        a.push(RedoPayload::TxnPrepare { trx: TrxId(1), prepare_ts: 20, peers: vec![] });
        assert!(a.in_doubt_at(20) && !a.in_doubt_at(19));
        a.push(RedoPayload::TxnCommit { trx: TrxId(1), commit_ts: 25 });
        assert!(!a.in_doubt_at(u64::MAX));
    }
}
