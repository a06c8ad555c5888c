//! Coordinator ↔ participant wire messages.

use std::fmt::Debug;
use std::sync::Arc;

use polardbx_common::{Key, NodeId, Result, Row, TableId, TrxId};

/// A participant's answer to [`TxnMsg::Vote`]: where it stands on a 2PC
/// transaction. A transaction commits iff every participant of its vote
/// round is PREPARED, at the max of their `prepare_ts`; it aborts iff one
/// refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// Voted yes, durably, at this `prepare_ts`; the outcome is not known
    /// here yet.
    Prepared(u64),
    /// Committed at this timestamp.
    Committed(u64),
    /// Voted no: durable and final. A participant asked before it voted
    /// refuses then and there, and refuses any Prepare that comes later.
    Refused,
}

/// What a [`RowEdit`] decides for the row it was shown.
#[derive(Debug)]
pub enum Edit {
    /// Leave the row as it is (the statement's predicate rejected it).
    Keep,
    /// Overwrite the row with this one.
    Put(Row),
    /// Delete the row.
    Delete,
}

/// A statement's effect on one row, decided where the row lives: the
/// participant reads the row at the transaction's snapshot and writes what
/// `apply` returns, in one visit. The driver implements it (for SQL: residual
/// predicate, assignments, row validation); this crate only carries it.
pub trait RowEdit: Send + Sync + Debug {
    /// The edit of `old`, the row as the transaction's snapshot sees it. An
    /// error refuses the write: the transaction rolls back and the error
    /// reaches the client as the participant's own.
    fn apply(&self, old: &Row) -> Result<Edit>;
}

/// A write operation on the wire.
#[derive(Debug, Clone)]
pub enum WireWriteOp {
    /// Insert a row (duplicate-key checked at the participant).
    Insert(Row),
    /// Overwrite a row.
    Update(Row),
    /// Delete a row.
    Delete,
    /// Read the row under the key and write what the edit makes of it; a
    /// key with no row is left alone. Unlike the blind ops above, the read
    /// waits out a PREPARED writer of the row before the write is checked.
    Edit(Arc<dyn RowEdit>),
}

/// One write waiting for its transaction's commit round: `(table, key, op)`.
pub type StagedWrite = (TableId, Key, WireWriteOp);

/// The writes a commit-round message delivers ahead of its vote request:
/// what the coordinator staged for this participant instead of sending a
/// [`TxnMsg::Write`] each. Empty when every write already went out on its own.
#[derive(Debug, Clone, Default)]
pub struct StagedWrites {
    /// The transaction's snapshot timestamp (raw HLC), as in
    /// [`TxnMsg::Write`]. Unused when `writes` is empty.
    pub snapshot_ts: u64,
    /// In the order they were staged.
    pub writes: Vec<StagedWrite>,
}

/// 2PC and statement messages.
#[derive(Debug, Clone)]
pub enum TxnMsg {
    /// Execute a write statement under `trx` at `snapshot_ts`.
    Write {
        /// Transaction id (global, allocated by the coordinator).
        trx: TrxId,
        /// The transaction's snapshot timestamp (raw HLC).
        snapshot_ts: u64,
        /// Target table.
        table: TableId,
        /// Row key.
        key: Key,
        /// The operation.
        op: WireWriteOp,
    },
    /// Execute a point read under `trx` at `snapshot_ts`. `trx` of 0 means
    /// an autocommit read outside any transaction.
    Read {
        /// Transaction id (0 = none).
        trx: TrxId,
        /// Snapshot timestamp.
        snapshot_ts: u64,
        /// Target table.
        table: TableId,
        /// Row key.
        key: Key,
    },
    /// Range scan (bounds encoded; `None` = unbounded).
    Scan {
        /// Transaction id (0 = none).
        trx: TrxId,
        /// Snapshot timestamp.
        snapshot_ts: u64,
        /// Target table.
        table: TableId,
        /// Inclusive lower bound.
        lower: Option<Key>,
        /// Exclusive upper bound.
        upper: Option<Key>,
    },
    /// 2PC phase one. The participant first applies `staged` exactly as if
    /// each had arrived as a [`TxnMsg::Write`], then votes.
    Prepare {
        /// Transaction to prepare.
        trx: TrxId,
        /// Writes to apply before voting.
        staged: StagedWrites,
        /// Every DN this vote round goes to, the recipient included. A
        /// participant left PREPARED past its in-doubt timeout asks them
        /// for their [`Vote`]s; the prepare record keeps the list across a
        /// restart.
        peers: Vec<NodeId>,
    },
    /// 2PC phase two (commit).
    Commit {
        /// Transaction to commit.
        trx: TrxId,
        /// Global commit timestamp.
        commit_ts: u64,
    },
    /// One-phase commit for single-participant transactions: the
    /// participant applies `staged`, then allocates the commit timestamp
    /// locally.
    CommitLocal {
        /// Transaction to commit.
        trx: TrxId,
        /// Writes to apply before committing.
        staged: StagedWrites,
    },
    /// Roll back.
    Abort {
        /// Transaction to abort.
        trx: TrxId,
    },
    /// In-doubt participant → a peer of its vote round: where do you stand
    /// on `trx`? Answered with [`TxnMsg::Voted`].
    Vote {
        /// The in-doubt transaction.
        trx: TrxId,
    },

    // ---- replies ----
    /// Generic success.
    Ok,
    /// Read result.
    RowResult(Option<Row>),
    /// Scan result.
    Rows(Vec<(Key, Row)>),
    /// Participant entered PREPARED at this timestamp.
    Prepared {
        /// The participant's `prepare_ts`.
        prepare_ts: u64,
        /// Rows the [`WireWriteOp::Edit`]s this `Prepare` carried wrote.
        edited: u64,
    },
    /// Commit confirmation carrying the commit timestamp used.
    Committed {
        /// The commit timestamp.
        commit_ts: u64,
        /// Rows the [`WireWriteOp::Edit`]s this `CommitLocal` carried
        /// wrote (0 in reply to a phase-two `Commit`).
        edited: u64,
    },
    /// A participant's answer to [`TxnMsg::Vote`].
    Voted(Vote),
    /// Failure reply.
    Failed(polardbx_common::Error),
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use polardbx_common::{Error, Value};

    /// `v ← v + 1` on `(id, v)` rows; refuses to pass `limit`, the way a
    /// statement's row validation refuses a row.
    #[derive(Debug)]
    struct Bump {
        limit: i64,
    }

    impl RowEdit for Bump {
        fn apply(&self, old: &Row) -> Result<Edit> {
            let (id, v) = (old.get(0)?.clone(), old.get(1)?.as_int()?);
            if v >= self.limit {
                return Err(Error::Schema { message: format!("v would pass {}", self.limit) });
            }
            Ok(Edit::Put(Row::new(vec![id, Value::Int(v + 1)])))
        }
    }

    pub(crate) fn bump(limit: i64) -> WireWriteOp {
        WireWriteOp::Edit(Arc::new(Bump { limit }))
    }
}
