//! History recording for isolation checking (Jepsen-style).
//!
//! A [`HistoryRecorder`] collects a totally-ordered log of transaction
//! events — begins, reads (with the version they observed), writes (with
//! the row they installed) and per-node commits/aborts — from every
//! component willing to report them. The `sitcheck` crate rebuilds per-key
//! version orders and the direct serialization graph from this log and
//! checks Adya's phenomena against it.
//!
//! Recording is strictly opt-in: components hold an
//! `Option<Arc<HistoryRecorder>>` (or an atomic enable flag) that defaults
//! to off, so the production hot path pays nothing beyond a null/flag
//! check. The recorder itself is **lock-order-clean by construction**: its
//! single internal mutex is a leaf — [`HistoryRecorder::record`] never
//! calls back into any other component, so it can be invoked from any
//! context (including while the caller holds its own locks, though taps in
//! this codebase record after releasing theirs).

use parking_lot::Mutex;

use crate::ids::{NodeId, TableId, TrxId};
use crate::key::Key;
use crate::row::Row;

/// The version a read observed: who wrote it and (if the reader could see
/// a decision) the commit timestamp it was stamped with. `commit_ts` is
/// `None` when the reader observed its own uncommitted intent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRef {
    /// The transaction that produced the observed version.
    pub writer: TrxId,
    /// Its commit timestamp, when decided at observation time.
    pub commit_ts: Option<u64>,
}

/// One event in a recorded history. The recorder's vector index is the
/// event's position in the global observation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnEvent {
    /// A coordinator opened a transaction at `snapshot_ts`.
    Begin {
        /// The transaction.
        trx: TrxId,
        /// The CN (session) that coordinates it.
        session: NodeId,
        /// HLC snapshot timestamp the transaction reads at.
        snapshot_ts: u64,
    },
    /// A snapshot read observed a version (or found the key absent).
    Read {
        /// The reading transaction.
        trx: TrxId,
        /// The node that served the read.
        node: NodeId,
        /// Table read.
        table: TableId,
        /// Key read.
        key: Key,
        /// Snapshot the read executed at.
        snapshot_ts: u64,
        /// The version observed; `None` = key absent at this snapshot.
        observed: Option<VersionRef>,
        /// True when served by an RO replica (apply/log order, not
        /// commit-timestamp order — the checker treats these reads with
        /// read-atomicity rules only).
        replica: bool,
    },
    /// A transaction installed a write intent.
    Write {
        /// The writing transaction.
        trx: TrxId,
        /// The DN that holds the row.
        node: NodeId,
        /// Table written.
        table: TableId,
        /// Key written.
        key: Key,
        /// The row content; `None` = delete (tombstone).
        row: Option<Row>,
    },
    /// A transaction committed (globally at the coordinator, or its local
    /// stamp on one DN — `node` tells which).
    Commit {
        /// The committed transaction.
        trx: TrxId,
        /// The node reporting the commit (CN for the global decision, DN
        /// for the local version stamp).
        node: NodeId,
        /// HLC commit timestamp.
        commit_ts: u64,
    },
    /// A transaction aborted on `node`.
    Abort {
        /// The aborted transaction.
        trx: TrxId,
        /// The node reporting the abort.
        node: NodeId,
    },
    /// Free-form annotation (fault injections, leader elections, …) giving
    /// witness reports schedule context.
    Note {
        /// The node the annotation concerns.
        node: NodeId,
        /// Human-readable label.
        label: String,
    },
}

/// Append-only, totally-ordered event log. See the module docs for the
/// locking discipline (single leaf mutex).
#[derive(Default)]
pub struct HistoryRecorder {
    events: Mutex<Vec<TxnEvent>>,
}

impl HistoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> std::sync::Arc<HistoryRecorder> {
        std::sync::Arc::new(HistoryRecorder::default())
    }

    /// Append one event. Leaf lock: never blocks on anything but the
    /// recorder's own mutex.
    pub fn record(&self, ev: TxnEvent) {
        self.events.lock().push(ev);
    }

    /// Append an annotation.
    pub fn note(&self, node: NodeId, label: impl Into<String>) {
        self.record(TxnEvent::Note { node, label: label.into() });
    }

    /// Copy of the history so far, in observation order.
    pub fn snapshot(&self) -> Vec<TxnEvent> {
        self.events.lock().clone()
    }

    /// Drain the history (resets the recorder for the next run).
    pub fn take(&self) -> Vec<TxnEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_drains() {
        let rec = HistoryRecorder::new();
        assert!(rec.is_empty());
        rec.record(TxnEvent::Begin { trx: TrxId(1), session: NodeId(9), snapshot_ts: 5 });
        rec.note(NodeId(2), "leader-elected");
        assert_eq!(rec.len(), 2);
        let events = rec.snapshot();
        assert!(matches!(events[0], TxnEvent::Begin { trx: TrxId(1), .. }));
        assert!(matches!(events[1], TxnEvent::Note { node: NodeId(2), .. }));
        let drained = rec.take();
        assert_eq!(drained.len(), 2);
        assert!(rec.is_empty());
    }
}
