//! Column-index maintenance from the redo feed (§VI-E).
//!
//! "The logical operations on the indexed column are captured from the log
//! and converted to the corresponding operations on the index. … its
//! updates can be delayed and batched. In this case, its version lags
//! behind the row store's, and AP queries run on the version of snapshot
//! subject to the column index."
//!
//! A [`ColumnIndexMaintainer`] is one more consumer of each DN's
//! committed-transaction feed, beside the RO replicas: the batch is what one
//! `ship()` carries, applied under one index write lock before the ship
//! returns — a reader that shipped up to its snapshot reads the index at
//! once, the RO replica's session-consistency rule — and followed by a
//! tombstone reclaim when one is due.

use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

use polardbx_common::{Lsn, NodeId, Result, TableId};
use polardbx_storage::{CommittedTxn, RedoConsumer, RowChange};

use crate::index::ColumnIndex;

/// Keeps one table's column index equal to its row store by applying the
/// committed transactions the DNs' feeds carry.
///
/// Life cycle: create it, subscribe it to every DN, scan the table into the
/// index at some `ts` the DNs' clocks have passed, then
/// [`finish_build`](ColumnIndexMaintainer::finish_build)`(ts)`. What the
/// feeds bring while the scan runs is held back; afterwards, and for good,
/// a transaction committed at or below `ts` is skipped — the scan already
/// holds its images.
pub struct ColumnIndexMaintainer {
    index: Arc<ColumnIndex>,
    /// The shard tables whose rows the index holds.
    shard_tables: HashSet<TableId>,
    state: Mutex<FeedState>,
}

struct FeedState {
    /// The table's transactions fed while the initial scan runs; `None`
    /// once the index is live.
    held: Option<Vec<CommittedTxn>>,
    /// The timestamp of the initial scan.
    built_at: u64,
}

impl ColumnIndexMaintainer {
    /// A maintainer for a fresh `index` over the rows of `shard_tables`.
    pub fn new(
        index: Arc<ColumnIndex>,
        shard_tables: impl IntoIterator<Item = TableId>,
    ) -> Arc<ColumnIndexMaintainer> {
        Arc::new(ColumnIndexMaintainer {
            index,
            shard_tables: shard_tables.into_iter().collect(),
            state: Mutex::new(FeedState { held: Some(Vec::new()), built_at: 0 }),
        })
    }

    /// The maintained index.
    pub fn index(&self) -> &Arc<ColumnIndex> {
        &self.index
    }

    /// The initial scan at `built_at` is in the index: apply what was held
    /// back meanwhile and go live. The index answers no snapshot older than
    /// `built_at`.
    pub fn finish_build(&self, built_at: u64) -> Result<()> {
        let mut state = self.state.lock();
        state.built_at = built_at;
        self.index.raise_floor(built_at);
        let held = state.held.take().unwrap_or_default();
        self.apply(built_at, &held)
    }

    /// Is `change` to a row of the indexed table?
    fn holds(&self, change: &RowChange) -> bool {
        self.shard_tables.contains(&change.table)
    }

    /// Apply the changes `txns` made to the indexed table, under one write
    /// lock: a snapshot sees a batch whole or not at all.
    fn apply(&self, built_at: u64, txns: &[CommittedTxn]) -> Result<()> {
        let mut writer = None;
        for txn in txns.iter().filter(|txn| txn.commit_ts > built_at) {
            for change in txn.changes.iter().filter(|c| self.holds(c)) {
                let writer = writer.get_or_insert_with(|| self.index.writer());
                match &change.row {
                    Some(row) => writer.put(txn.trx, txn.commit_ts, change.key.clone(), row)?,
                    None => writer.delete(txn.commit_ts, &change.key),
                }
            }
        }
        Ok(())
    }
}

impl RedoConsumer for ColumnIndexMaintainer {
    fn consume(&self, _source: NodeId, _through: Lsn, txns: &[CommittedTxn]) {
        let mut state = self.state.lock();
        match &mut state.held {
            Some(held) => {
                let touches = |txn: &&CommittedTxn| txn.changes.iter().any(|c| self.holds(c));
                held.extend(txns.iter().filter(touches).cloned());
            }
            // A row the index cannot store retires it: no snapshot is
            // answered from here on, and the row store serves the table.
            None => {
                if self.apply(state.built_at, txns).is_err() {
                    self.index.raise_floor(u64::MAX);
                }
                self.index.reclaim();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{DataType, Key, Row, TrxId, Value};

    const T: TableId = TableId(1);
    const DN: NodeId = NodeId(7);

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64, b: f64) -> Row {
        Row::new(vec![Value::Int(n), Value::Double(b)])
    }

    fn put(trx: u64, ts: u64, table: TableId, n: i64, b: f64) -> CommittedTxn {
        let changes = vec![RowChange { table, key: key(n), row: Some(row(n, b)) }];
        CommittedTxn { trx: TrxId(trx), commit_ts: ts, changes }
    }

    fn delete(trx: u64, ts: u64, n: i64) -> CommittedTxn {
        let changes = vec![RowChange { table: T, key: key(n), row: None }];
        CommittedTxn { trx: TrxId(trx), commit_ts: ts, changes }
    }

    /// A live maintainer over an empty table built at `built_at`.
    fn live(built_at: u64) -> (Arc<ColumnIndex>, Arc<ColumnIndexMaintainer>) {
        let idx = ColumnIndex::new(vec![DataType::Int, DataType::Double]);
        let m = ColumnIndexMaintainer::new(Arc::clone(&idx), [T]);
        m.finish_build(built_at).unwrap();
        (idx, m)
    }

    #[test]
    fn a_fed_commit_is_applied_at_its_timestamp() {
        let (idx, m) = live(0);
        m.consume(DN, Lsn(40), &[put(1, 10, T, 5, 2.5)]);
        assert_eq!(idx.snapshot(9).len(), 0);
        assert_eq!(idx.snapshot(10).rows(), vec![row(5, 2.5)]);
        m.consume(DN, Lsn(80), &[put(2, 20, T, 5, 9.0)]);
        assert_eq!(idx.snapshot(15).rows(), vec![row(5, 2.5)]);
        assert_eq!(idx.snapshot(25).rows(), vec![row(5, 9.0)]);
        // Every image is dead after this batch: it ends in a compaction.
        m.consume(DN, Lsn(120), &[delete(3, 30, 5)]);
        assert_eq!(idx.snapshot(30).len(), 0);
        assert_eq!((idx.physical_rows(), idx.floor()), (0, 30));
        assert!(idx.snapshot_at(25).is_none());
    }

    #[test]
    fn other_tables_are_ignored() {
        let (idx, m) = live(0);
        m.consume(DN, Lsn(40), &[put(1, 10, TableId(99), 1, 1.0)]);
        assert_eq!(idx.physical_rows(), 0);
    }

    #[test]
    fn the_build_holds_the_feed_back_and_skips_what_the_scan_reflects() {
        let idx = ColumnIndex::new(vec![DataType::Int, DataType::Double]);
        let m = ColumnIndexMaintainer::new(Arc::clone(&idx), [T]);
        // Fed while the scan runs: one commit the scan at 15 reflects, one
        // it does not.
        m.consume(DN, Lsn(40), &[put(1, 10, T, 1, 1.0), put(2, 20, T, 2, 2.0)]);
        assert_eq!(idx.physical_rows(), 0, "held back");
        idx.apply_put(TrxId(0), 15, key(1), &row(1, 1.0)).unwrap();
        m.finish_build(15).unwrap();
        assert_eq!(idx.physical_rows(), 2, "key 1 was not applied twice");
        assert_eq!(idx.snapshot(20).rows(), vec![row(1, 1.0), row(2, 2.0)]);
        assert!(idx.snapshot_at(14).is_none(), "no history from before the build");
        // A commit at or below the build that the feed delivers late.
        m.consume(DN, Lsn(80), &[put(3, 12, T, 1, 1.0)]);
        assert_eq!(idx.physical_rows(), 2);
    }

    #[test]
    fn tombstones_are_reclaimed_and_answers_unchanged() {
        let (idx, m) = live(0);
        let mut model = std::collections::HashMap::new();
        let (mut ts, mut most) = (0u64, 0usize);
        // 10 000 updates of 100 keys, in feed batches of 50; each batch
        // ends with a compaction when one is due.
        for batch in 0..200u64 {
            let txns: Vec<CommittedTxn> = (0..50u64)
                .map(|i| {
                    ts += 1;
                    let k = ((batch * 50 + i) * 37 % 100) as i64;
                    model.insert(k, ts as f64);
                    put(ts, ts, T, k, ts as f64)
                })
                .collect();
            m.consume(DN, Lsn(ts), &txns);
            most = most.max(idx.physical_rows());
        }
        assert_eq!(idx.live_rows(), 100);
        assert!(most <= 100 * 2 + 50, "physical rows peaked at {most}");
        assert!(idx.floor() > 0, "compaction raised the floor");
        let mut rows = idx.snapshot_at(ts).expect("the newest snapshot is served").rows();
        rows.sort_by(|a, b| a.values().cmp(b.values()));
        let mut expect: Vec<Row> = model.iter().map(|(&k, &v)| row(k, v)).collect();
        expect.sort_by(|a, b| a.values().cmp(b.values()));
        assert_eq!(rows, expect);
    }
}
