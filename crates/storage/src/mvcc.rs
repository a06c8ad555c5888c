//! MVCC version store with snapshot-isolation visibility (§IV).
//!
//! Rows carry version chains. A snapshot read at `snapshot_ts` sees the
//! newest version whose writer committed with `commit_ts <= snapshot_ts`.
//! The three §IV cases are implemented literally:
//!
//! 1. writer COMMITTED → visibility decided by its `commit_ts`;
//! 2. writer PREPARED → the reader must wait for the decision
//!    ([`ReadResult::MustWait`], resolved through [`crate::txn::TxnTable`]);
//! 3. writer ACTIVE → invisible, skip to older versions.
//!
//! Writes are first-committer-wins: installing an intent over a pending
//! intent of another transaction, or over a committed version newer than
//! the writer's snapshot, raises a write conflict.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::Duration;

use polardbx_common::{Error, Key, Result, Row, TrxId, VersionRef};

use crate::shard::{shard_index, DEFAULT_SHARDS};
use crate::txn::{TxnState, TxnTable};

/// What a version does to the row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionOp {
    /// The row exists with this content.
    Put(Row),
    /// The row is deleted (tombstone).
    Delete,
}

#[derive(Debug, Clone)]
struct Version {
    trx: TrxId,
    /// Commit timestamp; `None` while the writer is undecided.
    decided_ts: Option<u64>,
    op: VersionOp,
}

/// Outcome of a low-level visibility check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadResult {
    /// A visible row.
    Row(Row),
    /// No visible version (never existed, or deleted at this snapshot).
    NotFound,
    /// A PREPARED writer blocks the decision; wait for it, then retry.
    MustWait(TrxId),
}

/// Who reads a [`VersionStore`], at what snapshot, and how long a
/// PREPARED writer is waited for.
#[derive(Clone, Copy)]
pub(crate) struct Snapshot<'t> {
    /// The node's transaction table.
    pub(crate) txns: &'t TxnTable,
    /// The read timestamp.
    pub(crate) snapshot_ts: u64,
    /// The reading transaction, which sees its own writes.
    pub(crate) me: Option<TrxId>,
    /// The longest wait for one writer's decision.
    pub(crate) timeout: Duration,
    /// Skip PREPARED writers instead of waiting — checker-validation mode
    /// only.
    pub(crate) ignore_prepared: bool,
}

/// What a snapshot sees of one key: [`ReadResult`] with the row borrowed
/// from its version chain, for a reader that copies only what it keeps.
enum Seen<'c> {
    Row(&'c Row),
    NotFound,
    MustWait(TrxId),
}

impl Seen<'_> {
    fn owned(self) -> ReadResult {
        match self {
            Seen::Row(r) => ReadResult::Row(r.clone()),
            Seen::NotFound => ReadResult::NotFound,
            Seen::MustWait(w) => ReadResult::MustWait(w),
        }
    }
}

/// Versioned key-value store for one table's primary data (or one hidden
/// index table).
///
/// The store does not own a transaction table; callers pass the node's
/// [`TxnTable`] to each operation. This keeps stores *relocatable*: a
/// cutover (§V tenant migration, §VIII shard re-home) hands a store to
/// another RW node by `Arc`, and RO replicas hold the same `Arc`. That
/// shared reference is this reproduction's shared storage (§II-A): no row
/// is copied, only the owning engine (and hence the transaction table
/// consulted) changes.
///
/// Internally the key space is split into fixed lock shards (hash of the
/// encoded key) so concurrent committers stamping disjoint keys don't
/// serialize on one `RwLock` — a prerequisite for group commit to actually
/// form groups. Range scans visit every shard and merge-sort the results;
/// each shard keeps a `BTreeMap` so per-shard range filtering stays cheap.
pub struct VersionStore {
    shards: Vec<RwLock<BTreeMap<Key, Vec<Version>>>>,
}

impl Default for VersionStore {
    fn default() -> Self {
        VersionStore::new()
    }
}

impl VersionStore {
    /// An empty store with [`DEFAULT_SHARDS`] lock shards.
    pub fn new() -> VersionStore {
        VersionStore {
            shards: (0..DEFAULT_SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
        }
    }

    fn shard(&self, key: &Key) -> &RwLock<BTreeMap<Key, Vec<Version>>> {
        &self.shards[shard_index(key, self.shards.len())]
    }

    /// Install a write intent for `trx` (snapshot taken at `snapshot_ts`).
    ///
    /// First-committer-wins validation happens here, at write time — the
    /// classic SI implementation InnoDB-style engines use.
    pub fn write(
        &self,
        txns: &TxnTable,
        trx: TrxId,
        snapshot_ts: u64,
        key: Key,
        op: VersionOp,
    ) -> Result<()> {
        let mut map = self.shard(&key).write();
        let chain = map.entry(key.clone()).or_default();
        // Drop aborted leftovers opportunistically.
        chain.retain(|v| {
            v.decided_ts.is_some()
                || !matches!(txns.state(v.trx), Some(TxnState::Aborted) | None)
        });
        if let Some(newest) = chain.last() {
            if newest.trx != trx {
                // An unstamped version may belong to a writer that already
                // decided in the transaction table (commit stamps the table
                // before the store) — use the table's verdict then.
                let decided = newest.decided_ts.or_else(|| match txns.state(newest.trx) {
                    Some(TxnState::Committed { commit_ts }) => Some(commit_ts),
                    _ => None,
                });
                match decided {
                    Some(ts) if ts > snapshot_ts => {
                        return Err(Error::WriteConflict { key: format!("{key}") });
                    }
                    Some(_) => {}
                    None => {
                        // Another pending writer holds the row.
                        return Err(Error::WriteConflict { key: format!("{key}") });
                    }
                }
            }
        }
        // Same transaction overwrites its own intent in place.
        if let Some(last) = chain.last_mut() {
            if last.trx == trx && last.decided_ts.is_none() {
                last.op = op;
                return Ok(());
            }
        }
        chain.push(Version { trx, decided_ts: None, op });
        Ok(())
    }

    /// Stamp `trx`'s intents on `keys` as committed at `commit_ts`.
    pub fn commit(&self, trx: TrxId, commit_ts: u64, keys: &[Key]) {
        for key in keys {
            let mut map = self.shard(key).write();
            if let Some(chain) = map.get_mut(key) {
                for v in chain.iter_mut() {
                    if v.trx == trx && v.decided_ts.is_none() {
                        v.decided_ts = Some(commit_ts);
                    }
                }
            }
        }
    }

    /// Remove `trx`'s intents on `keys` (rollback).
    pub fn abort(&self, trx: TrxId, keys: &[Key]) {
        for key in keys {
            let mut map = self.shard(key).write();
            if let Some(chain) = map.get_mut(key) {
                chain.retain(|v| !(v.trx == trx && v.decided_ts.is_none()));
                if chain.is_empty() {
                    map.remove(key);
                }
            }
        }
    }

    /// Torn-epoch rollback of a *decided* transaction: revert `trx`'s
    /// stamped versions to undecided intents (`decided_ts` back to `None`).
    /// Every participant voted yes, so the decision stands and the versions
    /// must survive — they return to the PREPARED visibility regime until the
    /// decision is re-driven.
    pub fn unstamp(&self, trx: TrxId, keys: &[Key]) {
        for key in keys {
            let mut map = self.shard(key).write();
            if let Some(chain) = map.get_mut(key) {
                for v in chain.iter_mut() {
                    if v.trx == trx {
                        v.decided_ts = None;
                    }
                }
            }
        }
    }

    /// Torn-epoch rollback of an *undecided* transaction: remove `trx`'s
    /// versions outright, stamped or not (presumed abort — the commit
    /// record never became durable). [`VersionStore::abort`] only removes
    /// unstamped intents; early lock release stamps before durability, so
    /// this stronger form is needed.
    pub fn rollback_stamped(&self, trx: TrxId, keys: &[Key]) {
        for key in keys {
            let mut map = self.shard(key).write();
            if let Some(chain) = map.get_mut(key) {
                chain.retain(|v| v.trx != trx);
                if chain.is_empty() {
                    map.remove(key);
                }
            }
        }
    }

    /// Apply an already-committed change directly (redo replay on RO nodes
    /// and Paxos followers — the writer's decision travelled with the log).
    pub fn apply_committed(&self, trx: TrxId, commit_ts: u64, key: Key, op: VersionOp) {
        let mut map = self.shard(&key).write();
        let chain = map.entry(key).or_default();
        chain.push(Version { trx, decided_ts: Some(commit_ts), op });
    }

    fn visibility(
        &self,
        txns: &TxnTable,
        chain: &[Version],
        snapshot_ts: u64,
        me: Option<TrxId>,
    ) -> ReadResult {
        self.visibility_observed(txns, chain, snapshot_ts, me, false).0.owned()
    }

    /// [`VersionStore::visibility`] that also reports *which* version the
    /// read resolved to (for history recording), and optionally ignores
    /// PREPARED writers instead of waiting — a deliberately broken mode
    /// (`ignore_prepared = true`) used only to validate the isolation
    /// checker: it reads below the snapshot watermark, exactly the §IV
    /// case-2 violation HLC-SI exists to prevent.
    fn visibility_observed<'c>(
        &self,
        txns: &TxnTable,
        chain: &'c [Version],
        snapshot_ts: u64,
        me: Option<TrxId>,
        ignore_prepared: bool,
    ) -> (Seen<'c>, Option<VersionRef>) {
        for v in chain.iter().rev() {
            if Some(v.trx) == me {
                let observed = Some(VersionRef { writer: v.trx, commit_ts: v.decided_ts });
                return match &v.op {
                    VersionOp::Put(row) => (Seen::Row(row), observed),
                    VersionOp::Delete => (Seen::NotFound, observed),
                };
            }
            match v.decided_ts {
                Some(ts) if ts <= snapshot_ts => {
                    // Early lock release: a stamped version whose writer's
                    // epoch is still in flight must not escape to another
                    // transaction — its commit could yet be rolled back by
                    // a torn epoch. Gate until the epoch resolves.
                    if txns.is_unstable(v.trx) {
                        return (Seen::MustWait(v.trx), None);
                    }
                    let observed = Some(VersionRef { writer: v.trx, commit_ts: Some(ts) });
                    return match &v.op {
                        VersionOp::Put(row) => (Seen::Row(row), observed),
                        VersionOp::Delete => (Seen::NotFound, observed),
                    };
                }
                Some(_) => continue, // committed in the future of this snapshot
                None => match txns.state(v.trx) {
                    Some(TxnState::Prepared { .. }) => {
                        if ignore_prepared {
                            continue;
                        }
                        return (Seen::MustWait(v.trx), None);
                    }
                    Some(TxnState::Committed { commit_ts }) => {
                        if commit_ts <= snapshot_ts {
                            if txns.is_unstable(v.trx) {
                                return (Seen::MustWait(v.trx), None);
                            }
                            let observed =
                                Some(VersionRef { writer: v.trx, commit_ts: Some(commit_ts) });
                            return match &v.op {
                                VersionOp::Put(row) => (Seen::Row(row), observed),
                                VersionOp::Delete => (Seen::NotFound, observed),
                            };
                        }
                        continue;
                    }
                    // ACTIVE → invisible; ABORTED/unknown → stale garbage.
                    _ => continue,
                },
            }
        }
        (Seen::NotFound, None)
    }

    /// Point read at `snapshot_ts`. `me` marks the reading transaction so
    /// it sees its own uncommitted writes.
    pub fn read(
        &self,
        txns: &TxnTable,
        key: &Key,
        snapshot_ts: u64,
        me: Option<TrxId>,
    ) -> ReadResult {
        let map = self.shard(key).read();
        match map.get(key) {
            Some(chain) => self.visibility(txns, chain, snapshot_ts, me),
            None => ReadResult::NotFound,
        }
    }

    /// Point read that transparently waits out PREPARED writers (§IV case 2).
    pub fn read_waiting(
        &self,
        txns: &TxnTable,
        key: &Key,
        snapshot_ts: u64,
        me: Option<TrxId>,
        timeout: Duration,
    ) -> Result<Option<Row>> {
        self.read_waiting_observed(txns, key, snapshot_ts, me, timeout, false)
            .map(|(row, _)| row)
    }

    /// [`VersionStore::read_waiting`] that also reports the observed
    /// version (for history recording). `ignore_prepared` skips PREPARED
    /// writers instead of waiting — checker-validation mode only.
    pub fn read_waiting_observed(
        &self,
        txns: &TxnTable,
        key: &Key,
        snapshot_ts: u64,
        me: Option<TrxId>,
        timeout: Duration,
        ignore_prepared: bool,
    ) -> Result<(Option<Row>, Option<VersionRef>)> {
        loop {
            let (result, observed) = {
                let map = self.shard(key).read();
                match map.get(key) {
                    Some(chain) => {
                        let (seen, observed) =
                            self.visibility_observed(txns, chain, snapshot_ts, me, ignore_prepared);
                        (seen.owned(), observed)
                    }
                    None => (ReadResult::NotFound, None),
                }
            };
            match result {
                ReadResult::Row(r) => return Ok((Some(r), observed)),
                ReadResult::NotFound => return Ok((None, observed)),
                ReadResult::MustWait(writer) => {
                    Self::wait_out(txns, writer, timeout)?;
                }
            }
        }
    }

    /// Resolve a `MustWait`: a PREPARED writer needs its decision, an
    /// unstable (epoch-in-flight) writer needs its durability horizon.
    /// Both waits return immediately when already satisfied, so calling
    /// them in sequence is race-free — the visibility retry re-checks.
    fn wait_out(txns: &TxnTable, writer: TrxId, timeout: Duration) -> Result<()> {
        txns.wait_decided(writer, timeout)?;
        txns.wait_stable(writer, timeout)
    }

    /// Range scan of visible rows at `snapshot_ts`, waiting out PREPARED
    /// writers. Bounds are on encoded keys.
    pub fn scan(
        &self,
        txns: &TxnTable,
        lower: Bound<&Key>,
        upper: Bound<&Key>,
        snapshot_ts: u64,
        me: Option<TrxId>,
        timeout: Duration,
    ) -> Result<Vec<(Key, Row)>> {
        self.scan_observed(txns, lower, upper, snapshot_ts, me, timeout, false)
            .map(|rows| rows.into_iter().map(|(k, r, _)| (k, r)).collect())
    }

    /// [`VersionStore::scan`] that also reports which version each row
    /// resolved to (for history recording). `ignore_prepared` skips
    /// PREPARED writers instead of waiting — checker-validation mode only.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_observed(
        &self,
        txns: &TxnTable,
        lower: Bound<&Key>,
        upper: Bound<&Key>,
        snapshot_ts: u64,
        me: Option<TrxId>,
        timeout: Duration,
        ignore_prepared: bool,
    ) -> Result<Vec<(Key, Row, VersionRef)>> {
        let read = Snapshot { txns, snapshot_ts, me, timeout, ignore_prepared };
        let mut out = self.visit(&read, (lower, upper), Vec::new, |out, k, r, observed| {
            out.push((k.clone(), r.clone(), observed))
        })?;
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Hand every row visible to `read` within `bounds` to `visit`,
    /// borrowed, with the version it resolved to: shard by shard under
    /// each shard's read lock, so in key order within a shard only.
    /// PREPARED writers are waited out: a MustWait abandons the pass, and
    /// the retry visits every shard again into a fresh `start()`, so what
    /// the visitor returns is still one consistent snapshot.
    pub(crate) fn visit<T>(
        &self,
        read: &Snapshot,
        bounds: (Bound<&Key>, Bound<&Key>),
        mut start: impl FnMut() -> T,
        mut visit: impl FnMut(&mut T, &Key, &Row, VersionRef),
    ) -> Result<T> {
        let Snapshot { txns, snapshot_ts, me, timeout, ignore_prepared } = *read;
        loop {
            let mut pending_writer = None;
            let mut out = start();
            // Shards partition the key space by hash, not by range: every
            // shard may hold keys inside the bounds, so visit them all.
            'shards: for shard in &self.shards {
                let map = shard.read();
                for (k, chain) in map.range::<Key, _>(bounds) {
                    match self.visibility_observed(txns, chain, snapshot_ts, me, ignore_prepared)
                    {
                        (Seen::Row(r), observed) => {
                            let observed = observed
                                .unwrap_or(VersionRef { writer: TrxId(0), commit_ts: None });
                            visit(&mut out, k, r, observed);
                        }
                        (Seen::NotFound, _) => {}
                        (Seen::MustWait(w), _) => {
                            pending_writer = Some(w);
                            break 'shards;
                        }
                    }
                }
            }
            match pending_writer {
                None => return Ok(out),
                Some(w) => Self::wait_out(txns, w, timeout)?,
            }
        }
    }

    /// Full scan helper.
    pub fn scan_all(
        &self,
        txns: &TxnTable,
        snapshot_ts: u64,
        me: Option<TrxId>,
        timeout: Duration,
    ) -> Result<Vec<(Key, Row)>> {
        self.scan(txns, Bound::Unbounded, Bound::Unbounded, snapshot_ts, me, timeout)
    }

    /// Purge version garbage: keep, per key, only the newest version
    /// committed at or before `horizon` plus everything newer than it.
    pub fn purge(&self, horizon: u64) {
        for shard in &self.shards {
            let mut map = shard.write();
            map.retain(|_, chain| {
                if let Some(cut) = chain
                    .iter()
                    .rposition(|v| matches!(v.decided_ts, Some(ts) if ts <= horizon))
                {
                    chain.drain(0..cut);
                }
                // Remove a trailing tombstone that is the only version left.
                !(chain.len() == 1
                    && matches!(chain[0].op, VersionOp::Delete)
                    && matches!(chain[0].decided_ts, Some(ts) if ts <= horizon))
            });
        }
    }

    /// Number of keys with any version.
    #[cfg(test)]
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Total number of versions (GC metric).
    #[cfg(test)]
    pub fn version_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().values().map(Vec::len).sum::<usize>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Value;
    use std::sync::Arc;

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(n: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(n), Value::str(s)])
    }

    fn store() -> (Arc<VersionStore>, Arc<TxnTable>) {
        (Arc::new(VersionStore::new()), Arc::new(TxnTable::new()))
    }

    fn commit_one(s: &VersionStore, t: &TxnTable, trx: TrxId, ts: u64, keys: &[Key]) {
        t.commit(trx, ts).unwrap();
        s.commit(trx, ts, keys);
    }

    #[test]
    fn snapshot_sees_only_past_commits() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "v1"))).unwrap();
        commit_one(&s, &t, TrxId(1), 10, &[key(1)]);

        t.begin(TrxId(2));
        s.write(&t, TrxId(2), 10, key(1), VersionOp::Put(row(1, "v2"))).unwrap();
        commit_one(&s, &t, TrxId(2), 20, &[key(1)]);

        assert_eq!(s.read(&t, &key(1), 5, None), ReadResult::NotFound);
        assert_eq!(s.read(&t, &key(1), 10, None), ReadResult::Row(row(1, "v1")));
        assert_eq!(s.read(&t, &key(1), 15, None), ReadResult::Row(row(1, "v1")));
        assert_eq!(s.read(&t, &key(1), 20, None), ReadResult::Row(row(1, "v2")));
    }

    #[test]
    fn own_writes_visible() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "mine"))).unwrap();
        assert_eq!(s.read(&t, &key(1), 0, Some(TrxId(1))), ReadResult::Row(row(1, "mine")));
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::NotFound, "others blind");
    }

    #[test]
    fn active_writer_invisible_prepared_blocks() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "x"))).unwrap();
        // ACTIVE: case 3 — plain invisible.
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::NotFound);
        // PREPARED: case 2 — reader must wait.
        t.prepare(TrxId(1), 50).unwrap();
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::MustWait(TrxId(1)));
    }

    #[test]
    fn read_waiting_resolves_after_commit() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "late"))).unwrap();
        t.prepare(TrxId(1), 50).unwrap();
        let (s2, t2) = (Arc::clone(&s), Arc::clone(&t));
        let reader = std::thread::spawn(move || {
            s2.read_waiting(&t2, &key(1), 100, None, Duration::from_secs(2)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        t.commit(TrxId(1), 60).unwrap();
        s.commit(TrxId(1), 60, &[key(1)]);
        assert_eq!(reader.join().unwrap(), Some(row(1, "late")));
    }

    #[test]
    fn write_write_conflict_pending() {
        let (s, t) = store();
        t.begin(TrxId(1));
        t.begin(TrxId(2));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "a"))).unwrap();
        let err = s.write(&t, TrxId(2), 0, key(1), VersionOp::Put(row(1, "b"))).unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }));
    }

    #[test]
    fn first_committer_wins() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "a"))).unwrap();
        commit_one(&s, &t, TrxId(1), 10, &[key(1)]);
        // T2's snapshot (5) predates T1's commit (10): conflict.
        t.begin(TrxId(2));
        let err = s.write(&t, TrxId(2), 5, key(1), VersionOp::Put(row(1, "b"))).unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }));
        // A later snapshot is fine.
        t.begin(TrxId(3));
        s.write(&t, TrxId(3), 10, key(1), VersionOp::Put(row(1, "c"))).unwrap();
    }

    #[test]
    fn abort_removes_intents() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "x"))).unwrap();
        t.abort(TrxId(1));
        s.abort(TrxId(1), &[key(1)]);
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::NotFound);
        assert_eq!(s.key_count(), 0);
        // The row is writable again.
        t.begin(TrxId(2));
        s.write(&t, TrxId(2), 0, key(1), VersionOp::Put(row(1, "y"))).unwrap();
    }

    #[test]
    fn delete_produces_tombstone_semantics() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "x"))).unwrap();
        commit_one(&s, &t, TrxId(1), 10, &[key(1)]);
        t.begin(TrxId(2));
        s.write(&t, TrxId(2), 10, key(1), VersionOp::Delete).unwrap();
        commit_one(&s, &t, TrxId(2), 20, &[key(1)]);
        assert_eq!(s.read(&t, &key(1), 15, None), ReadResult::Row(row(1, "x")));
        assert_eq!(s.read(&t, &key(1), 25, None), ReadResult::NotFound);
    }

    #[test]
    fn scan_respects_snapshot_and_bounds() {
        let (s, t) = store();
        for i in 0..10i64 {
            let trx = TrxId(100 + i as u64);
            t.begin(trx);
            s.write(&t, trx, 0, key(i), VersionOp::Put(row(i, "v"))).unwrap();
            commit_one(&s, &t, trx, (i as u64 + 1) * 10, &[key(i)]);
        }
        // Snapshot 50 sees keys committed at 10..=50 → i = 0..=4.
        let rows = s.scan_all(&t, 50, None, Duration::from_secs(1)).unwrap();
        assert_eq!(rows.len(), 5);
        // Bounded scan.
        let rows = s
            .scan(
                &t,
                Bound::Included(&key(2)),
                Bound::Excluded(&key(4)),
                u64::MAX,
                None,
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, key(2));
    }

    #[test]
    fn scan_waits_for_prepared() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(5), VersionOp::Put(row(5, "p"))).unwrap();
        t.prepare(TrxId(1), 10).unwrap();
        let (s2, t2) = (Arc::clone(&s), Arc::clone(&t));
        let scanner = std::thread::spawn(move || {
            s2.scan_all(&t2, 100, None, Duration::from_secs(2)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        t.commit(TrxId(1), 20).unwrap();
        s.commit(TrxId(1), 20, &[key(5)]);
        let rows = scanner.join().unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn apply_committed_for_replicas() {
        let (s, t) = store();
        s.apply_committed(TrxId(1), 10, key(1), VersionOp::Put(row(1, "replicated")));
        assert_eq!(s.read(&t, &key(1), 10, None), ReadResult::Row(row(1, "replicated")));
        assert_eq!(s.read(&t, &key(1), 9, None), ReadResult::NotFound);
    }

    #[test]
    fn purge_compacts_chains() {
        let (s, t) = store();
        for v in 1..=5u64 {
            let trx = TrxId(v);
            t.begin(trx);
            s.write(&t, trx, v * 10, key(1), VersionOp::Put(row(1, &format!("v{v}")))).unwrap();
            commit_one(&s, &t, trx, v * 10 + 5, &[key(1)]);
        }
        assert_eq!(s.version_count(), 5);
        s.purge(40); // newest commit <= 40 is v3 (ts 35)
        assert!(s.version_count() <= 3);
        // Reads at/after the horizon still work.
        assert_eq!(s.read(&t, &key(1), 40, None), ReadResult::Row(row(1, "v3")));
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::Row(row(1, "v5")));
    }

    #[test]
    fn unstable_writer_gates_other_readers_not_self() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "elr"))).unwrap();
        t.mark_unstable(TrxId(1));
        t.commit(TrxId(1), 10).unwrap();
        s.commit(TrxId(1), 10, &[key(1)]);
        // Another reader at a covering snapshot must wait for stability.
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::MustWait(TrxId(1)));
        // The writer itself sees its own version (it holds the ticket).
        assert_eq!(s.read(&t, &key(1), 100, Some(TrxId(1))), ReadResult::Row(row(1, "elr")));
        // Older snapshots never observe it, so they are not gated.
        assert_eq!(s.read(&t, &key(1), 5, None), ReadResult::NotFound);
        // Stability lifts the gate.
        t.mark_stable_batch(&[TrxId(1)]);
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::Row(row(1, "elr")));
    }

    #[test]
    fn read_waiting_resolves_after_stability() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "pending"))).unwrap();
        t.mark_unstable(TrxId(1));
        t.commit(TrxId(1), 10).unwrap();
        s.commit(TrxId(1), 10, &[key(1)]);
        let (s2, t2) = (Arc::clone(&s), Arc::clone(&t));
        let reader = std::thread::spawn(move || {
            s2.read_waiting(&t2, &key(1), 100, None, Duration::from_secs(2)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        t.mark_stable_batch(&[TrxId(1)]);
        assert_eq!(reader.join().unwrap(), Some(row(1, "pending")));
    }

    #[test]
    fn gated_reader_never_sees_a_torn_epoch_rollback() {
        // Race regression: a reader parked on an unstable writer is woken
        // by the rollback's demotion notify. With the inverted order
        // (demote before rollback_stamped) the reader could re-run
        // visibility while the stamped version was still present but the
        // unstable flag already cleared — returning an aborted txn's row.
        // The correct order (versions first, demote last) must yield
        // NotFound on every schedule.
        for _ in 0..50 {
            let (s, t) = store();
            t.begin(TrxId(1));
            s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "dirty"))).unwrap();
            t.mark_unstable(TrxId(1));
            t.commit(TrxId(1), 10).unwrap();
            s.commit(TrxId(1), 10, &[key(1)]);
            let (s2, t2) = (Arc::clone(&s), Arc::clone(&t));
            let reader = std::thread::spawn(move || {
                s2.read_waiting(&t2, &key(1), 100, None, Duration::from_secs(2)).unwrap()
            });
            // Torn-epoch rollback, in the engine's order.
            s.rollback_stamped(TrxId(1), &[key(1)]);
            t.demote_unstable_to_aborted(TrxId(1));
            assert_eq!(reader.join().unwrap(), None, "dirty read of a rolled-back commit");
        }
    }

    #[test]
    fn elr_allows_write_over_unstable_commit() {
        // The early-lock-release win: a later writer with a covering
        // snapshot may overwrite a stamped-but-unstable version without
        // waiting for its epoch to persist.
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "a"))).unwrap();
        t.mark_unstable(TrxId(1));
        t.commit(TrxId(1), 10).unwrap();
        s.commit(TrxId(1), 10, &[key(1)]);
        t.begin(TrxId(2));
        s.write(&t, TrxId(2), 10, key(1), VersionOp::Put(row(1, "b"))).unwrap();
    }

    #[test]
    fn torn_epoch_rollback_paths() {
        let (s, t) = store();
        // Undecided: stamped version is removed wholesale.
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "gone"))).unwrap();
        t.mark_unstable(TrxId(1));
        t.commit(TrxId(1), 10).unwrap();
        s.commit(TrxId(1), 10, &[key(1)]);
        // Versions before state, matching the engine's `fail_unstable`
        // order: the unstable flag must still gate readers while the
        // stamped versions are being removed.
        s.rollback_stamped(TrxId(1), &[key(1)]);
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::NotFound);
        t.demote_unstable_to_aborted(TrxId(1));
        assert_eq!(s.read(&t, &key(1), 100, None), ReadResult::NotFound);
        assert_eq!(s.key_count(), 0);
        // Decided (2PC): stamped version reverts to a prepared intent.
        t.begin(TrxId(2));
        s.write(&t, TrxId(2), 0, key(2), VersionOp::Put(row(2, "kept"))).unwrap();
        t.prepare(TrxId(2), 5).unwrap();
        t.mark_unstable(TrxId(2));
        t.commit(TrxId(2), 12).unwrap();
        s.commit(TrxId(2), 12, &[key(2)]);
        s.unstamp(TrxId(2), &[key(2)]);
        // Mid-rollback (unstamped but not yet demoted): the version is an
        // undecided intent of a still-COMMITTED-but-unstable writer, so a
        // reader must keep waiting rather than observe either outcome.
        assert_eq!(s.read(&t, &key(2), 100, None), ReadResult::MustWait(TrxId(2)));
        t.demote_unstable_to_prepared(TrxId(2), 5);
        // Back in the PREPARED regime: readers wait for the re-decision.
        assert_eq!(s.read(&t, &key(2), 100, None), ReadResult::MustWait(TrxId(2)));
        t.commit(TrxId(2), 12).unwrap();
        s.commit(TrxId(2), 12, &[key(2)]);
        assert_eq!(s.read(&t, &key(2), 100, None), ReadResult::Row(row(2, "kept")));
    }

    #[test]
    fn purge_drops_old_tombstoned_keys() {
        let (s, t) = store();
        t.begin(TrxId(1));
        s.write(&t, TrxId(1), 0, key(1), VersionOp::Put(row(1, "x"))).unwrap();
        commit_one(&s, &t, TrxId(1), 10, &[key(1)]);
        t.begin(TrxId(2));
        s.write(&t, TrxId(2), 10, key(1), VersionOp::Delete).unwrap();
        commit_one(&s, &t, TrxId(2), 20, &[key(1)]);
        s.purge(30);
        assert_eq!(s.key_count(), 0, "fully-deleted old keys are reclaimed");
    }
}
