//! The per-table column index with commit-timestamp visibility.
//!
//! Rows are append-only: an update appends the new image and tombstones the
//! old one; each row carries `(created_ts, deleted_ts)` so a snapshot at
//! `ts` selects rows with `created_ts <= ts < deleted_ts`. The `trx_id` of
//! each row mirrors the row store's, which is what lets a hybrid plan read
//! both stores under one InnoDB read view (§VI-E).
//!
//! The index lives across statements, so a snapshot does not copy it: each
//! column sits behind an `Arc` the snapshot shares, and a write that finds
//! a column shared copies it first, with room to grow — once per snapshot
//! still alive at a write, not once per query; [`ColumnIndex::copies`]
//! counts them. A string column's copy is its codes: the strings stay in
//! dictionary blocks both copies share. The executor releases a snapshot's
//! columns when its answer is built, so between refreshes nothing holds
//! them and the feed's next write appends in place.
//!
//! A snapshot is O(1) — the column `Arc`s and a prefix of one shared run of
//! row ids, no row's stamps read — when no stored image is dead and `ts`
//! is at or past the newest image's commit: every row is visible. An older
//! snapshot, or one taken while a tombstoned image awaits compaction,
//! walks every row's `created` / `deleted` stamps.
//!
//! Compaction re-codes: each string column's dictionary keeps only the
//! entries a surviving row uses.

use parking_lot::{RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use polardbx_common::{DataType, Key, Result, Row, TrxId, Value};

use crate::column::ColumnData;

/// [`ColumnIndex::reclaim`] compacts once more than this share of the
/// stored images is tombstoned.
pub const COMPACT_DEAD_SHARE: f64 = 0.5;

const LIVE: u64 = u64::MAX;

struct IndexState {
    columns: Vec<Arc<ColumnData>>,
    /// Row-store transaction that created each row.
    trx_ids: Vec<TrxId>,
    created: Vec<u64>,
    deleted: Vec<u64>, // LIVE until tombstoned
    /// Tombstoned images still stored.
    dead: usize,
    /// Primary key → current row id (for update/delete capture).
    key_index: HashMap<Key, usize>,
    /// Index version: the highest commit timestamp applied.
    applied_ts: u64,
    /// The oldest snapshot the index can answer: it holds no history from
    /// before it was built, nor images compacted away since.
    floor: u64,
    /// No stored image was created after this: the highest `created`
    /// stamp appended. Compaction leaves it, still an upper bound.
    newest: u64,
    /// `0, 1, 2, …` for at least every stored row: the selection of a
    /// snapshot that sees them all is a prefix of it.
    every_row: Arc<[u32]>,
    /// Columns a write copied because a snapshot still held them.
    copies: u64,
}

impl IndexState {
    fn tombstone(&mut self, row_id: usize, commit_ts: u64) {
        self.deleted[row_id] = commit_ts;
        self.dead += 1;
    }

    fn snapshot(&self, ts: u64) -> ColumnSnapshot {
        let n = self.created.len();
        let selection = if self.dead == 0 && ts >= self.newest {
            Selection { ids: Arc::clone(&self.every_row), len: n }
        } else {
            self.visible(ts).into()
        };
        ColumnSnapshot { columns: self.columns.clone(), selection, ts }
    }

    /// The rows visible at `ts`, by each row's stamps.
    fn visible(&self, ts: u64) -> Vec<u32> {
        (0..self.created.len())
            .filter(|&i| {
                self.created[i] <= ts && (self.deleted[i] == LIVE || ts < self.deleted[i])
            })
            .map(|i| i as u32)
            .collect()
    }
}

/// The in-memory column index for one table.
pub struct ColumnIndex {
    state: RwLock<IndexState>,
}

/// Exclusive access to an index: the changes made through one writer
/// become visible to snapshots together.
pub struct IndexWriter<'a>(RwLockWriteGuard<'a, IndexState>);

impl IndexWriter<'_> {
    /// Apply a committed insert/update: appends the image, tombstoning any
    /// previous image of `key`.
    pub fn put(&mut self, trx: TrxId, commit_ts: u64, key: Key, row: &Row) -> Result<()> {
        let st = &mut *self.0;
        if let Some(&old) = st.key_index.get(&key) {
            st.tombstone(old, commit_ts);
        }
        // Rows shorter than the index schema pad with NULLs; a longer one
        // (the hidden implicit key) is cut to it.
        let values = row.values().iter().chain(std::iter::repeat(&Value::Null));
        for (column, v) in st.columns.iter_mut().zip(values) {
            if Arc::get_mut(column).is_none() {
                *column = Arc::new(column.copy_with_room());
                st.copies += 1;
            }
            Arc::get_mut(column).expect("a fresh copy is unshared").push(v)?;
        }
        st.trx_ids.push(trx);
        st.created.push(commit_ts);
        st.deleted.push(LIVE);
        let n = st.created.len();
        if st.every_row.len() < n {
            st.every_row = (0..(2 * n).max(1024) as u32).collect();
        }
        st.key_index.insert(key, n - 1);
        st.applied_ts = st.applied_ts.max(commit_ts);
        st.newest = st.newest.max(commit_ts);
        Ok(())
    }

    /// Apply a committed delete.
    pub fn delete(&mut self, commit_ts: u64, key: &Key) {
        let st = &mut *self.0;
        if let Some(old) = st.key_index.remove(key) {
            st.tombstone(old, commit_ts);
        }
        st.applied_ts = st.applied_ts.max(commit_ts);
    }
}

impl ColumnIndex {
    /// An empty index over columns of the given types.
    pub fn new(types: Vec<DataType>) -> Arc<ColumnIndex> {
        let columns = types.iter().map(|t| Arc::new(ColumnData::new(*t))).collect();
        Arc::new(ColumnIndex {
            state: RwLock::new(IndexState {
                columns,
                trx_ids: Vec::new(),
                created: Vec::new(),
                deleted: Vec::new(),
                dead: 0,
                key_index: HashMap::new(),
                applied_ts: 0,
                floor: 0,
                newest: 0,
                every_row: Arc::new([]),
                copies: 0,
            }),
        })
    }

    /// Lock the index for a run of changes.
    pub fn writer(&self) -> IndexWriter<'_> {
        IndexWriter(self.state.write())
    }

    /// [`IndexWriter::put`] of one image.
    pub fn apply_put(&self, trx: TrxId, commit_ts: u64, key: Key, row: &Row) -> Result<()> {
        self.writer().put(trx, commit_ts, key, row)
    }

    /// The index version (highest applied commit timestamp).
    pub fn version(&self) -> u64 {
        self.state.read().applied_ts
    }

    /// The oldest snapshot timestamp the index can answer.
    pub fn floor(&self) -> u64 {
        self.state.read().floor
    }

    /// The index holds nothing older than `ts` (it was built from a scan at
    /// `ts`): snapshots below it are refused from now on.
    pub fn raise_floor(&self, ts: u64) {
        let mut st = self.state.write();
        st.floor = st.floor.max(ts);
    }

    /// Total physical rows (including tombstoned images).
    pub fn physical_rows(&self) -> usize {
        self.state.read().created.len()
    }

    /// Rows visible to the newest snapshot.
    pub fn live_rows(&self) -> usize {
        let st = self.state.read();
        st.created.len() - st.dead
    }

    /// Columns a write has copied because a snapshot still held them. A
    /// reader that drops its snapshot before the next write keeps it at 0.
    pub fn copies(&self) -> u64 {
        self.state.read().copies
    }

    /// Snapshot the index at `ts`: a consistent selection + column access.
    /// The columns are shared with the index, not copied. The caller knows
    /// `ts` is not below the [floor](ColumnIndex::floor).
    pub fn snapshot(&self, ts: u64) -> ColumnSnapshot {
        self.state.read().snapshot(ts)
    }

    /// [`ColumnIndex::snapshot`], or `None` when `ts` lies below the floor:
    /// the index no longer (or never did) hold that version of the table.
    pub fn snapshot_at(&self, ts: u64) -> Option<ColumnSnapshot> {
        let st = self.state.read();
        (ts >= st.floor).then(|| st.snapshot(ts))
    }

    /// Reclaim tombstones once they pass [`COMPACT_DEAD_SHARE`] of the
    /// stored images: compact at the index version, which drops every dead
    /// image. Returns whether it compacted.
    pub fn reclaim(&self) -> bool {
        let (dead, physical, version) = {
            let st = self.state.read();
            (st.dead, st.created.len(), st.applied_ts)
        };
        let due = dead as f64 > physical as f64 * COMPACT_DEAD_SHARE;
        if due {
            self.compact(version);
        }
        due
    }

    /// Compact: drop rows tombstoned at or before `horizon` and raise the
    /// floor to it — a snapshot older than `horizon` would read a hole
    /// where a dropped image was, so it is refused instead. A string
    /// column is re-coded and drops the dictionary entries only dropped
    /// rows used. Snapshots already taken keep the columns they share.
    pub fn compact(&self, horizon: u64) {
        let st = &mut *self.state.write();
        st.floor = st.floor.max(horizon);
        let keep: Vec<usize> =
            (0..st.created.len()).filter(|&i| st.deleted[i] > horizon).collect();
        if keep.len() == st.created.len() {
            return;
        }
        let remap: HashMap<usize, usize> =
            keep.iter().enumerate().map(|(new_id, &old_id)| (old_id, new_id)).collect();
        st.key_index = st
            .key_index
            .iter()
            .filter_map(|(k, &old)| remap.get(&old).map(|&n| (k.clone(), n)))
            .collect();
        st.columns = st.columns.iter().map(|c| Arc::new(c.gather(&keep))).collect();
        st.trx_ids = keep.iter().map(|&i| st.trx_ids[i]).collect();
        st.created = keep.iter().map(|&i| st.created[i]).collect();
        st.deleted = keep.iter().map(|&i| st.deleted[i]).collect();
        st.dead = st.deleted.iter().filter(|&&d| d != LIVE).count();
    }

    /// Approximate memory footprint.
    pub fn heap_size(&self) -> usize {
        let st = self.state.read();
        st.columns.iter().map(|c| c.heap_size()).sum::<usize>() + st.created.len() * 24
    }
}

/// A consistent view of the index at one timestamp: the index's column
/// vectors, shared, plus the selection of row ids live at `ts`. A write to
/// the index after the snapshot copies a column the snapshot still holds
/// instead of changing it, so the view is immune to maintenance.
pub struct ColumnSnapshot {
    /// The column vectors.
    pub columns: Vec<Arc<ColumnData>>,
    /// Live row ids at `ts`.
    pub selection: Selection,
    /// Snapshot timestamp.
    pub ts: u64,
}

/// A snapshot's live row ids, ascending: a prefix of a shared run of ids.
/// A snapshot that sees every row shares the index's run `0, 1, 2, …`; one
/// that walked the rows' stamps holds its own.
pub struct Selection {
    ids: Arc<[u32]>,
    len: usize,
}

impl Deref for Selection {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.ids[..self.len]
    }
}

impl From<Vec<u32>> for Selection {
    fn from(ids: Vec<u32>) -> Selection {
        Selection { len: ids.len(), ids: ids.into() }
    }
}

impl ColumnSnapshot {
    /// Number of visible rows.
    pub fn len(&self) -> usize {
        self.selection.len()
    }

    /// True when no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.selection.is_empty()
    }

    /// Materialize a visible row by selection position.
    pub fn row(&self, pos: usize) -> Row {
        let id = self.selection[pos] as usize;
        Row::new(self.columns.iter().map(|c| c.get(id)).collect())
    }

    /// Materialize all visible rows (row-at-a-time fallback path).
    pub fn rows(&self) -> Vec<Row> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(a: i64, b: f64) -> Row {
        Row::new(vec![Value::Int(a), Value::Double(b)])
    }

    fn index() -> Arc<ColumnIndex> {
        ColumnIndex::new(vec![DataType::Int, DataType::Double])
    }

    #[test]
    fn insert_and_snapshot_visibility() {
        let idx = index();
        idx.apply_put(TrxId(1), 10, key(1), &row(1, 1.5)).unwrap();
        idx.apply_put(TrxId(2), 20, key(2), &row(2, 2.5)).unwrap();
        assert_eq!(idx.snapshot(5).len(), 0);
        assert_eq!(idx.snapshot(10).len(), 1);
        assert_eq!(idx.snapshot(25).len(), 2);
        assert_eq!(idx.snapshot(25).row(0), row(1, 1.5));
        assert_eq!(idx.version(), 20);
    }

    #[test]
    fn update_tombstones_old_image() {
        let idx = index();
        idx.apply_put(TrxId(1), 10, key(1), &row(1, 1.0)).unwrap();
        idx.apply_put(TrxId(2), 20, key(1), &row(1, 9.0)).unwrap();
        // Old snapshot sees the old image; new sees the new.
        let old = idx.snapshot(15);
        assert_eq!(old.len(), 1);
        assert_eq!(old.row(0), row(1, 1.0));
        let new = idx.snapshot(25);
        assert_eq!(new.len(), 1);
        assert_eq!(new.row(0), row(1, 9.0));
        assert_eq!(idx.physical_rows(), 2, "append-only: both images present");
    }

    #[test]
    fn delete_hides_row() {
        let idx = index();
        idx.apply_put(TrxId(1), 10, key(1), &row(1, 1.0)).unwrap();
        idx.writer().delete(20, &key(1));
        assert_eq!(idx.snapshot(15).len(), 1);
        assert_eq!(idx.snapshot(20).len(), 0);
    }

    #[test]
    fn compact_reclaims_tombstones() {
        let idx = index();
        for v in 1..=5u64 {
            idx.apply_put(TrxId(v), v * 10, key(1), &row(1, v as f64)).unwrap();
        }
        assert_eq!(idx.physical_rows(), 5);
        idx.compact(50);
        assert_eq!(idx.physical_rows(), 1);
        // The surviving image is still correct.
        let s = idx.snapshot(100);
        assert_eq!(s.row(0), row(1, 5.0));
        // And updates keep working after the remap.
        idx.apply_put(TrxId(9), 100, key(1), &row(1, 99.0)).unwrap();
        assert_eq!(idx.snapshot(100).row(0), row(1, 99.0));
    }

    #[test]
    fn short_rows_pad_with_null() {
        let idx = index();
        idx.apply_put(TrxId(1), 10, key(1), &Row::new(vec![Value::Int(7)])).unwrap();
        let s = idx.snapshot(10);
        assert_eq!(s.row(0).get(1).unwrap(), &Value::Null);
    }

    #[test]
    fn snapshot_isolated_from_later_changes() {
        let idx = index();
        idx.apply_put(TrxId(1), 10, key(1), &row(1, 1.0)).unwrap();
        let snap = idx.snapshot(10);
        idx.apply_put(TrxId(2), 20, key(2), &row(2, 2.0)).unwrap();
        assert_eq!(snap.len(), 1, "snapshot unaffected by concurrent apply");
        assert_eq!(snap.columns[0].len(), 1, "its columns did not grow under it");
    }

    #[test]
    fn snapshots_share_the_columns_and_a_write_copies_only_while_one_is_alive() {
        let idx = index();
        idx.apply_put(TrxId(1), 10, key(1), &row(1, 1.0)).unwrap();
        let (a, b) = (idx.snapshot(10), idx.snapshot(10));
        assert!(a.columns.iter().zip(&b.columns).all(|(x, y)| Arc::ptr_eq(x, y)));
        // `a` and `b` are alive: the write leaves them their column.
        idx.apply_put(TrxId(2), 20, key(2), &row(2, 2.0)).unwrap();
        let c = idx.snapshot(20);
        assert!(!Arc::ptr_eq(&a.columns[0], &c.columns[0]));
        assert_eq!((a.rows(), c.len()), (vec![row(1, 1.0)], 2));
        assert_eq!(idx.copies(), 2, "each of the two columns once");
        // With no snapshot alive the next write appends in place.
        drop((a, b));
        let before = Arc::as_ptr(&c.columns[0]);
        drop(c);
        idx.apply_put(TrxId(3), 30, key(3), &row(3, 3.0)).unwrap();
        assert_eq!(Arc::as_ptr(&idx.snapshot(30).columns[0]), before);
        assert_eq!(idx.copies(), 2);
    }

    /// Random puts, deletes, compactions and reclaims: after each, at
    /// every `ts` from the floor to past the newest image, the snapshot's
    /// selection equals the per-row walk, on both of its paths.
    #[test]
    fn a_snapshot_selects_what_the_per_row_walk_does() {
        use polardbx_common::testseed::{format_seed, seed_from_env};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let base = seed_from_env(0x5e1ec7);
        let (mut every_row, mut walked) = (0, 0);
        for seed in base..base + 6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let idx = index();
            let mut ts = 1;
            for op in 0..100u64 {
                ts += rng.gen_range(0..3u64);
                match rng.gen_range(0..20) {
                    0..=10 => {
                        let k = rng.gen_range(0..40);
                        idx.apply_put(TrxId(op), ts, key(k), &row(k, op as f64)).unwrap();
                    }
                    11..=14 => idx.writer().delete(ts, &key(rng.gen_range(0..40))),
                    15..=17 => {
                        let (floor, version) = (idx.floor(), idx.version());
                        let horizon = match rng.gen_bool(0.5) {
                            true => version,
                            false => rng.gen_range(floor..=version.max(floor)),
                        };
                        idx.compact(horizon);
                    }
                    _ => {
                        idx.reclaim();
                    }
                }
                let st = idx.state.read();
                for at in st.floor..=st.newest + 2 {
                    let snap = st.snapshot(at);
                    assert_eq!(
                        snap.selection.to_vec(),
                        st.visible(at),
                        "seed {} op {op} at {at}",
                        format_seed(seed)
                    );
                    if st.dead == 0 && at >= st.newest {
                        every_row += 1;
                    } else {
                        walked += 1;
                    }
                }
            }
        }
        assert!(every_row > 0 && walked > 0, "both paths ran: {every_row} / {walked}");
    }

    fn str_index() -> Arc<ColumnIndex> {
        ColumnIndex::new(vec![DataType::Int, DataType::Str])
    }

    fn srow(a: i64, s: Option<&str>) -> Row {
        Row::new(vec![Value::Int(a), s.map(Value::str).unwrap_or(Value::Null)])
    }

    fn dict_len(snap: &ColumnSnapshot) -> usize {
        match snap.columns[1].as_ref() {
            ColumnData::Str(_, _, d) => {
                assert_eq!(d.iter().count(), d.len());
                d.len()
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_snapshot_never_sees_a_string_appended_after_it() {
        let idx = str_index();
        idx.apply_put(TrxId(1), 10, key(1), &srow(1, Some("MAIL"))).unwrap();
        idx.apply_put(TrxId(2), 20, key(2), &srow(2, None)).unwrap();
        let snap = idx.snapshot(20);
        let before = snap.rows();
        idx.apply_put(TrxId(3), 30, key(3), &srow(3, Some("SHIP"))).unwrap();
        idx.apply_put(TrxId(4), 40, key(1), &srow(1, Some("AIR"))).unwrap();
        assert_eq!(snap.rows(), before, "same rows after new distinct strings");
        assert_eq!(dict_len(&snap), 1, "its dictionary did not grow under it");
        let now = idx.snapshot(40);
        assert_eq!(now.rows(), vec![srow(2, None), srow(3, Some("SHIP")), srow(1, Some("AIR"))]);
        assert_eq!(dict_len(&now), 3, "MAIL, SHIP, AIR: each once");
    }

    #[test]
    fn compaction_recodes_and_drops_dead_entries() {
        let idx = str_index();
        idx.apply_put(TrxId(1), 10, key(1), &srow(1, Some("gone"))).unwrap();
        idx.apply_put(TrxId(2), 20, key(2), &srow(2, Some("kept"))).unwrap();
        idx.apply_put(TrxId(3), 30, key(1), &srow(1, Some("kept"))).unwrap();
        idx.apply_put(TrxId(4), 40, key(3), &srow(3, None)).unwrap();
        let old = idx.snapshot(15);
        assert_eq!(dict_len(&idx.snapshot(40)), 2);
        idx.compact(40);
        let s = idx.snapshot(40);
        assert_eq!(dict_len(&s), 1, "only the entry a surviving row uses");
        assert_eq!(s.rows(), vec![srow(2, Some("kept")), srow(1, Some("kept")), srow(3, None)]);
        assert_eq!(old.rows(), vec![srow(1, Some("gone"))], "taken before: still whole");
        // Appends after the re-code dedupe against the new dictionary.
        idx.apply_put(TrxId(5), 50, key(4), &srow(4, Some("kept"))).unwrap();
        assert_eq!(dict_len(&idx.snapshot(50)), 1);
    }

    #[test]
    fn compaction_raises_the_floor_and_outstanding_snapshots_keep_their_rows() {
        let idx = index();
        idx.apply_put(TrxId(1), 10, key(1), &row(1, 1.0)).unwrap();
        idx.apply_put(TrxId(2), 20, key(1), &row(1, 2.0)).unwrap();
        idx.apply_put(TrxId(3), 30, key(2), &row(2, 3.0)).unwrap();
        assert!(!idx.reclaim(), "one dead image of three is under the share");
        let old = idx.snapshot_at(15).expect("nothing compacted yet");
        idx.apply_put(TrxId(4), 40, key(2), &row(2, 4.0)).unwrap();
        idx.writer().delete(50, &key(1));
        assert_eq!((idx.live_rows(), idx.physical_rows()), (1, 4));
        assert!(idx.reclaim(), "three dead images of four");
        assert_eq!((idx.live_rows(), idx.physical_rows(), idx.floor()), (1, 1, 50));
        assert!(idx.snapshot_at(49).is_none(), "a hole where the dead images were");
        assert_eq!(idx.snapshot_at(50).unwrap().rows(), vec![row(2, 4.0)]);
        assert_eq!(old.rows(), vec![row(1, 1.0)], "taken before: still whole");
    }
}
