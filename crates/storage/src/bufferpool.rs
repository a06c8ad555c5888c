//! Buffer pool with dirty-page tracking and per-tenant attribution.
//!
//! The data path of this reproduction is the in-memory MVCC store; the
//! buffer pool models the *cost structure* the paper's mechanisms depend
//! on:
//!
//! * checkpointing — "the leader can safely flush dirty pages modified
//!   before DLSN" (§III);
//! * a cutover — "the source RW will flush all dirty pages associated with
//!   the tenant" (§V): the source flushes the pages of the tables it hands
//!   over, which is why a migration takes seconds rather than the minutes a
//!   data copy takes;
//! * RO-node page warmth — a fresh replica faults pages until warm.
//!
//! Pages are synthetic: a row maps to page `hash(key) % pages_per_table`
//! within its table, grouping neighbouring rows the way a B+Tree leaf does.

use parking_lot::Mutex;
use std::collections::HashMap;

use polardbx_common::{Key, Lsn, Result, TableId, TenantId};
use polardbx_polarfs::PageStore;

/// A synthetic page identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Owning table.
    pub table: TableId,
    /// Page number within the table.
    pub page_no: u64,
}

#[derive(Debug, Clone)]
struct Frame {
    tenant: TenantId,
    dirty: bool,
    /// LSN of the oldest un-flushed change on this page.
    first_dirty_lsn: Lsn,
    /// LRU clock.
    last_used: u64,
}

/// Pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page accesses served from the pool.
    pub hits: u64,
    /// Page accesses that faulted the page in.
    pub misses: u64,
    /// Clean pages evicted to make room.
    pub evictions: u64,
    /// Dirty pages flushed to the page store.
    pub flushes: u64,
}

struct PoolState {
    frames: HashMap<PageId, Frame>,
    clock: u64,
    stats: BufferPoolStats,
}

/// The buffer pool. Thread-safe; all operations take the pool lock briefly.
pub struct BufferPool {
    state: Mutex<PoolState>,
    capacity: usize,
    pages_per_table: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages, with rows hashed into
    /// `pages_per_table` pages per table.
    pub fn new(capacity: usize, pages_per_table: u64) -> BufferPool {
        assert!(capacity > 0 && pages_per_table > 0);
        BufferPool {
            state: Mutex::new(PoolState {
                frames: HashMap::new(),
                clock: 0,
                stats: BufferPoolStats::default(),
            }),
            capacity,
            pages_per_table,
        }
    }

    /// The page a row's key lives on.
    pub fn page_of(&self, table: TableId, key: &Key) -> PageId {
        PageId { table, page_no: key.hash64() % self.pages_per_table }
    }

    fn touch_inner(&self, st: &mut PoolState, page: PageId, tenant: TenantId) -> bool {
        st.clock += 1;
        let clock = st.clock;
        if let Some(f) = st.frames.get_mut(&page) {
            f.last_used = clock;
            st.stats.hits += 1;
            return true;
        }
        st.stats.misses += 1;
        // Evict the least-recently-used *clean* page if at capacity. Dirty
        // pages are pinned until flushed (simplification of InnoDB's flush
        // list; a full pool of dirty pages grows past capacity rather than
        // stalling, and checkpoints shrink it back).
        if st.frames.len() >= self.capacity {
            if let Some((&victim, _)) = st
                .frames
                .iter()
                .filter(|(_, f)| !f.dirty)
                .min_by_key(|(_, f)| f.last_used)
            {
                st.frames.remove(&victim);
                st.stats.evictions += 1;
            }
        }
        st.frames.insert(
            page,
            Frame { tenant, dirty: false, first_dirty_lsn: Lsn::MAX, last_used: clock },
        );
        false
    }

    /// Record a read access. Returns true on a pool hit.
    pub fn touch_read(&self, page: PageId, tenant: TenantId) -> bool {
        let mut st = self.state.lock();
        self.touch_inner(&mut st, page, tenant)
    }

    /// Record a write at `lsn`: the page becomes dirty.
    pub fn mark_dirty(&self, page: PageId, tenant: TenantId, lsn: Lsn) {
        let mut st = self.state.lock();
        self.touch_inner(&mut st, page, tenant);
        let f = st.frames.get_mut(&page).expect("frame just touched");
        if !f.dirty {
            f.dirty = true;
            f.first_dirty_lsn = lsn;
        }
        f.tenant = tenant;
    }

    /// Flush every dirty page first-dirtied before `upto` (checkpoint).
    /// Returns the number of pages flushed.
    pub fn flush_before(&self, upto: Lsn, store: Option<&PageStore>) -> Result<usize> {
        self.flush_where(store, |_, f| f.first_dirty_lsn < upto)
    }

    /// Flush every dirty page of `tables` (the cutover that hands them to
    /// another node). Returns the number flushed.
    pub fn flush_tables(&self, tables: &[TableId], store: Option<&PageStore>) -> Result<usize> {
        self.flush_where(store, |page, _| tables.contains(&page.table))
    }

    /// Flush everything dirty.
    pub fn flush_all(&self, store: Option<&PageStore>) -> Result<usize> {
        self.flush_where(store, |_, _| true)
    }

    fn flush_where(
        &self,
        store: Option<&PageStore>,
        pred: impl Fn(&PageId, &Frame) -> bool,
    ) -> Result<usize> {
        let victims: Vec<PageId> = {
            let st = self.state.lock();
            st.frames
                .iter()
                .filter(|(p, f)| f.dirty && pred(p, f))
                .map(|(&p, _)| p)
                .collect()
        };
        for &page in &victims {
            if let Some(store) = store {
                // Synthetic page image: the durable bytes stand in for the
                // real page contents (the MVCC store is the data authority).
                let image = page_image(page);
                store.write_page(page.table.raw() * 10_000 + page.page_no, image)?;
            }
            let mut st = self.state.lock();
            if let Some(f) = st.frames.get_mut(&page) {
                f.dirty = false;
                f.first_dirty_lsn = Lsn::MAX;
                st.stats.flushes += 1;
            }
        }
        Ok(victims.len())
    }

    /// Evict pages dirtied at or after `from` without flushing — the
    /// deposed-leader cleanup of §III (their contents conflict with the new
    /// leader; reload from PolarFS on next touch).
    pub fn evict_dirty_after(&self, from: Lsn) -> usize {
        let mut st = self.state.lock();
        let before = st.frames.len();
        st.frames.retain(|_, f| !(f.dirty && f.first_dirty_lsn >= from));
        before - st.frames.len()
    }

    /// Number of dirty pages for `tenant`.
    pub fn dirty_count(&self, tenant: Option<TenantId>) -> usize {
        let st = self.state.lock();
        st.frames
            .values()
            .filter(|f| f.dirty && tenant.is_none_or(|t| f.tenant == t))
            .count()
    }

    /// Pool counters.
    pub fn stats(&self) -> BufferPoolStats {
        self.state.lock().stats
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.state.lock().frames.len()
    }

    /// Oldest first-dirty LSN across the pool (checkpoint horizon).
    pub fn oldest_dirty_lsn(&self) -> Lsn {
        self.state
            .lock()
            .frames
            .values()
            .filter(|f| f.dirty)
            .map(|f| f.first_dirty_lsn)
            .min()
            .unwrap_or(Lsn::MAX)
    }
}

fn page_image(page: PageId) -> bytes::Bytes {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&page.table.raw().to_le_bytes());
    v.extend_from_slice(&page.page_no.to_le_bytes());
    bytes::Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::Value;

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    #[test]
    fn hit_miss_accounting() {
        let pool = BufferPool::new(100, 10);
        let p = pool.page_of(TableId(1), &key(1));
        assert!(!pool.touch_read(p, TenantId(1)), "first touch is a miss");
        assert!(pool.touch_read(p, TenantId(1)), "second touch hits");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn dirty_tracking_and_checkpoint() {
        let pool = BufferPool::new(100, 100);
        let p1 = PageId { table: TableId(1), page_no: 1 };
        let p2 = PageId { table: TableId(1), page_no: 2 };
        pool.mark_dirty(p1, TenantId(1), Lsn(10));
        pool.mark_dirty(p2, TenantId(1), Lsn(100));
        assert_eq!(pool.dirty_count(None), 2);
        assert_eq!(pool.oldest_dirty_lsn(), Lsn(10));
        // Checkpoint up to 50 flushes only p1.
        let n = pool.flush_before(Lsn(50), None).unwrap();
        assert_eq!(n, 1);
        assert_eq!(pool.dirty_count(None), 1);
        assert_eq!(pool.oldest_dirty_lsn(), Lsn(100));
    }

    #[test]
    fn first_dirty_lsn_sticks() {
        let pool = BufferPool::new(10, 10);
        let p = PageId { table: TableId(1), page_no: 0 };
        pool.mark_dirty(p, TenantId(1), Lsn(5));
        pool.mark_dirty(p, TenantId(1), Lsn(50));
        assert_eq!(pool.oldest_dirty_lsn(), Lsn(5), "re-dirtying keeps the first LSN");
    }

    #[test]
    fn table_flush_leaves_other_tables_dirty() {
        let pool = BufferPool::new(100, 100);
        for i in 0..5 {
            pool.mark_dirty(PageId { table: TableId(1), page_no: i }, TenantId(1), Lsn(i));
        }
        for i in 0..3 {
            pool.mark_dirty(PageId { table: TableId(2), page_no: i }, TenantId(1), Lsn(i));
        }
        assert_eq!(pool.flush_tables(&[TableId(1)], None).unwrap(), 5);
        assert_eq!(pool.dirty_count(None), 3);
        assert_eq!(pool.resident(), 8, "a flush keeps the pages cached");
    }

    #[test]
    fn lru_evicts_clean_only() {
        let pool = BufferPool::new(2, 100);
        let pa = PageId { table: TableId(1), page_no: 0 };
        let pb = PageId { table: TableId(1), page_no: 1 };
        let pc = PageId { table: TableId(1), page_no: 2 };
        pool.mark_dirty(pa, TenantId(1), Lsn(1)); // dirty: pinned
        pool.touch_read(pb, TenantId(1));
        pool.touch_read(pc, TenantId(1)); // must evict pb, not dirty pa
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.dirty_count(None), 1, "dirty page survived eviction");
    }

    #[test]
    fn deposed_leader_eviction() {
        let pool = BufferPool::new(100, 100);
        pool.mark_dirty(PageId { table: TableId(1), page_no: 0 }, TenantId(1), Lsn(10));
        pool.mark_dirty(PageId { table: TableId(1), page_no: 1 }, TenantId(1), Lsn(90));
        // DLSN = 50: pages dirtied after it conflict with the new leader.
        let evicted = pool.evict_dirty_after(Lsn(50));
        assert_eq!(evicted, 1);
        assert_eq!(pool.dirty_count(None), 1);
    }

    #[test]
    fn flush_writes_to_page_store() {
        use polardbx_polarfs::{PolarFs, PolarFsConfig};
        let fs = PolarFs::new(PolarFsConfig { chunk_size: 1 << 16, ..Default::default() });
        let vol = fs.create_volume(polardbx_common::DcId(1)).unwrap();
        let store = PageStore::new(vol, 4096, 0);
        let pool = BufferPool::new(10, 10);
        let p = PageId { table: TableId(1), page_no: 3 };
        pool.mark_dirty(p, TenantId(1), Lsn(1));
        assert_eq!(pool.flush_all(Some(&store)).unwrap(), 1);
        assert_eq!(pool.stats().flushes, 1);
        let img = store.read_page(TableId(1).raw() * 10_000 + 3).unwrap();
        assert_eq!(&img[0..8], &1u64.to_le_bytes());
    }

    #[test]
    fn page_of_is_stable_and_bounded() {
        let pool = BufferPool::new(10, 7);
        for i in 0..100 {
            let p = pool.page_of(TableId(3), &key(i));
            assert_eq!(p, pool.page_of(TableId(3), &key(i)));
            assert!(p.page_no < 7);
        }
    }
}
