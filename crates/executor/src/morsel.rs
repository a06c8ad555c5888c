//! Morsel-driven scheduling on the persistent `WorkloadManager` pools: one
//! scan source, one primitive.
//!
//! A [`ScanSource`] is what a `Filter*/Project*`-over-`Scan` leaf reads:
//! the table's column-index snapshot when the provider attaches one, its
//! row partitions otherwise. Either way the table arrives as *morsels* of
//! at most [`MORSEL_ROWS`] rows on one shared queue, and
//! [`morsel_execute`] drains that queue with the calling thread plus
//! helpers borrowed from the pool, folding every batch into per-worker
//! state that the caller merges at the barrier. Row partitions the
//! provider's row estimate deems small are packed into one task of up to a
//! morsel, so a small table is scanned, built into lanes and filtered once
//! rather than once per partition ([`partition_tasks`]). A task that scans
//! larger than a morsel is split and the surplus chunks go back on the
//! queue, so a skewed partition is drained by everyone rather than
//! blocking one thread.
//!
//! The scheduling is **caller-helping**: the thread that owns the query
//! participates in draining the queue. That keeps the design deadlock-free
//! even when the query itself is already running *on* the pool it borrows
//! helpers from (a 1-thread AP pool executing a query that fans out to the
//! same pool would otherwise wait forever). A helper-start handshake on a
//! single atomic — helpers `fetch_add` to announce themselves, the caller
//! `fetch_or`s a CLOSED bit when the work is done — tells the caller
//! exactly how many helper partials to collect.
//!
//! A helper waiting in the pool's queue holds the work only weakly. On a
//! one-thread pool a helper submitted by a query running on that thread
//! starts after the query has returned; it then finds nothing to hold, so
//! the snapshot's columns and a join's build lanes are released at the
//! answer, not whenever the pool next gets to the helper.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};
use polardbx_columnar::ColumnData;
use polardbx_common::time::Timer;
use polardbx_common::{Error, Result};

use crate::batch::{Lane, RowBatch, BATCH_ROWS};
use crate::exec_metrics::exec_metrics;
use crate::operators::TableProvider;
use crate::scheduler::{JobClass, WorkloadManager};

/// Rows per morsel: large enough to amortize dispatch, small enough that a
/// skewed partition splits into many stealable units.
pub const MORSEL_ROWS: usize = 8192;

/// High bit of the helper handshake word: set by the caller when the work
/// is complete; helpers that announce themselves after this was set exit
/// without sending a partial.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// The process-wide execution pool shared by every `MppExecutor` that is
/// not explicitly wired to a cluster's `WorkloadManager`: all cores, full
/// quota, so standalone/bench usage behaves like the seed's per-query
/// threads minus the per-query spawn cost.
pub fn shared_pool() -> Arc<WorkloadManager> {
    static POOL: OnceLock<Arc<WorkloadManager>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
        WorkloadManager::new(cores, 1.0, 0.1)
    }))
}

/// One unit of morsel work.
enum Task {
    /// Row partitions still to be scanned, into one set of lanes.
    Partitions(Range<usize>),
    /// Batches of an already-scanned partition, split off by whoever
    /// scanned it.
    Split(Vec<RowBatch>),
    /// A range of a column-index snapshot's visible rows.
    Batch(RowBatch),
}

/// The one source a scan leaf draws its batches from.
pub(crate) struct ScanSource {
    provider: Arc<dyn TableProvider>,
    table: String,
    /// The columns read above the scan: a row partition builds lanes for
    /// these only.
    read: Vec<bool>,
    tasks: VecDeque<Task>,
}

impl ScanSource {
    /// Open `table` for `workers` workers: the column-index snapshot when
    /// the provider attaches one (§VI-E) — the index's typed columns the
    /// plan reads, shared not copied, become the lanes every morsel shares,
    /// each morsel a range of the snapshot's visible row ids, and no row
    /// is materialized — otherwise the row partitions, packed into tasks
    /// ([`partition_tasks`]), whose lanes are built for the columns `read`.
    pub(crate) fn open(
        provider: &Arc<dyn TableProvider>,
        table: &str,
        read: Vec<bool>,
        workers: usize,
    ) -> ScanSource {
        let t0 = Timer::start();
        let tasks = match provider.columnar(table) {
            Some(snap) => {
                let is_read = |c: usize| read.get(c).copied().unwrap_or(true);
                let bytes: usize = snap
                    .columns
                    .iter()
                    .enumerate()
                    .filter(|&(c, _)| is_read(c))
                    .map(|(_, col)| col.heap_size())
                    .sum();
                let lanes = read_lanes(&snap.columns, is_read);
                exec_metrics().scan.record(snap.selection.len() as u64, bytes as u64, t0);
                let t0 = Timer::start();
                let (ids, n) = (snap.selection.ids(), snap.selection.len());
                let tasks = (0..n)
                    .step_by(MORSEL_ROWS)
                    .map(|r0| {
                        let morsel = r0..n.min(r0 + MORSEL_ROWS);
                        Task::Batch(RowBatch::over(lanes.clone(), ids, morsel))
                    })
                    .collect();
                exec_metrics().setup.record(0, 0, t0);
                tasks
            }
            None => {
                let partitions = provider.partitions(table);
                partition_tasks(partitions, provider.rows_estimate(table), workers)
            }
        };
        ScanSource { provider: Arc::clone(provider), table: table.to_string(), read, tasks }
    }
}

/// The lanes of a snapshot's `columns`, one for each column `is_read`. A
/// column nothing above the scan reads is never looked at for its values
/// (`mpp::Reads`); but a row built for the scalar fallback takes a value
/// of every lane, so its lane is a stand-in with the snapshot's rows: the
/// first lane made.
fn read_lanes(columns: &[Arc<ColumnData>], is_read: impl Fn(usize) -> bool) -> Vec<Arc<Lane>> {
    let lane = |c: usize| Arc::new(Lane::from_column(Arc::clone(&columns[c])));
    let lanes: Vec<Option<Arc<Lane>>> =
        (0..columns.len()).map(|c| is_read(c).then(|| lane(c))).collect();
    let mut stand_in = None;
    lanes
        .iter()
        .map(|l| match l {
            Some(l) => Arc::clone(l),
            None => Arc::clone(stand_in.get_or_insert_with(|| {
                lanes.iter().flatten().next().cloned().unwrap_or_else(|| lane(0))
            })),
        })
        .collect()
}

/// The tasks that scan `partitions` row partitions of a table of about
/// `rows` rows for `workers` workers: consecutive partitions packed while
/// their share of `rows` fits a morsel — or, for a table larger than a
/// morsel, its share of `workers`, so that every worker gets a task. A
/// task that scans larger than a morsel still splits its surplus back onto
/// the queue. Without an estimate, every partition is a task.
fn partition_tasks(partitions: usize, rows: Option<usize>, workers: usize) -> VecDeque<Task> {
    let per_task = match rows {
        None => 1,
        Some(rows) => {
            let budget = if rows <= MORSEL_ROWS {
                MORSEL_ROWS
            } else {
                MORSEL_ROWS.min(rows.div_ceil(workers.max(1)))
            };
            let per_partition = rows.div_ceil(partitions.max(1)).max(1);
            (budget / per_partition).max(1)
        }
    };
    (0..partitions)
        .step_by(per_task)
        .map(|p| Task::Partitions(p..partitions.min(p + per_task)))
        .collect()
}

/// A query fragment that morsel workers execute: fold batches into
/// per-worker state `W` (which embeds the forked `ExecCtx` the impl ticks),
/// merged by the caller at the barrier.
pub(crate) trait MorselWork<W>: Send + Sync {
    /// Fresh thread-local state for one worker.
    fn new_local(&self) -> W;
    /// Fold one batch into the worker's local state.
    fn process(&self, batch: RowBatch, local: &mut W) -> Result<()>;
}

struct Queue {
    tasks: VecDeque<Task>,
    /// Tasks not yet fully processed. A partitions task counts as one
    /// until its scan splits it into chunks (then each extra chunk adds
    /// one).
    pending: usize,
    /// The first worker error; once set, every worker stops.
    error: Option<Error>,
}

struct MorselState {
    provider: Arc<dyn TableProvider>,
    table: String,
    read: Vec<bool>,
    /// `pending` and `error` live under the queue's lock, so a worker that
    /// found the queue empty cannot miss the wake-up of the last task
    /// finishing or of a failure.
    queue: Mutex<Queue>,
    cv: Condvar,
}

impl MorselState {
    /// Run one task: produce its batches, share what exceeds a morsel,
    /// fold the rest.
    fn run<W, T: MorselWork<W> + ?Sized>(&self, task: Task, work: &T, local: &mut W) -> Result<()> {
        let mut batches = match task {
            Task::Batch(batch) => {
                exec_metrics().morsels.inc();
                return work.process(batch, local);
            }
            Task::Partitions(parts) => {
                // The scan's time is the storage visit and the copy of each
                // value read out of it; finishing the lanes is setup.
                let t0 = Timer::start();
                let lanes = self.provider.scan_lanes(&self.table, parts, &self.read)?;
                let rows = lanes.rows() as u64;
                exec_metrics().scan.record(rows, 0, t0);
                let t0 = Timer::start();
                let batches = lanes.finish();
                exec_metrics().setup.record(rows, 0, t0);
                batches
            }
            Task::Split(batches) => {
                exec_metrics().steals.inc();
                batches
            }
        };
        // A partition's batches hold `BATCH_ROWS` rows but its last.
        let per_morsel = MORSEL_ROWS / BATCH_ROWS;
        if batches.len() > per_morsel {
            let mut extra = Vec::new();
            while batches.len() > per_morsel {
                let at = per_morsel * ((batches.len() - 1) / per_morsel);
                extra.push(Task::Split(batches.split_off(at)));
            }
            let mut q = self.queue.lock();
            q.pending += extra.len();
            q.tasks.extend(extra);
            drop(q);
            self.cv.notify_all();
        }
        exec_metrics().morsels.inc();
        batches.into_iter().try_for_each(|batch| work.process(batch, local))
    }
}

fn morsel_worker<W, T: MorselWork<W> + ?Sized>(work: &T, state: &MorselState) -> W {
    let mut local = work.new_local();
    loop {
        let task = {
            let mut q = state.queue.lock();
            loop {
                if q.error.is_some() {
                    return local;
                }
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.pending == 0 {
                    return local;
                }
                // Queue empty but a scan elsewhere may still push chunks.
                state.cv.wait(&mut q);
            }
        };
        let result = state.run(task, work, &mut local);
        let mut q = state.queue.lock();
        q.pending -= 1;
        if let Err(e) = result {
            // The first error wins and aborts the rest.
            q.error.get_or_insert(e);
            q.tasks.clear();
        }
        let finished = q.error.is_some() || q.pending == 0;
        drop(q);
        if finished {
            state.cv.notify_all();
        }
    }
}

/// Drain `source` through `work` with up to `workers` threads (the caller
/// plus pool helpers), returning every worker's local state for the caller
/// to merge at the barrier. A source with one morsel, or one worker, runs
/// on the calling thread: no pool submit, no channel.
pub(crate) fn morsel_execute<W, T>(
    mgr: &Arc<WorkloadManager>,
    class: JobClass,
    workers: usize,
    source: ScanSource,
    work: Arc<T>,
) -> Result<Vec<W>>
where
    W: Send + 'static,
    T: MorselWork<W> + 'static,
{
    let tasks = source.tasks.len();
    let helpers = workers.saturating_sub(1).min(tasks.saturating_sub(1));
    let state = Arc::new(MorselState {
        provider: source.provider,
        table: source.table,
        read: source.read,
        queue: Mutex::new(Queue { tasks: source.tasks, pending: tasks, error: None }),
        cv: Condvar::new(),
    });
    let mut locals = Vec::with_capacity(helpers + 1);
    if helpers == 0 {
        locals.push(morsel_worker(work.as_ref(), &state));
    } else {
        // Helper handshake word (count | CLOSED bit).
        let announced = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = crossbeam::channel::unbounded::<W>();
        for _ in 0..helpers {
            let (state, work) = (Arc::downgrade(&state), Arc::downgrade(&work));
            let (announced, tx) = (Arc::clone(&announced), tx.clone());
            mgr.submit(class, move || {
                // Announce; if the caller already closed the work, stay out.
                if announced.fetch_add(1, Ordering::AcqRel) & CLOSED != 0 {
                    return;
                }
                // Announced before the close: the caller holds both until
                // this helper's partial arrives.
                let (Some(state), Some(work)) = (state.upgrade(), work.upgrade()) else {
                    unreachable!("the caller waits for every announced helper")
                };
                let local = morsel_worker(work.as_ref(), &state);
                // Let go before reporting: once the caller has every
                // partial, it holds the last references.
                drop((state, work));
                let _ = tx.send(local);
            });
        }
        drop(tx);
        locals.push(morsel_worker(work.as_ref(), &state));
        // Close the handshake: the returned count is exactly how many
        // helpers announced before the bit was set — each sends one partial.
        let started = announced.fetch_or(CLOSED, Ordering::AcqRel) & !CLOSED;
        for _ in 0..started {
            locals.push(rx.recv().expect("morsel helper died"));
        }
    }
    let error = state.queue.lock().error.take();
    error.map_or(Ok(locals), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::MemTables;
    use polardbx_columnar::{ColumnData, ColumnSnapshot};
    use polardbx_common::{Row, Value};

    fn pool() -> Arc<WorkloadManager> {
        WorkloadManager::new(2, 1.0, 1.0)
    }

    /// Sums column 0 and remembers which threads folded a batch.
    struct SumWork;

    #[derive(Default)]
    struct Sum {
        total: i64,
        batches: usize,
        threads: Vec<std::thread::ThreadId>,
    }

    impl MorselWork<Sum> for SumWork {
        fn new_local(&self) -> Sum {
            Sum::default()
        }
        fn process(&self, batch: RowBatch, local: &mut Sum) -> Result<()> {
            assert!(batch.num_rows() <= MORSEL_ROWS);
            for i in batch.live_rows() {
                if let Value::Int(v) = batch.lane(0).get(i as usize) {
                    local.total += v;
                }
            }
            local.batches += 1;
            local.threads.push(std::thread::current().id());
            Ok(())
        }
    }

    fn int_rows(range: std::ops::Range<i64>) -> Vec<Row> {
        range.map(|i| Row::new(vec![Value::Int(i)])).collect()
    }

    fn partitions(parts: Vec<Vec<Row>>) -> ScanSource {
        let mut mem = MemTables::new();
        mem.add("t", parts);
        let provider: Arc<dyn TableProvider> = Arc::new(mem);
        ScanSource::open(&provider, "t", vec![true], 4)
    }

    #[test]
    fn skewed_partition_is_split_and_shared() {
        let mgr = pool();
        // One huge partition and two tiny ones: the big one must split
        // into stealable chunks.
        let total: i64 = (0..100_000).sum::<i64>() + 7 + 9;
        let source = partitions(vec![int_rows(0..100_000), int_rows(7..8), int_rows(9..10)]);
        let steals = exec_metrics().steals.get();
        let locals = morsel_execute(&mgr, JobClass::Ap, 4, source, Arc::new(SumWork)).unwrap();
        assert_eq!(locals.iter().map(|l| l.total).sum::<i64>(), total);
        let chunks = 100_000 / MORSEL_ROWS as u64;
        assert!(exec_metrics().steals.get() >= steals + chunks, "surplus chunks went on the queue");
    }

    #[test]
    fn small_partitions_pack_into_a_morsel_and_a_large_table_feeds_every_worker() {
        // Each task's partitions, as (first, end).
        let tasks = |partitions, rows, workers| -> Vec<(usize, usize)> {
            partition_tasks(partitions, rows, workers)
                .into_iter()
                .map(|t| match t {
                    Task::Partitions(r) => (r.start, r.end),
                    _ => unreachable!("partition tasks only"),
                })
                .collect()
        };
        // TPC-H Q3's `customer`: 150 rows in 8 partitions, one task.
        assert_eq!(tasks(8, Some(150), 4), [(0, 8)]);
        assert_eq!(tasks(3, Some(0), 4), [(0, 3)]);
        // Past a morsel: a task per worker, then at most a morsel a task.
        assert_eq!(tasks(8, Some(10_000), 4), [(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(tasks(8, Some(10_000), 1), [(0, 6), (6, 8)]);
        assert_eq!(tasks(8, Some(800_000), 4).len(), 8);
        // No estimate: a task per partition, as before packing.
        assert_eq!(tasks(3, None, 4), [(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn a_packed_task_scans_its_partitions_into_one_batch() {
        let parts: Vec<Vec<Row>> = (0..6).map(|p| int_rows(p * 10..p * 10 + 3)).collect();
        let source = partitions(parts);
        assert_eq!(source.tasks.len(), 1, "18 rows pack into one task");
        let locals = morsel_execute(&pool(), JobClass::Ap, 4, source, Arc::new(SumWork)).unwrap();
        assert_eq!(locals.len(), 1, "one task runs on the calling thread");
        assert_eq!(locals[0].total, (0..6).map(|p| 3 * (p * 10) + 3).sum::<i64>());
        assert_eq!(locals[0].batches, 1);
    }

    #[test]
    fn scan_errors_propagate() {
        struct Failing;
        impl TableProvider for Failing {
            fn partitions(&self, _t: &str) -> usize {
                2
            }
            fn scan_partition(&self, _t: &str, _p: usize) -> Result<Vec<Row>> {
                Err(Error::execution("scan failed"))
            }
        }
        let provider: Arc<dyn TableProvider> = Arc::new(Failing);
        let source = ScanSource::open(&provider, "t", vec![true], 4);
        assert!(morsel_execute(&pool(), JobClass::Ap, 4, source, Arc::new(SumWork)).is_err());
    }

    #[test]
    fn fanning_out_on_its_own_pool_does_not_deadlock() {
        // The slow pool has one thread: the query occupies it and fans out
        // to it, so the caller must drain the queue alone.
        let mgr = pool();
        let mgr2 = Arc::clone(&mgr);
        let source = partitions(vec![int_rows(0..50_000), int_rows(0..10)]);
        let locals = mgr
            .run(JobClass::SlowAp, move || {
                morsel_execute(&mgr2, JobClass::SlowAp, 4, source, Arc::new(SumWork))
            })
            .unwrap();
        let total: i64 = (0..50_000).sum::<i64>() + (0..10).sum::<i64>();
        assert_eq!(locals.iter().map(|l| l.total).sum::<i64>(), total);
    }

    /// Serves `rows` ids behind a column-index snapshot whose odd ids are
    /// tombstoned; scanning its row partitions is an error.
    struct Indexed(i64);

    impl TableProvider for Indexed {
        fn partitions(&self, _t: &str) -> usize {
            4
        }
        fn scan_partition(&self, _t: &str, _p: usize) -> Result<Vec<Row>> {
            Err(Error::execution("the snapshot is the source"))
        }
        fn columnar(&self, _t: &str) -> Option<ColumnSnapshot> {
            let n = self.0 as usize;
            Some(ColumnSnapshot {
                columns: vec![Arc::new(ColumnData::Int((0..self.0).collect(), vec![false; n]))],
                selection: (0..n as u32).step_by(2).collect::<Vec<_>>().into(),
                ts: 1,
            })
        }
    }

    #[test]
    fn snapshot_is_cut_into_selection_ranges() {
        let provider: Arc<dyn TableProvider> = Arc::new(Indexed(40_000));
        let source = ScanSource::open(&provider, "t", vec![true], 4);
        let locals = morsel_execute(&pool(), JobClass::Ap, 4, source, Arc::new(SumWork)).unwrap();
        let visible: i64 = (0..40_000).step_by(2).sum();
        assert_eq!(locals.iter().map(|l| l.total).sum::<i64>(), visible);
        assert_eq!(locals.iter().map(|l| l.batches).sum::<usize>(), 20_000usize.div_ceil(MORSEL_ROWS));
    }

    #[test]
    fn one_morsel_or_one_worker_stays_on_the_calling_thread() {
        let me = std::thread::current().id();
        let provider: Arc<dyn TableProvider> = Arc::new(Indexed(1_000));
        let one_morsel = ScanSource::open(&provider, "t", vec![true], 4);
        let one_worker = partitions(vec![int_rows(0..20_000), int_rows(0..10), int_rows(0..10)]);
        for (workers, source) in [(4, one_morsel), (1, one_worker)] {
            let locals =
                morsel_execute(&pool(), JobClass::Ap, workers, source, Arc::new(SumWork)).unwrap();
            assert_eq!(locals.len(), 1);
            assert!(locals[0].threads.iter().all(|&t| t == me));
        }
    }
}
