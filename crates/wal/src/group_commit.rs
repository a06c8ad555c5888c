//! Group commit: coalesce concurrent durability requests into one flush.
//!
//! The seed engine paid one synchronous [`LogBuffer::flush`] per
//! transaction — N concurrent committers cost N sink writes, serialized
//! under the log mutex. InnoDB (and hence the paper's DN, §III-B) instead
//! runs *group commit*: the first committer to reach the flush point
//! becomes the **flush leader** and writes everything pending — including
//! the redo of committers that arrived while it held the flush — while the
//! **followers** park until the durable LSN covers their batch's end.
//!
//! Protocol (leader/follower over one condvar):
//!
//! 1. A committer appends its MTR batch (one contiguous run) and notes the
//!    batch end LSN `e`.
//! 2. If `durable >= e`, someone else's flush already covered it — done.
//! 3. If no flush is in flight, the committer becomes leader: it releases
//!    the group lock, performs one [`LogBuffer::flush`] (which drains
//!    *every* pending byte, not just its own), publishes the new durable
//!    LSN, and wakes all followers.
//! 4. Otherwise it parks on the condvar; the current leader's flush either
//!    covers `e` (appended before the flush drained the buffer) or the
//!    committer retries from step 2 — becoming the next leader at most
//!    once.
//!
//! Invariants: `durable` never exceeds [`LogBuffer::flushed`] (it is only
//! ever set from a flush's return value, and the sink write happens under
//! the buffer's state lock — the PR 2 hole-free guarantee), and every
//! committer returns only once its own end LSN is durable or the sink
//! reported an error for a flush era that included it.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use polardbx_common::time::Timer;

use polardbx_common::metrics::{Counter, HdrHistogram, ValueHistogram};
use polardbx_common::{Error, Lsn, Result};

use crate::buffer::LogBuffer;
use crate::mtr::Mtr;

/// Group-commit observability: how well concurrent committers coalesce.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Durability requests served (one per commit/abort/prepare batch).
    pub commits: Counter,
    /// Sink flushes actually performed (leaders only).
    pub flushes: Counter,
    /// Committers sharing each flush (1 = no grouping happened).
    pub group_size: ValueHistogram,
    /// Time followers spent parked waiting for a leader's flush.
    pub wait_for_leader: HdrHistogram,
}

impl WalMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Arc<WalMetrics> {
        Arc::new(WalMetrics::default())
    }

    /// Flushes per durability request — the headline group-commit ratio
    /// (1.0 means no grouping; 1/N means N committers per sink write).
    pub fn flushes_per_commit(&self) -> f64 {
        let c = self.commits.get();
        if c == 0 {
            return 0.0;
        }
        self.flushes.get() as f64 / c as f64
    }

    /// One-line summary for harness output.
    pub fn report(&self) -> String {
        format!(
            "commits={} · flushes={} ({:.3} flushes/commit) · group size: mean={:.1} p95={} max={} · follower wait: mean={:?} p95={:?}",
            self.commits.get(),
            self.flushes.get(),
            self.flushes_per_commit(),
            self.group_size.mean(),
            self.group_size.percentile(0.95),
            self.group_size.max(),
            self.wait_for_leader.mean(),
            self.wait_for_leader.percentile(0.95),
        )
    }

    /// Reset all counters and histograms (between bench rounds).
    pub fn reset(&self) {
        self.commits.reset();
        self.flushes.reset();
        self.group_size.reset();
        self.wait_for_leader.reset();
    }
}

struct GcState {
    /// A leader's flush is in flight.
    flushing: bool,
    /// Durable LSN as published by the last completed flush.
    durable: Lsn,
    /// End LSNs of batches appended but not yet known durable (leader
    /// counts how many a flush released → group-size histogram).
    waiting: Vec<Lsn>,
    /// Bumped when a flush fails; waiters that enrolled under an older
    /// era give up instead of spinning on a broken sink.
    error_era: u64,
    /// The most recent flush failure. `Arc`'d so every waiter of the
    /// failed era shares one allocation — waking 64 followers costs 64
    /// refcount bumps, not 64 deep clones of the error's strings.
    /// Callers still match on the kind through [`Error::Shared`]'s
    /// `is_retryable`/`Display` forwarding.
    last_error: Option<Arc<Error>>,
}

/// Coalesces concurrent `make_durable` calls into shared flushes.
pub struct GroupCommitter {
    log: Arc<LogBuffer>,
    st: Mutex<GcState>,
    cv: Condvar,
    /// Group-commit metrics (shared so harnesses can report them).
    pub metrics: Arc<WalMetrics>,
}

impl GroupCommitter {
    /// Wrap a log buffer.
    pub fn new(log: Arc<LogBuffer>) -> Arc<GroupCommitter> {
        Arc::new(GroupCommitter {
            st: Mutex::new(GcState {
                flushing: false,
                durable: log.flushed(),
                waiting: Vec::new(),
                error_era: 0,
                last_error: None,
            }),
            cv: Condvar::new(),
            log,
            metrics: WalMetrics::new(),
        })
    }

    /// The underlying log buffer.
    pub fn log(&self) -> &Arc<LogBuffer> {
        &self.log
    }

    /// Append `mtrs` as one contiguous run and block until the run is
    /// durable (leader/follower group flush). Returns the batch end LSN.
    pub fn commit(&self, mtrs: &[Mtr]) -> Result<Lsn> {
        if mtrs.is_empty() {
            return Ok(self.log.flushed());
        }
        let (_, end) = self.log.append_batch(mtrs);
        self.metrics.commits.inc();
        let enrolled_at = Timer::start();
        let mut parked = false;
        let mut st = self.st.lock();
        let my_era = st.error_era;
        st.waiting.push(end);
        loop {
            if st.durable >= end {
                if parked {
                    self.metrics.wait_for_leader.record(enrolled_at.elapsed());
                }
                return Ok(end);
            }
            if st.error_era != my_era {
                // A flush failed while this batch was pending; its bytes
                // may or may not have reached the sink — report the error.
                let err = match &st.last_error {
                    Some(shared) => Error::Shared(Arc::clone(shared)),
                    None => Error::Storage { message: "group flush failed".into() },
                };
                st.waiting.retain(|&e| e != end);
                return Err(err);
            }
            if !st.flushing {
                // Become the flush leader.
                st.flushing = true;
                drop(st);
                let res = self.log.flush();
                st = self.st.lock();
                st.flushing = false;
                match res {
                    Ok(d) => {
                        if d > st.durable {
                            st.durable = d;
                        }
                        let before = st.waiting.len();
                        st.waiting.retain(|&e| e > d);
                        let released = (before - st.waiting.len()) as u64;
                        self.metrics.flushes.inc();
                        if released > 0 {
                            self.metrics.group_size.record(released);
                        }
                    }
                    Err(e) => {
                        st.error_era += 1;
                        st.last_error = Some(Arc::new(e));
                    }
                }
                self.cv.notify_all();
            } else {
                parked = true;
                self.cv.wait(&mut st);
            }
        }
    }

    /// Highest durable LSN as seen by the group committer.
    pub fn durable(&self) -> Lsn {
        self.st.lock().durable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{LogSink, VecSink};
    use crate::record::RedoPayload;
    use bytes::Bytes;
    use parking_lot::Mutex as PlMutex;
    use polardbx_common::{Key, TableId, TrxId, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn mtr(n: i64) -> Mtr {
        Mtr::single(RedoPayload::Insert {
            trx: TrxId(n as u64),
            table: TableId(1),
            key: Key::encode(&[Value::Int(n)]),
            row: Bytes::from(vec![7u8; 16]),
        })
    }

    fn commit_mtrs(n: i64) -> Vec<Mtr> {
        vec![mtr(n), Mtr::single(RedoPayload::TxnCommit { trx: TrxId(n as u64), commit_ts: n as u64 })]
    }

    #[test]
    fn single_committer_is_durable() {
        let sink = VecSink::new();
        let gc = GroupCommitter::new(LogBuffer::new(sink.clone()));
        let end = gc.commit(&commit_mtrs(1)).unwrap();
        assert_eq!(gc.log().flushed(), end);
        assert_eq!(gc.durable(), end);
        assert_eq!(gc.metrics.commits.get(), 1);
        assert_eq!(gc.metrics.flushes.get(), 1);
    }

    #[test]
    fn empty_batch_is_noop() {
        let sink = VecSink::new();
        let gc = GroupCommitter::new(LogBuffer::new(sink.clone()));
        gc.commit(&[]).unwrap();
        assert!(sink.writes().is_empty());
        assert_eq!(gc.metrics.commits.get(), 0);
    }

    /// Wraps a sink with a per-write busy-wait, modelling fsync cost. With
    /// an instant sink there is no window for followers to pile up and
    /// every committer leads its own flush — which is correct, but makes
    /// grouping unobservable in a test.
    struct SlowSink {
        inner: Arc<VecSink>,
        delay: std::time::Duration,
    }

    impl LogSink for SlowSink {
        fn write(&self, at: Lsn, bytes: Bytes) -> polardbx_common::Result<()> {
            let t0 = Timer::start();
            while t0.elapsed() < self.delay {
                std::hint::spin_loop();
            }
            self.inner.write(at, bytes)
        }
    }

    #[test]
    fn concurrent_committers_share_flushes() {
        let sink = VecSink::new();
        let slow = Arc::new(SlowSink { inner: sink.clone(), delay: std::time::Duration::from_micros(200) });
        let gc = GroupCommitter::new(LogBuffer::new(slow));
        const THREADS: i64 = 8;
        const PER: i64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let gc = Arc::clone(&gc);
                s.spawn(move || {
                    for i in 0..PER {
                        gc.commit(&commit_mtrs(t * 1000 + i)).unwrap();
                    }
                });
            }
        });
        let commits = (THREADS * PER) as u64;
        assert_eq!(gc.metrics.commits.get(), commits);
        assert_eq!(gc.log().flushed(), gc.log().head());
        // Grouping must have happened: strictly fewer flushes than commits
        // (with 8 threads hammering, some flushes cover several batches).
        assert!(
            gc.metrics.flushes.get() < commits,
            "no grouping: {} flushes for {commits} commits",
            gc.metrics.flushes.get()
        );
        // Group sizes sum to the commits released.
        assert_eq!(gc.metrics.group_size.sum(), commits);
        // The full content round-trips: every record present exactly once.
        let records = RedoPayload::decode_all(Bytes::from(sink.contiguous())).unwrap();
        assert_eq!(records.len() as u64, commits * 2);
    }

    #[test]
    fn flushed_never_passes_sink_hole_under_group_commit() {
        // Extends the PR 2 WAL-race regression through the group committer:
        // a reader snapshots `flushed` and asserts the sink tiles up to it.
        let sink = VecSink::new();
        let gc = GroupCommitter::new(LogBuffer::new(sink.clone()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let (sink, gc, stop) = (sink.clone(), Arc::clone(&gc), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let flushed = gc.log().flushed().raw() as usize;
                    let content = sink.contiguous();
                    assert!(content.len() >= flushed, "flushed past sink contents");
                }
            })
        };
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let gc = Arc::clone(&gc);
                s.spawn(move || {
                    for i in 0..200 {
                        gc.commit(&commit_mtrs(t * 1000 + i)).unwrap();
                    }
                });
            }
        });
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(gc.log().flushed(), gc.log().head());
    }

    /// A sink that fails every write after the first `ok_writes`.
    struct FlakySink {
        inner: Arc<VecSink>,
        ok_writes: u64,
        seen: AtomicU64,
    }

    impl LogSink for FlakySink {
        fn write(&self, at: Lsn, bytes: Bytes) -> polardbx_common::Result<()> {
            if self.seen.fetch_add(1, Ordering::SeqCst) >= self.ok_writes {
                return Err(Error::Storage { message: "sink broken".into() });
            }
            self.inner.write(at, bytes)
        }
    }

    #[test]
    fn flush_failure_propagates_to_all_waiters() {
        let flaky = Arc::new(FlakySink {
            inner: VecSink::new(),
            ok_writes: 0,
            seen: AtomicU64::new(0),
        });
        let gc = GroupCommitter::new(LogBuffer::new(flaky));
        let errs = PlMutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let gc = Arc::clone(&gc);
                let errs = &errs;
                s.spawn(move || {
                    let r = gc.commit(&commit_mtrs(t));
                    errs.lock().push(r.err());
                });
            }
        });
        let errs = errs.into_inner();
        assert!(errs.iter().all(|e| e.is_some()), "every waiter must see the failure");
        for e in errs.into_iter().flatten() {
            // Followers of a failed era share one Arc'd error (a refcount
            // bump per waiter); only an era's leader holds the original.
            assert!(
                matches!(&e, Error::Shared(_) | Error::Storage { .. }),
                "unexpected error shape: {e:?}"
            );
            assert!(e.to_string().contains("sink broken"), "{e}");
        }
    }
}
