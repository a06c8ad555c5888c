//! The commit path: an epoch pipeline flushed by whoever needs the answer.
//!
//! Every durability request of the engine — commit, prepare, abort, marker
//! — goes through one [`EpochPipeline`]:
//!
//! * a submission encodes its redo (data records + the decision record)
//!   into the **open epoch**, a reused `Vec<u8>` arena, and receives a
//!   *ticket* (the epoch's sequence number);
//! * a committing transaction's write locks are released and its versions
//!   stamped **immediately** (early lock release) — later transactions may
//!   read and overwrite the stamped versions without waiting;
//! * no client ack escapes until the transaction's epoch is durable: the
//!   committer (or a pipelined harvester) blocks in
//!   [`EpochPipeline::wait_ticket`], and the storage engine consults the
//!   same stability watermark before letting an external read observe a
//!   committed-but-unacked version.
//!
//! **Leader hand-off, no flusher thread.** The pipeline owns no thread.
//! A thread in [`EpochPipeline::wait_ticket`] whose epoch is unresolved
//! becomes the **flush leader** when no persist is in flight: it seals the
//! open epoch, releases the state lock, makes one [`EpochSink::persist`]
//! call — one fsync / one replication round for everything submitted so
//! far — settles the epoch and wakes the **followers**, who parked on the
//! condvar meanwhile. Whatever was submitted during that persist forms the
//! next epoch, and one of its waiters leads it. So a lone committer pays no
//! thread hop, N concurrent committers share a persist (InnoDB's group
//! commit), a windowed `commit_pipelined` stream lands a whole window in
//! one epoch, and an idle system costs nothing. A submitter that finds the
//! open epoch at its size bound leads it the same way, so a stream that
//! never waits still makes progress.
//!
//! **Torn epochs roll back wholesale.** If a persist fails (lost quorum,
//! sink error), the failed epoch *and the open epoch behind it* (its
//! transactions may have read the failed one's early-released writes) are
//! failed together: the listener rolls their transactions back, ticket
//! holders get one shared [`Error::Shared`] clone each, and the pipeline
//! carries on with new work. Crash recovery needs no new machinery: an
//! epoch is a plain concatenation of per-transaction record runs, so replay
//! classifies a torn epoch's transactions by the presence of their commit
//! records — absent means presumed abort.
//!
//! The submit path is allocation-free in steady state: the two epoch
//! arenas are recycled with their capacity preserved, and records are
//! encoded straight into the arena (`RedoPayload::encode` is generic over
//! the output cursor). What a *persist* allocates belongs to the sink and
//! does not grow with the epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use polardbx_common::metrics::{Counter, HdrHistogram};
use polardbx_common::{Error, Lsn, Result, TrxId};

/// Durability provider for sealed epochs: one call persists one epoch.
pub trait EpochSink: Send + Sync {
    /// Persist `bytes` (concatenated redo records) and return the durable
    /// end LSN. `cuts` lists the record-aligned byte offsets at which the
    /// payload may be split into wire frames (each cut is the *end* of a
    /// submission); sinks that frame the stream (Paxos) must cut only at
    /// these offsets so followers apply whole records.
    fn persist(&self, bytes: &[u8], cuts: &[usize]) -> Result<Lsn>;
}

/// Callbacks into the storage engine at epoch resolution.
pub trait EpochListener: Send + Sync {
    /// `txns` reached their durability horizon: clear their unstable flag
    /// so gated external reads and participant acks may proceed.
    fn epoch_stable(&self, txns: &[TrxId], end_lsn: Lsn);

    /// `txns` belong to a failed (torn) epoch: roll their early-released
    /// commits back wholesale (presumed abort).
    fn epoch_failed(&self, txns: &[TrxId], err: &Error);
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// A submitter that finds the open epoch at this size has it persisted
    /// before adding to it.
    pub max_epoch_bytes: usize,
}

impl Default for EpochConfig {
    fn default() -> EpochConfig {
        EpochConfig { max_epoch_bytes: 64 * 1024 }
    }
}

/// Ticket identifying the epoch a submission landed in.
pub type EpochTicket = u64;

/// One epoch's arena: records, owning transactions, frame cut points.
struct EpochBuf {
    seq: u64,
    buf: Vec<u8>,
    txns: Vec<TrxId>,
    cuts: Vec<usize>,
}

impl EpochBuf {
    fn new(seq: u64, cap: usize) -> EpochBuf {
        EpochBuf { seq, buf: Vec::with_capacity(cap), txns: Vec::new(), cuts: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Clear for reuse, keeping every allocation.
    fn reset(&mut self, seq: u64) {
        self.seq = seq;
        self.buf.clear();
        self.txns.clear();
        self.cuts.clear();
    }
}

/// One failed persist: epochs `lo..=hi` resolved with `err`.
struct FailedRange {
    lo: u64,
    hi: u64,
    err: Arc<Error>,
}

struct PipeState {
    open: EpochBuf,
    /// The arena not in use: two exist, one open and one being persisted.
    spare: Option<EpochBuf>,
    next_seq: u64,
    /// Every epoch `<= resolved_seq` is resolved (durable or failed).
    resolved_seq: u64,
    /// A leader is persisting the epoch after `resolved_seq` right now.
    persisting: bool,
    /// Recent failures, newest last (bounded; failures are rare).
    failures: Vec<FailedRange>,
    /// Highest epoch seq whose failure record was evicted from the
    /// bounded `failures` list. A resolved ticket at or below this mark
    /// has an unknowable outcome and must not be reported durable.
    failures_evicted_hi: u64,
    stopping: bool,
    sink: Arc<dyn EpochSink>,
    max_epoch_bytes: usize,
}

/// Commit-path observability: how well submissions coalesce into persists.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Submissions accepted (one per commit / prepare / abort / marker).
    pub commits: Counter,
    /// Epochs persisted (leaders only).
    pub flushes: Counter,
    /// Submissions released by persisted epochs; `released / flushes` is
    /// the mean group size (1 = no grouping happened).
    pub released: Counter,
    /// Time followers spent parked waiting for a leader's persist.
    pub wait_for_leader: HdrHistogram,
    /// Payload bytes persisted.
    pub bytes: Counter,
    /// Failed persists (each fails the epoch and the one behind it).
    pub failures: Counter,
}

impl WalMetrics {
    /// Persists per submission — the headline grouping ratio (1.0 means
    /// no grouping; 1/N means N submissions per sink write).
    pub fn flushes_per_commit(&self) -> f64 {
        let c = self.commits.get();
        if c == 0 {
            return 0.0;
        }
        self.flushes.get() as f64 / c as f64
    }

    /// One-line summary for harness output.
    pub fn report(&self) -> String {
        let group = self.released.get() as f64 / self.flushes.get().max(1) as f64;
        format!(
            "commits={} · flushes={} ({:.3} flushes/commit) · group size: mean={group:.1} · follower wait: mean={:?} p95={:?} · bytes={} · failures={}",
            self.commits.get(),
            self.flushes.get(),
            self.flushes_per_commit(),
            self.wait_for_leader.mean(),
            self.wait_for_leader.percentile(0.95),
            self.bytes.get(),
            self.failures.get(),
        )
    }
}

/// The commit pipeline. See the module docs for the protocol.
pub struct EpochPipeline {
    st: Mutex<PipeState>,
    /// Wakes followers and backpressured submitters when a persist settles.
    resolved: Condvar,
    /// End LSN of the last persisted epoch. Published before the listener
    /// hears of the epoch, so the listener can check one against the other.
    durable: AtomicU64,
    listener: Arc<dyn EpochListener>,
    /// Pipeline observability, shared with harnesses.
    pub metrics: Arc<WalMetrics>,
}

impl EpochPipeline {
    /// A pipeline over `sink`. It spawns nothing: persists run on the
    /// threads that wait for them.
    pub fn new(
        sink: Arc<dyn EpochSink>,
        listener: Arc<dyn EpochListener>,
        cfg: EpochConfig,
    ) -> Arc<EpochPipeline> {
        Arc::new(EpochPipeline {
            st: Mutex::new(PipeState {
                open: EpochBuf::new(1, cfg.max_epoch_bytes + 4096),
                spare: None,
                next_seq: 2,
                resolved_seq: 0,
                persisting: false,
                failures: Vec::new(),
                failures_evicted_hi: 0,
                stopping: false,
                sink,
                max_epoch_bytes: cfg.max_epoch_bytes,
            }),
            resolved: Condvar::new(),
            durable: AtomicU64::new(0),
            listener,
            metrics: Arc::new(WalMetrics::default()),
        })
    }

    /// Append one submission (all of a transaction's redo records,
    /// pre-ordered, ending with its decision record) to the open epoch.
    /// `txn` is `Some` for commits that were early-released and must be
    /// tracked to stability; prepare/abort/marker submissions pass `None`.
    ///
    /// The returned ticket resolves through [`EpochPipeline::wait_ticket`].
    // lint:hotpath
    pub fn submit<F: FnOnce(&mut Vec<u8>)>(
        &self,
        txn: Option<TrxId>,
        encode: F,
    ) -> Result<EpochTicket> {
        let mut st = self.st.lock();
        // Backpressure: a full open epoch is persisted before it grows
        // further — by this submitter, unless a persist is in flight.
        while st.open.buf.len() >= st.max_epoch_bytes && !st.stopping {
            st = self.lead_or_wait(st);
        }
        if st.stopping {
            return Err(Error::storage("epoch pipeline stopped"));
        }
        let seq = st.open.seq;
        encode(&mut st.open.buf);
        let end = st.open.buf.len();
        st.open.cuts.push(end);
        if let Some(t) = txn {
            st.open.txns.push(t);
        }
        self.metrics.commits.inc();
        Ok(seq)
    }

    /// Block until `ticket`'s epoch is resolved; `Ok(durable_lsn)` when it
    /// persisted, the epoch's shared error when it failed. The caller does
    /// the flush itself whenever nobody else is (see the module docs);
    /// `timeout` bounds the time it spends parked behind another leader.
    // lint:hotpath
    pub fn wait_ticket(&self, ticket: EpochTicket, timeout: Duration) -> Result<Lsn> {
        let mut st = self.st.lock();
        // Read at the first park: a leader never looks at the clock.
        let mut parked_at: Option<Instant> = None;
        while st.resolved_seq < ticket {
            if !st.persisting && !st.open.is_empty() {
                st = self.lead(st);
                continue;
            }
            // lint:allow(determinism, "Condvar::wait_until needs an Instant deadline; bounded by the caller's timeout")
            let since = *parked_at.get_or_insert_with(Instant::now);
            if self.resolved.wait_until(&mut st, since + timeout).timed_out() {
                return Err(Error::Timeout { what: format!("epoch {ticket} durability") });
            }
        }
        if let Some(since) = parked_at {
            self.metrics.wait_for_leader.record(since.elapsed());
        }
        for f in st.failures.iter().rev() {
            if ticket >= f.lo && ticket <= f.hi {
                return Err(Error::Shared(Arc::clone(&f.err)));
            }
        }
        // A waiter that wakes after its ticket's failure record was
        // evicted from the bounded list cannot tell failure from success.
        // Never guess durable: an evicted *failed* range reported Ok here
        // would present a rolled-back commit as durable.
        if ticket <= st.failures_evicted_hi {
            return Err(Error::storage(format!(
                "epoch {ticket} outcome unknown: its resolution record was evicted"
            )));
        }
        Ok(self.durable_lsn())
    }

    /// Submit and wait in one step: the prepare/abort/marker path, which
    /// must not ack before durability.
    pub fn submit_sync<F: FnOnce(&mut Vec<u8>)>(
        &self,
        txn: Option<TrxId>,
        timeout: Duration,
        encode: F,
    ) -> Result<Lsn> {
        let ticket = self.submit(txn, encode)?;
        self.wait_ticket(ticket, timeout)
    }

    /// Durable horizon (end LSN of the last persisted epoch).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable.load(Ordering::Acquire))
    }

    /// Persist whatever was submitted and refuse new submissions.
    pub fn stop(&self) {
        let mut st = self.st.lock();
        st.stopping = true;
        drop(self.drain(st));
    }

    /// Persist whatever was submitted through the current sink, then send
    /// later epochs to `sink`. For wiring an engine up, before it takes
    /// traffic: the new sink counts LSNs in its own log.
    pub fn replace_sink(&self, sink: Arc<dyn EpochSink>, cfg: EpochConfig) {
        let mut st = self.drain(self.st.lock());
        st.sink = sink;
        st.max_epoch_bytes = cfg.max_epoch_bytes;
        self.durable.store(0, Ordering::Release);
    }

    /// Lead or wait until nothing submitted is unresolved.
    fn drain<'a>(&'a self, mut st: MutexGuard<'a, PipeState>) -> MutexGuard<'a, PipeState> {
        while st.persisting || !st.open.is_empty() {
            st = self.lead_or_wait(st);
        }
        st
    }

    /// One step towards an empty pipeline: lead the (non-empty) open epoch,
    /// or wait out the persist in flight.
    // lint:hotpath
    fn lead_or_wait<'a>(&'a self, mut st: MutexGuard<'a, PipeState>) -> MutexGuard<'a, PipeState> {
        if st.persisting {
            self.resolved.wait(&mut st);
            st
        } else {
            self.lead(st)
        }
    }

    /// Take the open epoch, leaving a fresh one (the spare arena) in its
    /// place. Caller holds the state lock.
    fn seal_open(&self, st: &mut PipeState) -> EpochBuf {
        let seq = st.next_seq;
        st.next_seq += 1;
        let fresh = match st.spare.take() {
            Some(mut b) => {
                b.reset(seq);
                b
            }
            None => EpochBuf::new(seq, st.max_epoch_bytes + 4096),
        };
        std::mem::replace(&mut st.open, fresh)
    }

    /// Flush leader: seal the open epoch, persist it with the state lock
    /// released, settle it. The caller holds the lock and saw no persist in
    /// flight and a non-empty open epoch.
    // lint:hotpath
    fn lead<'a>(&'a self, mut st: MutexGuard<'a, PipeState>) -> MutexGuard<'a, PipeState> {
        let epoch = self.seal_open(&mut st);
        st.persisting = true;
        let sink = Arc::clone(&st.sink);
        drop(st);
        let behind = match sink.persist(&epoch.buf, &epoch.cuts) {
            Ok(end) => {
                self.metrics.flushes.inc();
                self.metrics.released.add(epoch.cuts.len() as u64);
                self.metrics.bytes.add(epoch.buf.len() as u64);
                // The horizon, then stability, then the tickets: the
                // listener checks the epoch against the horizon, and a
                // ticket holder acks the instant it wakes — its client's
                // next read must not be gated on a stale flag.
                self.durable.fetch_max(end.raw(), Ordering::AcqRel);
                self.listener.epoch_stable(&epoch.txns, end);
                None
            }
            Err(e) => self.fail_suffix(&epoch, e),
        };
        let mut st = self.st.lock();
        st.resolved_seq = behind.as_ref().map_or(epoch.seq, |b| b.seq);
        st.persisting = false;
        // Sealing took the spare; one arena goes back, a third is dropped.
        st.spare = Some(behind.unwrap_or(epoch));
        self.resolved.notify_all();
        st
    }

    /// A persist failed: fail `epoch` and the open epoch behind it (its
    /// transactions may have read the failed one's early-released writes),
    /// roll the transactions back, and leave one shared error for their
    /// ticket holders. Returns the epoch taken from behind, if any.
    fn fail_suffix(&self, epoch: &EpochBuf, err: Error) -> Option<EpochBuf> {
        self.metrics.failures.inc();
        let err = Arc::new(err);
        let behind = {
            let mut st = self.st.lock();
            (!st.open.is_empty()).then(|| self.seal_open(&mut st))
        };
        // Roll back outside the lock: the listener takes engine locks, and
        // gated readers keep waiting until the demotions land.
        self.listener.epoch_failed(&epoch.txns, &err);
        if let Some(b) = &behind {
            self.listener.epoch_failed(&b.txns, &err);
        }
        let mut st = self.st.lock();
        let hi = behind.as_ref().map_or(epoch.seq, |b| b.seq);
        st.failures.push(FailedRange { lo: epoch.seq, hi, err });
        if st.failures.len() > 64 {
            let evicted = st.failures.remove(0);
            st.failures_evicted_hi = st.failures_evicted_hi.max(evicted.hi);
        }
        behind
    }
}

impl Drop for EpochPipeline {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Local-durability epoch sink: one [`crate::LogBuffer`] append + flush
/// per sealed epoch. The log holds each submission's records as one
/// contiguous run, in submission order, so recovery, log shipping and RO
/// replicas read it like any redo stream.
pub struct LocalEpochSink {
    log: Arc<crate::LogBuffer>,
}

impl LocalEpochSink {
    /// Wrap a log buffer.
    pub fn new(log: Arc<crate::LogBuffer>) -> Arc<LocalEpochSink> {
        Arc::new(LocalEpochSink { log })
    }
}

impl EpochSink for LocalEpochSink {
    fn persist(&self, bytes: &[u8], _cuts: &[usize]) -> Result<Lsn> {
        let (_, end) = self.log.append_raw(bytes);
        let flushed = self.log.flush()?;
        debug_assert!(flushed >= end, "flush horizon must cover the epoch");
        Ok(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::VecSink;
    use crate::record::RedoPayload;
    use crate::{LogBuffer, LogSink, Mtr};
    use bytes::Bytes;
    use polardbx_common::{Key, TableId, Value};
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;

    const WAIT: Duration = Duration::from_secs(5);

    fn record(n: i64) -> RedoPayload {
        RedoPayload::Insert {
            trx: TrxId(n as u64),
            table: TableId(1),
            key: Key::encode(&[Value::Int(n)]),
            row: Bytes::from(vec![7u8; 16]),
        }
    }

    fn commit_record(n: u64) -> RedoPayload {
        RedoPayload::TxnCommit { trx: TrxId(n), commit_ts: n * 10 }
    }

    /// Submit transaction `n` (one row + its commit record).
    fn submit_txn(pipe: &EpochPipeline, n: u64) -> EpochTicket {
        pipe.submit(Some(TrxId(n)), |buf| {
            record(n as i64).encode(buf);
            commit_record(n).encode(buf);
        })
        .unwrap()
    }

    #[derive(Default)]
    struct Tracking {
        stable: Mutex<Vec<TrxId>>,
        failed: Mutex<Vec<TrxId>>,
    }

    impl EpochListener for Tracking {
        fn epoch_stable(&self, txns: &[TrxId], _end: Lsn) {
            self.stable.lock().extend_from_slice(txns);
        }
        fn epoch_failed(&self, txns: &[TrxId], _err: &Error) {
            self.failed.lock().extend_from_slice(txns);
        }
    }

    fn local_pipe(sink: Arc<dyn LogSink>) -> (Arc<EpochPipeline>, Arc<Tracking>, Arc<LogBuffer>) {
        let log = LogBuffer::new(sink);
        let tracking = Arc::new(Tracking::default());
        let pipe = EpochPipeline::new(
            LocalEpochSink::new(Arc::clone(&log)),
            Arc::clone(&tracking) as Arc<dyn EpochListener>,
            EpochConfig::default(),
        );
        (pipe, tracking, log)
    }

    /// A test sink over a [`VecSink`]: records which thread ran each
    /// persist, spins `delay` per call, holds every call while `gate` is
    /// shut, and fails the calls after the first `ok`.
    struct ProbeSink {
        inner: Arc<VecSink>,
        threads: Mutex<Vec<ThreadId>>,
        delay: Duration,
        gate: (Mutex<bool>, Condvar),
        ok: AtomicU64,
    }

    impl ProbeSink {
        fn new(delay: Duration, ok: u64) -> Arc<ProbeSink> {
            Arc::new(ProbeSink {
                inner: VecSink::new(),
                threads: Mutex::new(Vec::new()),
                delay,
                gate: (Mutex::new(true), Condvar::new()),
                ok: AtomicU64::new(ok),
            })
        }

        fn set_gate(&self, open: bool) {
            *self.gate.0.lock() = open;
            self.gate.1.notify_all();
        }

        fn calls(&self) -> usize {
            self.threads.lock().len()
        }
    }

    impl EpochSink for ProbeSink {
        fn persist(&self, bytes: &[u8], _cuts: &[usize]) -> Result<Lsn> {
            self.threads.lock().push(std::thread::current().id());
            let started = Instant::now();
            while started.elapsed() < self.delay {
                std::hint::spin_loop();
            }
            let mut open = self.gate.0.lock();
            while !*open {
                self.gate.1.wait(&mut open);
            }
            if self.ok.load(Ordering::SeqCst) == 0 {
                return Err(Error::NoQuorum { acks: 1, needed: 2 });
            }
            self.ok.fetch_sub(1, Ordering::SeqCst);
            let at = self.inner.end_lsn();
            self.inner.write(at, Bytes::copy_from_slice(bytes))?;
            Ok(at.advance(bytes.len() as u64))
        }
    }

    fn probe_pipe(sink: &Arc<ProbeSink>) -> (Arc<EpochPipeline>, Arc<Tracking>) {
        let tracking = Arc::new(Tracking::default());
        let pipe = EpochPipeline::new(
            Arc::clone(sink) as Arc<dyn EpochSink>,
            Arc::clone(&tracking) as Arc<dyn EpochListener>,
            EpochConfig::default(),
        );
        (pipe, tracking)
    }

    /// Spin until the sink has been entered `n` times.
    fn await_calls(sink: &ProbeSink, n: usize) {
        let started = Instant::now();
        while sink.calls() < n {
            assert!(started.elapsed() < WAIT, "persist #{n} never started");
            std::thread::yield_now();
        }
    }

    #[test]
    fn epoch_stream_is_byte_identical_to_serial_appends() {
        // Reference: append_sync per MTR, no pipeline.
        let serial_sink = VecSink::new();
        let serial = LogBuffer::new(serial_sink.clone());
        let epoch_sink = VecSink::new();
        let (pipe, _, _) = local_pipe(epoch_sink.clone());
        for n in 0..20u64 {
            let recs = vec![record(n as i64), commit_record(n)];
            serial.append_sync(&Mtr::new(recs.clone())).unwrap();
            pipe.submit_sync(Some(TrxId(n)), WAIT, |buf| recs.iter().for_each(|r| r.encode(buf)))
                .unwrap();
        }
        assert_eq!(serial_sink.contiguous(), epoch_sink.contiguous());
        assert_eq!(pipe.durable_lsn(), serial.flushed());
        assert_eq!(pipe.metrics.flushes.get(), 20, "a lone sync stream persists per submission");
    }

    #[test]
    fn a_lone_committer_persists_on_its_own_thread() {
        let sink = ProbeSink::new(Duration::ZERO, u64::MAX);
        let (pipe, tracking) = probe_pipe(&sink);
        for n in 1..=10 {
            let t = submit_txn(&pipe, n);
            pipe.wait_ticket(t, WAIT).unwrap();
        }
        // Every persist ran here: the pipeline has no thread of its own.
        let me = std::thread::current().id();
        assert_eq!(*sink.threads.lock(), vec![me; 10]);
        assert_eq!(tracking.stable.lock().len(), 10);
        assert_eq!(pipe.metrics.wait_for_leader.count(), 0, "nobody to wait for");
    }

    #[test]
    fn a_window_of_pipelined_submissions_lands_in_one_epoch() {
        let sink = VecSink::new();
        let (pipe, tracking, _) = local_pipe(sink.clone());
        let tickets: Vec<EpochTicket> = (0..100).map(|n| submit_txn(&pipe, n)).collect();
        assert!(tickets.windows(2).all(|w| w[0] <= w[1]), "tickets must be monotone");
        assert!(sink.contiguous().is_empty(), "nothing persists until somebody waits");
        for t in &tickets {
            pipe.wait_ticket(*t, WAIT).unwrap();
        }
        assert_eq!(tracking.stable.lock().len(), 100);
        assert!(tracking.failed.lock().is_empty());
        assert_eq!(pipe.metrics.flushes.get(), 1, "the first waiter persists the whole window");
        assert_eq!(pipe.metrics.released.get(), 100);
        let records = RedoPayload::decode_all(Bytes::from(sink.contiguous())).unwrap();
        assert_eq!(records.len(), 200);
    }

    #[test]
    fn concurrent_committers_share_persists() {
        let sink = ProbeSink::new(Duration::from_micros(200), u64::MAX);
        let (pipe, tracking) = probe_pipe(&sink);
        const THREADS: u64 = 8;
        const PER: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pipe = &pipe;
                s.spawn(move || {
                    for i in 0..PER {
                        let ticket = submit_txn(pipe, t * 1000 + i);
                        pipe.wait_ticket(ticket, WAIT).unwrap();
                    }
                });
            }
        });
        let commits = THREADS * PER;
        let m = &pipe.metrics;
        assert_eq!(m.commits.get(), commits);
        assert!(
            m.flushes.get() < commits,
            "no grouping: {} flushes for {commits} commits",
            m.flushes.get()
        );
        // Every submission was released by exactly one persist.
        assert_eq!(m.released.get(), commits);
        assert!(m.wait_for_leader.count() > 0, "followers parked behind a leader");
        assert_eq!(tracking.stable.lock().len() as u64, commits);
        // Every record present exactly once, each transaction's run whole.
        let records = RedoPayload::decode_all(Bytes::from(sink.inner.contiguous())).unwrap();
        assert_eq!(records.len() as u64, commits * 2);
        for pair in records.chunks(2) {
            let (RedoPayload::Insert { trx, .. }, RedoPayload::TxnCommit { trx: c, .. }) =
                (&pair[0], &pair[1])
            else {
                panic!("a transaction's records were split: {pair:?}");
            };
            assert_eq!(trx, c);
        }
    }

    #[test]
    fn flushed_never_passes_a_sink_hole_under_concurrent_leaders() {
        // A reader snapshots the log's flushed horizon and asserts the sink
        // tiles up to it, while leadership hops between four committers.
        let sink = VecSink::new();
        let (pipe, _, log) = local_pipe(sink.clone());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let flushed = log.flushed().raw() as usize;
                    assert!(sink.contiguous().len() >= flushed, "flushed past sink contents");
                }
            });
            let committers: Vec<_> = (0..4u64)
                .map(|t| {
                    let pipe = &pipe;
                    s.spawn(move || {
                        for i in 0..200 {
                            let ticket = submit_txn(pipe, t * 1000 + i);
                            pipe.wait_ticket(ticket, WAIT).unwrap();
                        }
                    })
                })
                .collect();
            committers.into_iter().for_each(|c| c.join().unwrap());
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(log.flushed(), log.head());
        assert_eq!(pipe.durable_lsn(), log.flushed());
    }

    #[test]
    fn a_submitter_that_never_waits_makes_progress_past_backpressure() {
        let sink = VecSink::new();
        let tracking = Arc::new(Tracking::default());
        let pipe = EpochPipeline::new(
            LocalEpochSink::new(LogBuffer::new(sink.clone())),
            Arc::clone(&tracking) as Arc<dyn EpochListener>,
            EpochConfig { max_epoch_bytes: 256 },
        );
        for n in 0..200 {
            submit_txn(&pipe, n);
        }
        let flushes = pipe.metrics.flushes.get();
        assert!(flushes >= 10, "the size bound must have persisted epochs, saw {flushes}");
        assert!(tracking.stable.lock().len() >= 150, "most of the stream is already stable");
        pipe.stop();
        assert_eq!(tracking.stable.lock().len(), 200);
        let records = RedoPayload::decode_all(Bytes::from(sink.contiguous())).unwrap();
        assert_eq!(records.len(), 400);
    }

    #[test]
    fn a_failed_persist_fails_the_epoch_behind_it_with_one_shared_error() {
        let sink = ProbeSink::new(Duration::ZERO, 1);
        let (pipe, tracking) = probe_pipe(&sink);
        // The first epoch persists.
        let t1 = submit_txn(&pipe, 1);
        pipe.wait_ticket(t1, WAIT).unwrap();
        // The second is held inside the sink, which will fail it; the
        // third is submitted behind it meanwhile and goes down with it.
        sink.set_gate(false);
        let t2 = submit_txn(&pipe, 2);
        let (e2, t3, e3) = std::thread::scope(|s| {
            let pipe = &pipe;
            let leader = s.spawn(move || pipe.wait_ticket(t2, WAIT).unwrap_err());
            await_calls(&sink, 2);
            let t3 = submit_txn(pipe, 3);
            let follower = s.spawn(move || pipe.wait_ticket(t3, WAIT).unwrap_err());
            std::thread::sleep(Duration::from_millis(10));
            sink.set_gate(true);
            (leader.join().unwrap(), t3, follower.join().unwrap())
        });
        assert!(t3 > t2, "the third landed in the epoch behind");
        assert!(matches!(e2, Error::Shared(_)), "shared error, got {e2:?}");
        assert!(!e2.is_retryable(), "NoQuorum is not blind-retryable: {e2}");
        assert_eq!(e2, e3, "every waiter of the failed range shares one error");
        assert_eq!(*tracking.failed.lock(), vec![TrxId(2), TrxId(3)]);
        assert_eq!(*tracking.stable.lock(), vec![TrxId(1)]);
        assert_eq!(sink.calls(), 2, "the epoch behind was never sent to the sink");
        assert_eq!(pipe.metrics.failures.get(), 1);
        // The pipeline carries on: new submissions persist again.
        sink.ok.store(5, Ordering::SeqCst);
        let t4 = submit_txn(&pipe, 4);
        pipe.wait_ticket(t4, WAIT).unwrap();
        assert!(tracking.stable.lock().contains(&TrxId(4)));
    }

    #[test]
    fn evicted_failure_record_never_reports_durable() {
        // A waiter that wakes only after its epoch's failure record was
        // pruned from the bounded list must get an "outcome unknown"
        // error, not a silent Ok presenting a rolled-back commit as
        // durable.
        let sink = ProbeSink::new(Duration::ZERO, 0);
        let (pipe, _) = probe_pipe(&sink);
        let stale = submit_txn(&pipe, 1);
        let first = pipe.wait_ticket(stale, WAIT).unwrap_err();
        assert!(matches!(first, Error::Shared(_)), "got {first:?}");
        // 70 later failures evict the stale ticket's failure range.
        for n in 0..70 {
            let t = submit_txn(&pipe, n + 2);
            assert!(pipe.wait_ticket(t, WAIT).is_err());
        }
        let late = pipe.wait_ticket(stale, WAIT).unwrap_err();
        assert!(
            format!("{late}").contains("outcome unknown"),
            "late waiter must not be told durable or failed-with-someone-else's-error: {late}"
        );
    }

    #[test]
    fn a_follower_times_out_behind_a_stuck_leader() {
        let sink = ProbeSink::new(Duration::ZERO, u64::MAX);
        let (pipe, _) = probe_pipe(&sink);
        sink.set_gate(false);
        let t1 = submit_txn(&pipe, 1);
        std::thread::scope(|s| {
            let leader = s.spawn(|| pipe.wait_ticket(t1, WAIT));
            await_calls(&sink, 1);
            let t2 = submit_txn(&pipe, 2);
            let err = pipe.wait_ticket(t2, Duration::from_millis(20)).unwrap_err();
            assert!(matches!(err, Error::Timeout { .. }), "{err:?}");
            sink.set_gate(true);
            leader.join().unwrap().unwrap();
            // The timed-out ticket is still good: whoever waits next leads it.
            pipe.wait_ticket(t2, WAIT).unwrap();
        });
    }

    #[test]
    fn stop_drains_submitted_work() {
        let sink = VecSink::new();
        let (pipe, _, _) = local_pipe(sink.clone());
        let t = submit_txn(&pipe, 1);
        pipe.stop();
        pipe.wait_ticket(t, Duration::from_secs(1)).unwrap();
        assert!(!sink.contiguous().is_empty());
        // Post-stop submissions fail typed.
        assert!(pipe.submit(None, |b| commit_record(2).encode(b)).is_err());
    }

    #[test]
    fn replace_sink_drains_into_the_old_sink_first() {
        let old = VecSink::new();
        let (pipe, _, _) = local_pipe(old.clone());
        let t1 = submit_txn(&pipe, 1);
        let new = VecSink::new();
        pipe.replace_sink(LocalEpochSink::new(LogBuffer::new(new.clone())), EpochConfig::default());
        pipe.wait_ticket(t1, WAIT).unwrap();
        let t2 = submit_txn(&pipe, 2);
        pipe.wait_ticket(t2, WAIT).unwrap();
        assert_eq!(RedoPayload::decode_all(Bytes::from(old.contiguous())).unwrap().len(), 2);
        assert_eq!(RedoPayload::decode_all(Bytes::from(new.contiguous())).unwrap().len(), 2);
        assert_eq!(pipe.durable_lsn().raw() as usize, new.contiguous().len());
    }
}
