//! Epoch-pipelined commit path (STAR-style, ROADMAP item 5).
//!
//! Group commit (PR 3) amortizes *flushes* across concurrent committers,
//! but a single committer still pays one full durability round — local
//! fsync or Paxos replication RTT — per transaction, because the commit
//! *decision* and the durability *acknowledgment* are welded together.
//! The epoch pipeline decouples them:
//!
//! * every committing transaction encodes its redo (data records + the
//!   commit record) into the **open epoch**, a reused `Vec<u8>` arena, and
//!   receives a *ticket* (the epoch's sequence number);
//! * the transaction's write locks are released and its versions stamped
//!   **immediately** (early lock release) — later transactions may read
//!   and overwrite the stamped versions without waiting;
//! * a background flusher **seals** epochs (on a size bound, or as soon as
//!   the previous flush returns) and persists each sealed epoch with one
//!   [`EpochSink::persist`] call — one fsync / one replication round for
//!   the whole epoch;
//! * no client ack escapes until the transaction's epoch is durable: the
//!   committer (or a pipelined harvester) blocks in
//!   [`EpochPipeline::wait_ticket`], and the storage engine consults the
//!   same stability watermark before letting an external read observe a
//!   committed-but-unacked version.
//!
//! **Torn epochs roll back wholesale.** If a persist fails (lost quorum,
//! sink error), the failed epoch *and every epoch behind it* (they may
//! have read its early-released writes) are failed together: the listener
//! rolls their transactions back, ticket holders get one shared
//! [`Error::Shared`] clone each, and the pipeline resets for new work.
//! Crash recovery needs no new machinery: an epoch is a plain
//! concatenation of the same records the serial path writes, so replay
//! classifies a torn epoch's transactions by the presence of their commit
//! records — absent means presumed abort, exactly as before.
//!
//! The submit path is allocation-free in steady state: epoch buffers are
//! recycled through a pool with their capacity preserved, and records are
//! encoded straight into the arena (`RedoPayload::encode` is generic over
//! the output cursor).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use polardbx_common::metrics::{Counter, ValueHistogram};
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
    /// Seal the open epoch once its arena reaches this size.
    pub max_epoch_bytes: usize,
    /// Sealed epochs allowed to queue behind the in-flight persist before
    /// submitters block (bounded pipeline depth).
    pub max_in_flight: usize,
    /// Idle tick: how long the flusher sleeps when there is nothing to
    /// seal or persist.
    pub tick: Duration,
}

impl Default for EpochConfig {
    fn default() -> EpochConfig {
        EpochConfig {
            max_epoch_bytes: 64 * 1024,
            max_in_flight: 4,
            tick: Duration::from_millis(1),
        }
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

/// One failed seal range: epochs `lo..=hi` resolved with `err`.
struct FailedRange {
    lo: u64,
    hi: u64,
    err: Arc<Error>,
}

struct PipeState {
    open: EpochBuf,
    sealed: VecDeque<EpochBuf>,
    /// Recycled arenas (capacity preserved across epochs).
    pool: Vec<EpochBuf>,
    next_seq: u64,
    /// Every epoch `<= resolved_seq` is resolved (durable or failed).
    resolved_seq: u64,
    /// Seq of the epoch the flusher is persisting right now, if any.
    /// Tracked so [`EpochPipeline::barrier`] covers in-flight work: the
    /// flusher pops an epoch off `sealed` before calling persist, so
    /// neither `open` nor `sealed` accounts for it.
    persisting: Option<u64>,
    /// Durable horizon reported by the sink.
    durable: Lsn,
    /// Recent failures, newest last (bounded; failures are rare).
    failures: Vec<FailedRange>,
    /// Highest epoch seq whose failure record was evicted from the
    /// bounded `failures` list. A resolved ticket at or below this mark
    /// has an unknowable outcome and must not be reported durable.
    failures_evicted_hi: u64,
    stopping: bool,
}

/// Counters and distributions for the epoch pipeline.
#[derive(Default)]
pub struct EpochMetrics {
    /// Epochs persisted.
    pub epochs: Counter,
    /// Transactions committed through the pipeline.
    pub txns: Counter,
    /// Payload bytes persisted.
    pub bytes: Counter,
    /// Transactions per sealed epoch.
    pub epoch_txns: ValueHistogram,
    /// Failed persists (each fails a whole epoch suffix).
    pub failures: Counter,
}

impl EpochMetrics {
    /// Mean transactions amortized per persist call.
    pub fn txns_per_epoch(&self) -> f64 {
        let e = self.epochs.get();
        if e == 0 {
            return 0.0;
        }
        self.txns.get() as f64 / e as f64
    }

    /// One-line summary for benches.
    pub fn report(&self) -> String {
        format!(
            "epochs={} txns={} txns/epoch={:.1} (p95={}) bytes={} failures={}",
            self.epochs.get(),
            self.txns.get(),
            self.txns_per_epoch(),
            self.epoch_txns.percentile(0.95),
            self.bytes.get(),
            self.failures.get(),
        )
    }
}

/// The always-on epoch pipeline. See the module docs for the protocol.
pub struct EpochPipeline {
    st: Mutex<PipeState>,
    /// Wakes the flusher (new work) and backpressured submitters.
    work: Condvar,
    /// Wakes ticket waiters on epoch resolution.
    resolved: Condvar,
    sink: Arc<dyn EpochSink>,
    listener: Arc<dyn EpochListener>,
    cfg: EpochConfig,
    /// Pipeline observability, shared with benches.
    pub metrics: Arc<EpochMetrics>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl EpochPipeline {
    /// Build the pipeline and start its flusher thread.
    pub fn start(
        sink: Arc<dyn EpochSink>,
        listener: Arc<dyn EpochListener>,
        cfg: EpochConfig,
    ) -> Arc<EpochPipeline> {
        let cap = cfg.max_epoch_bytes + 4096;
        let pipeline = Arc::new(EpochPipeline {
            st: Mutex::new(PipeState {
                open: EpochBuf::new(1, cap),
                sealed: VecDeque::new(),
                pool: Vec::new(),
                next_seq: 2,
                resolved_seq: 0,
                persisting: None,
                durable: Lsn::ZERO,
                failures: Vec::new(),
                failures_evicted_hi: 0,
                stopping: false,
            }),
            work: Condvar::new(),
            resolved: Condvar::new(),
            sink,
            listener,
            cfg,
            metrics: Arc::new(EpochMetrics::default()),
            flusher: Mutex::new(None),
        });
        let runner = Arc::clone(&pipeline);
        let handle = std::thread::Builder::new()
            .name("epoch-flusher".into())
            .spawn(move || runner.run_flusher());
        match handle {
            Ok(h) => *pipeline.flusher.lock() = Some(h),
            Err(e) => panic!("spawning epoch flusher: {e}"),
        }
        pipeline
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
        // Backpressure: the pipeline is full when the open epoch hit its
        // size bound and the sealed queue is at depth.
        while st.open.buf.len() >= self.cfg.max_epoch_bytes {
            if st.sealed.len() < self.cfg.max_in_flight {
                self.seal_open(&mut st);
                self.work.notify_all();
                break;
            }
            if st.stopping {
                return Err(Error::storage("epoch pipeline stopped"));
            }
            self.work.wait(&mut st);
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
        self.work.notify_all();
        Ok(seq)
    }

    /// Block until `ticket`'s epoch is resolved; `Ok(durable_lsn)` when it
    /// persisted, the epoch's shared error when it failed.
    // lint:hotpath
    pub fn wait_ticket(&self, ticket: EpochTicket, timeout: Duration) -> Result<Lsn> {
        let mut st = self.st.lock();
        // lint:allow(determinism, "Condvar::wait_until needs an Instant deadline; bounded by the caller's timeout")
        let deadline = std::time::Instant::now() + timeout;
        while st.resolved_seq < ticket {
            if self.resolved.wait_until(&mut st, deadline).timed_out() {
                return Err(Error::Timeout { what: format!("epoch {ticket} durability") });
            }
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
        Ok(st.durable)
    }

    /// Submit and wait in one step: the synchronous commit path (and the
    /// prepare/abort/marker path, which must not ack before durability).
    pub fn submit_sync<F: FnOnce(&mut Vec<u8>)>(
        &self,
        txn: Option<TrxId>,
        timeout: Duration,
        encode: F,
    ) -> Result<Lsn> {
        let ticket = self.submit(txn, encode)?;
        self.wait_ticket(ticket, timeout)
    }

    /// Wait until everything submitted so far is resolved. Covers the
    /// open epoch, the sealed queue, *and* the epoch the flusher is
    /// persisting right now (which sits in neither).
    pub fn barrier(&self, timeout: Duration) -> Result<Lsn> {
        let upto = {
            let st = self.st.lock();
            let mut upto = st.resolved_seq;
            if let Some(seq) = st.persisting {
                upto = upto.max(seq);
            }
            if let Some(b) = st.sealed.back() {
                upto = upto.max(b.seq);
            }
            if !st.open.is_empty() {
                upto = upto.max(st.open.seq);
            }
            upto
        };
        self.wait_ticket(upto, timeout)
    }

    /// Durable horizon (end LSN of the last persisted epoch).
    pub fn durable_lsn(&self) -> Lsn {
        self.st.lock().durable
    }

    /// Stop the flusher after draining already-submitted epochs.
    pub fn stop(&self) {
        {
            let mut st = self.st.lock();
            st.stopping = true;
            self.work.notify_all();
        }
        let handle = self.flusher.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Move the open epoch to the sealed queue and start a fresh one from
    /// the pool. Caller holds the state lock.
    fn seal_open(&self, st: &mut PipeState) {
        let seq = st.next_seq;
        st.next_seq += 1;
        let mut fresh = match st.pool.pop() {
            Some(mut b) => {
                b.reset(seq);
                b
            }
            None => EpochBuf::new(seq, self.cfg.max_epoch_bytes + 4096),
        };
        std::mem::swap(&mut st.open, &mut fresh);
        st.sealed.push_back(fresh);
    }

    fn run_flusher(&self) {
        loop {
            let job = {
                let mut st = self.st.lock();
                loop {
                    if let Some(b) = st.sealed.pop_front() {
                        st.persisting = Some(b.seq);
                        break Some(b);
                    }
                    if !st.open.is_empty() {
                        // The previous persist returned (or the first
                        // submission landed on an idle pipeline): seal
                        // immediately — the flush itself is the tick.
                        self.seal_open(&mut st);
                        continue;
                    }
                    if st.stopping {
                        break None;
                    }
                    // lint:allow(determinism, "idle tick: Condvar::wait_until needs an Instant deadline; bounded by cfg.tick")
                    let tick = std::time::Instant::now() + self.cfg.tick;
                    let _ = self.work.wait_until(&mut st, tick);
                }
            };
            let Some(buf) = job else { return };
            match self.sink.persist(&buf.buf, &buf.cuts) {
                Ok(end) => self.settle_ok(buf, end),
                Err(e) => self.settle_failed(buf, e),
            }
        }
    }

    /// A sealed epoch persisted: publish stability, then resolve tickets.
    fn settle_ok(&self, buf: EpochBuf, end: Lsn) {
        self.metrics.epochs.inc();
        self.metrics.txns.add(buf.txns.len() as u64);
        self.metrics.bytes.add(buf.buf.len() as u64);
        self.metrics.epoch_txns.record(buf.txns.len() as u64);
        // Stability first: a ticket holder acks the instant it wakes, and
        // its client's next read must not be gated on a stale flag.
        self.listener.epoch_stable(&buf.txns, end);
        let mut st = self.st.lock();
        st.resolved_seq = buf.seq;
        st.persisting = None;
        if end > st.durable {
            st.durable = end;
        }
        self.recycle(&mut st, buf);
        self.resolved.notify_all();
        self.work.notify_all();
    }

    /// A persist failed: fail the whole in-flight suffix (the epochs
    /// behind it may have read its early-released writes), roll the
    /// transactions back, then resolve tickets with one shared error.
    fn settle_failed(&self, buf: EpochBuf, err: Error) {
        self.metrics.failures.inc();
        let shared = Arc::new(err);
        let victims: Vec<EpochBuf> = {
            let mut st = self.st.lock();
            let mut v = vec![buf];
            while let Some(b) = st.sealed.pop_front() {
                v.push(b);
            }
            if !st.open.is_empty() {
                self.seal_open(&mut st);
                if let Some(b) = st.sealed.pop_front() {
                    v.push(b);
                }
            }
            v
        };
        let lo = victims.first().map(|b| b.seq).unwrap_or(0);
        let hi = victims.last().map(|b| b.seq).unwrap_or(lo);
        // Roll back outside the lock: the listener takes engine locks, and
        // gated readers keep waiting until the demotions land.
        for v in &victims {
            self.listener.epoch_failed(&v.txns, &shared);
        }
        let mut st = self.st.lock();
        st.failures.push(FailedRange { lo, hi, err: shared });
        if st.failures.len() > 64 {
            let evicted = st.failures.remove(0);
            st.failures_evicted_hi = st.failures_evicted_hi.max(evicted.hi);
        }
        st.resolved_seq = hi.max(st.resolved_seq);
        st.persisting = None;
        for v in victims {
            self.recycle(&mut st, v);
        }
        self.resolved.notify_all();
        self.work.notify_all();
    }

    fn recycle(&self, st: &mut PipeState, mut buf: EpochBuf) {
        if st.pool.len() < self.cfg.max_in_flight + 2 {
            buf.reset(0);
            st.pool.push(buf);
        }
    }
}

impl Drop for EpochPipeline {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Local-durability epoch sink: one [`crate::LogBuffer`] append + flush
/// per sealed epoch. Byte-compatible with the serial per-transaction path
/// (an epoch is the same record stream, batched), so recovery, log
/// shipping and RO replicas need no changes.
pub struct LocalEpochSink {
    log: Arc<crate::LogBuffer>,
}

impl LocalEpochSink {
    /// Wrap a log buffer (usually the engine's existing one).
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
    use std::sync::atomic::{AtomicU64, Ordering};

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

    struct Tracking {
        stable: Mutex<Vec<TrxId>>,
        failed: Mutex<Vec<TrxId>>,
    }

    impl Tracking {
        fn new() -> Arc<Tracking> {
            Arc::new(Tracking { stable: Mutex::new(Vec::new()), failed: Mutex::new(Vec::new()) })
        }
    }

    impl EpochListener for Tracking {
        fn epoch_stable(&self, txns: &[TrxId], _end: Lsn) {
            self.stable.lock().extend_from_slice(txns);
        }
        fn epoch_failed(&self, txns: &[TrxId], _err: &Error) {
            self.failed.lock().extend_from_slice(txns);
        }
    }

    #[test]
    fn epoch_stream_is_byte_identical_to_serial_appends() {
        // Serial path: append_sync per MTR.
        let serial_sink = VecSink::new();
        let serial = LogBuffer::new(serial_sink.clone());
        // Epoch path: same records through the pipeline.
        let epoch_sink = VecSink::new();
        let log = LogBuffer::new(epoch_sink.clone());
        let pipe =
            EpochPipeline::start(LocalEpochSink::new(log), Tracking::new(), EpochConfig::default());

        for n in 0..20u64 {
            let recs = vec![record(n as i64), commit_record(n)];
            serial.append_sync(&Mtr::new(recs.clone())).unwrap();
            pipe.submit_sync(Some(TrxId(n)), Duration::from_secs(5), |buf| {
                for r in &recs {
                    r.encode(buf);
                }
            })
            .unwrap();
        }
        pipe.barrier(Duration::from_secs(5)).unwrap();
        assert_eq!(serial_sink.contiguous(), epoch_sink.contiguous());
        assert_eq!(pipe.durable_lsn(), serial.flushed());
    }

    #[test]
    fn pipelined_tickets_resolve_in_order_and_amortize_flushes() {
        let sink = VecSink::new();
        let log = LogBuffer::new(sink.clone());
        let tracking = Tracking::new();
        let pipe = EpochPipeline::start(
            LocalEpochSink::new(log),
            Arc::clone(&tracking) as Arc<dyn EpochListener>,
            EpochConfig::default(),
        );
        let tickets: Vec<EpochTicket> = (0..100u64)
            .map(|n| {
                pipe.submit(Some(TrxId(n)), |buf| {
                    record(n as i64).encode(buf);
                    commit_record(n).encode(buf);
                })
                .unwrap()
            })
            .collect();
        for (i, w) in tickets.windows(2).enumerate() {
            assert!(w[0] <= w[1], "tickets must be monotone at {i}");
        }
        for t in &tickets {
            pipe.wait_ticket(*t, Duration::from_secs(5)).unwrap();
        }
        assert_eq!(tracking.stable.lock().len(), 100);
        assert!(tracking.failed.lock().is_empty());
        let epochs = pipe.metrics.epochs.get();
        assert!((1..=100).contains(&epochs), "pipelining batched {epochs} epochs");
        // Every record made it to the sink, contiguously.
        let records = RedoPayload::decode_all(Bytes::from(sink.contiguous())).unwrap();
        assert_eq!(records.len(), 200);
    }

    /// A sink that fails every write after the first `ok` epochs.
    struct FailingSink {
        ok: AtomicU64,
        inner: Arc<VecSink>,
    }

    impl EpochSink for FailingSink {
        fn persist(&self, bytes: &[u8], _cuts: &[usize]) -> Result<Lsn> {
            if self.ok.fetch_sub(1, Ordering::SeqCst) == 0 {
                self.ok.store(0, Ordering::SeqCst);
                return Err(Error::NoQuorum { acks: 1, needed: 2 });
            }
            let at = self.inner.end_lsn();
            self.inner.write(at, Bytes::copy_from_slice(bytes))?;
            Ok(at.advance(bytes.len() as u64))
        }
    }

    #[test]
    fn failed_epoch_fails_the_whole_suffix_and_pipeline_recovers() {
        let tracking = Tracking::new();
        let sink = Arc::new(FailingSink { ok: AtomicU64::new(1), inner: VecSink::new() });
        let pipe = EpochPipeline::start(
            Arc::clone(&sink) as Arc<dyn EpochSink>,
            Arc::clone(&tracking) as Arc<dyn EpochListener>,
            EpochConfig { tick: Duration::from_millis(1), ..EpochConfig::default() },
        );
        // First submission persists.
        pipe.submit_sync(Some(TrxId(1)), Duration::from_secs(5), |b| commit_record(1).encode(b))
            .unwrap();
        // The next epoch fails; its waiters all get the shared error.
        let t2 = pipe.submit(Some(TrxId(2)), |b| commit_record(2).encode(b)).unwrap();
        let t3 = pipe.submit(Some(TrxId(3)), |b| commit_record(3).encode(b)).unwrap();
        let e2 = pipe.wait_ticket(t2, Duration::from_secs(5)).unwrap_err();
        assert!(matches!(e2, Error::Shared(_)), "shared error, got {e2:?}");
        assert!(!e2.is_retryable(), "NoQuorum is not blind-retryable: {e2}");
        let e3 = pipe.wait_ticket(t3, Duration::from_secs(5)).unwrap_err();
        assert_eq!(e2, e3, "every waiter of the failed range shares one error");
        let failed = tracking.failed.lock().clone();
        assert!(failed.contains(&TrxId(2)) && failed.contains(&TrxId(3)), "{failed:?}");
        // The pipeline reset: new submissions persist again.
        sink.ok.store(5, Ordering::SeqCst);
        pipe.submit_sync(Some(TrxId(4)), Duration::from_secs(5), |b| commit_record(4).encode(b))
            .unwrap();
        assert!(tracking.stable.lock().contains(&TrxId(4)));
    }

    #[test]
    fn size_bound_seals_and_backpressure_holds_submitters() {
        let sink = VecSink::new();
        let log = LogBuffer::new(sink);
        let pipe = EpochPipeline::start(
            LocalEpochSink::new(log),
            Tracking::new(),
            EpochConfig {
                max_epoch_bytes: 256,
                max_in_flight: 2,
                tick: Duration::from_millis(1),
            },
        );
        for n in 0..200u64 {
            pipe.submit_sync(Some(TrxId(n)), Duration::from_secs(5), |b| {
                record(n as i64).encode(b);
                commit_record(n).encode(b);
            })
            .unwrap();
        }
        assert!(pipe.metrics.epochs.get() >= 2, "size bound must have sealed epochs");
    }

    #[test]
    fn barrier_covers_the_in_flight_epoch() {
        // The flusher pops an epoch off `sealed` before persisting it, so
        // a barrier issued mid-persist sees open and sealed both empty.
        // It must still wait for the in-flight epoch rather than return
        // the stale resolved horizon.
        struct GatedSink {
            release: Arc<(Mutex<bool>, Condvar)>,
            inner: Arc<VecSink>,
        }
        impl EpochSink for GatedSink {
            fn persist(&self, bytes: &[u8], _cuts: &[usize]) -> Result<Lsn> {
                let (lock, cv) = &*self.release;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                let at = self.inner.end_lsn();
                self.inner.write(at, Bytes::copy_from_slice(bytes))?;
                Ok(at.advance(bytes.len() as u64))
            }
        }
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let sink =
            Arc::new(GatedSink { release: Arc::clone(&release), inner: VecSink::new() });
        let pipe = EpochPipeline::start(sink, Tracking::new(), EpochConfig::default());
        let t = pipe.submit(Some(TrxId(1)), |b| commit_record(1).encode(b)).unwrap();
        // Give the flusher time to seal and enter the gated persist.
        std::thread::sleep(Duration::from_millis(20));
        let barrier = {
            let pipe = Arc::clone(&pipe);
            std::thread::spawn(move || pipe.barrier(Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!barrier.is_finished(), "barrier resolved while the epoch was in flight");
        {
            let (lock, cv) = &*release;
            *lock.lock() = true;
            cv.notify_all();
        }
        let lsn = barrier.join().unwrap().unwrap();
        assert!(lsn > Lsn::ZERO, "barrier must report the in-flight epoch's horizon");
        pipe.wait_ticket(t, Duration::from_secs(1)).unwrap();
    }

    #[test]
    fn evicted_failure_record_never_reports_durable() {
        // A waiter that wakes only after its epoch's failure record was
        // pruned from the bounded list must get an "outcome unknown"
        // error, not a silent Ok presenting a rolled-back commit as
        // durable.
        struct AlwaysFail;
        impl EpochSink for AlwaysFail {
            fn persist(&self, _bytes: &[u8], _cuts: &[usize]) -> Result<Lsn> {
                Err(Error::NoQuorum { acks: 1, needed: 2 })
            }
        }
        let pipe = EpochPipeline::start(
            Arc::new(AlwaysFail),
            Tracking::new(),
            EpochConfig { tick: Duration::from_millis(1), ..EpochConfig::default() },
        );
        let stale = pipe.submit(Some(TrxId(1)), |b| commit_record(1).encode(b)).unwrap();
        let first = pipe.wait_ticket(stale, Duration::from_secs(5)).unwrap_err();
        assert!(matches!(first, Error::Shared(_)), "got {first:?}");
        // 70 later failures evict the stale ticket's failure range.
        for n in 0..70u64 {
            let t = pipe
                .submit(Some(TrxId(n + 2)), |b| commit_record(n + 2).encode(b))
                .unwrap();
            assert!(pipe.wait_ticket(t, Duration::from_secs(5)).is_err());
        }
        let late = pipe.wait_ticket(stale, Duration::from_secs(5)).unwrap_err();
        assert!(
            format!("{late}").contains("outcome unknown"),
            "late waiter must not be told durable or failed-with-someone-else's-error: {late}"
        );
    }

    #[test]
    fn stop_drains_submitted_work() {
        let sink = VecSink::new();
        let log = LogBuffer::new(sink.clone());
        let pipe =
            EpochPipeline::start(LocalEpochSink::new(log), Tracking::new(), EpochConfig::default());
        let t = pipe.submit(Some(TrxId(1)), |b| commit_record(1).encode(b)).unwrap();
        pipe.stop();
        // The sealed work still resolved before the flusher exited.
        pipe.wait_ticket(t, Duration::from_secs(1)).unwrap();
        assert!(!sink.contiguous().is_empty());
        // Post-stop submissions fail typed.
        assert!(pipe.submit(None, |b| commit_record(2).encode(b)).is_err());
    }
}
