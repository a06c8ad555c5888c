//! In-memory log buffer with group flush to a sink.
//!
//! The RW node appends MTRs here; a flush pushes everything unflushed to the
//! durable sink (PolarFS in the full system) and returns the durable LSN.
//! Appends are serialized by a mutex — in InnoDB terms this is the log mutex
//! protecting `log_sys` — while flushes batch all pending bytes (group
//! commit).

use parking_lot::Mutex;
use std::sync::Arc;

use bytes::Bytes;
use polardbx_common::{Lsn, Result};

use crate::mtr::Mtr;

/// Destination for flushed log bytes. PolarFS volumes implement this; tests
/// use [`VecSink`].
pub trait LogSink: Send + Sync {
    /// Persist `bytes`, which begin at `at`. Must be atomic per call.
    fn write(&self, at: Lsn, bytes: Bytes) -> Result<()>;

    /// Discard every durable write starting at or beyond `keep` (whole
    /// writes — frame-keyed sinks drop whole frames). Replicas call this
    /// when abandoning a log suffix (deposed-leader cleanup, a leader
    /// fencing an un-acked epoch, a follower truncating a conflict tail)
    /// so crash recovery's scan cannot resurrect abandoned entries. The
    /// default is a no-op for sinks that never host a replica log.
    fn truncate(&self, _keep: Lsn) {}
}

/// An in-memory sink capturing everything, for tests and RO-replica feeds.
///
/// Its writes are kept sorted by offset, a write at an offset already held
/// going after the ones there: a Paxos sink keys each write by its frame's
/// offset and may re-send a frame, and concurrent flushes may land out of
/// order. A write in order is an O(1) append.
#[derive(Debug, Default)]
pub struct VecSink {
    inner: Mutex<Vec<(Lsn, Bytes)>>,
}

impl VecSink {
    /// Empty sink.
    pub fn new() -> Arc<VecSink> {
        Arc::new(VecSink::default())
    }

    /// Snapshot of all writes, in offset order.
    pub fn writes(&self) -> Vec<(Lsn, Bytes)> {
        self.inner.lock().clone()
    }

    /// Copy of the byte range `[from, to)`, assembled from whichever writes
    /// overlap it; of writes at one offset, the last. A binary search finds
    /// the first of them, so the cost follows the range, not the number of
    /// writes the log has taken: shipping a long-lived log's tail copies
    /// the tail.
    ///
    /// Panics if the range is not fully covered by sink writes.
    pub fn range(&self, from: Lsn, to: Lsn) -> Vec<u8> {
        assert!(to >= from, "range end before start");
        let writes = self.inner.lock();
        let mut out = Vec::with_capacity((to.raw() - from.raw()) as usize);
        // Writes do not overlap, so only the last one starting at or before
        // `from` can hold it.
        let first = writes.partition_point(|(at, _)| *at <= from).saturating_sub(1);
        for (at, bytes) in last_at_each_offset(&writes[first..]) {
            let next = from.raw() + out.len() as u64;
            let (ws, we) = (at.raw(), at.raw() + bytes.len() as u64);
            if ws > next || next >= to.raw() {
                break;
            }
            let end = we.min(to.raw());
            if end > next {
                out.extend_from_slice(&bytes[(next - ws) as usize..(end - ws) as usize]);
            }
        }
        assert_eq!(
            out.len() as u64,
            to.raw() - from.raw(),
            "sink range [{from:?}, {to:?}) not fully covered"
        );
        out
    }

    /// One past the highest byte this sink holds ([`Lsn::ZERO`] if empty).
    pub fn end_lsn(&self) -> Lsn {
        self.inner
            .lock()
            .iter()
            .map(|(at, bytes)| at.advance(bytes.len() as u64))
            .max()
            .unwrap_or(Lsn::ZERO)
    }

    /// Crash-model truncation: drop every byte at or beyond `keep`. A write
    /// straddling the cut keeps only its prefix, so the tiling invariant
    /// checked by [`VecSink::contiguous`] survives. Recovery uses this both
    /// to simulate an un-fsynced suffix being lost and to discard a torn
    /// tail after scan-and-truncate.
    pub fn truncate_to(&self, keep: Lsn) {
        let mut inner = self.inner.lock();
        inner.retain(|(at, _)| *at < keep);
        for (at, bytes) in inner.iter_mut() {
            let end = at.advance(bytes.len() as u64);
            if end > keep {
                *bytes = bytes.slice(0..(keep.raw() - at.raw()) as usize);
            }
        }
    }

    /// Crash-model corruption: XOR-flip the byte `back` positions from the
    /// sink's end (`back = 0` is the final byte). Models a torn final
    /// sector whose contents landed scrambled; a checksummed frame stream
    /// detects this, a raw record stream may only see structural damage.
    /// No-op on an empty sink; saturates to the last write's first byte.
    pub fn corrupt_tail(&self, back: usize) {
        let mut inner = self.inner.lock();
        let Some((_, bytes)) =
            inner.iter_mut().max_by_key(|(at, bytes)| at.advance(bytes.len() as u64))
        else {
            return;
        };
        if bytes.is_empty() {
            return;
        }
        let mut v = bytes.to_vec();
        let idx = v.len().saturating_sub(1 + back);
        v[idx] ^= 0xFF;
        *bytes = Bytes::from(v);
    }

    /// Concatenated frame-stream content. Paxos sinks key each write by
    /// the frame's MTR-space `lsn_start` while storing the wire encoding
    /// (64-byte header + payload), so writes are ordered and
    /// non-overlapping in LSN space but do *not* tile byte-for-byte the
    /// way a record sink does. This de-duplicates retransmitted frames
    /// (same offset written twice keeps the last) and concatenates — the
    /// shape [`crate::scan_frames`] expects.
    pub fn frame_stream(&self) -> Vec<u8> {
        let writes = self.inner.lock();
        let mut out = Vec::new();
        for (_, bytes) in last_at_each_offset(&writes) {
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Frame-aware truncation: drop every write at or beyond `keep`
    /// (an MTR-space LSN). Frames are written whole — one write per
    /// frame — so unlike [`VecSink::truncate_to`] no write is ever
    /// split; the torn tail identified by [`crate::scan_frames`] is
    /// discarded as complete frames.
    pub fn truncate_frames_to(&self, keep: Lsn) {
        self.inner.lock().retain(|(at, _)| *at < keep);
    }

    /// Concatenated contiguous content, verifying offsets tile correctly.
    pub fn contiguous(&self) -> Vec<u8> {
        let writes = self.inner.lock();
        let mut out = Vec::new();
        let mut next = writes.first().map(|(l, _)| *l).unwrap_or(Lsn::ZERO);
        for (at, bytes) in writes.iter() {
            assert_eq!(*at, next, "sink writes must tile the LSN space");
            out.extend_from_slice(bytes);
            next = at.advance(bytes.len() as u64);
        }
        out
    }
}

/// `writes` (sorted by offset) with each offset once: of writes at one
/// offset, the last — a re-sent frame replaces the one sent before it.
fn last_at_each_offset(writes: &[(Lsn, Bytes)]) -> impl Iterator<Item = &(Lsn, Bytes)> {
    writes.iter().enumerate().filter_map(|(i, w)| match writes.get(i + 1) {
        Some((later, _)) if *later == w.0 => None,
        _ => Some(w),
    })
}

impl LogSink for VecSink {
    fn write(&self, at: Lsn, bytes: Bytes) -> Result<()> {
        let mut writes = self.inner.lock();
        if writes.last().is_some_and(|(last, _)| *last > at) {
            let after_equal = writes.partition_point(|(held, _)| *held <= at);
            writes.insert(after_equal, (at, bytes));
        } else {
            writes.push((at, bytes));
        }
        Ok(())
    }

    fn truncate(&self, keep: Lsn) {
        self.truncate_frames_to(keep)
    }
}

struct BufferState {
    /// Next LSN to assign.
    head: Lsn,
    /// All bytes appended but not yet flushed.
    pending: Vec<u8>,
    /// LSN of the first pending byte.
    pending_start: Lsn,
    /// Highest LSN known durable in the sink.
    flushed: Lsn,
}

/// The log buffer. `append` assigns LSNs; `flush` makes them durable.
pub struct LogBuffer {
    state: Mutex<BufferState>,
    sink: Arc<dyn LogSink>,
}

impl LogBuffer {
    /// A buffer writing to `sink`, starting at LSN 0.
    pub fn new(sink: Arc<dyn LogSink>) -> Arc<LogBuffer> {
        Self::starting_at(sink, Lsn::ZERO)
    }

    /// A buffer starting at an arbitrary LSN (recovery).
    pub fn starting_at(sink: Arc<dyn LogSink>, at: Lsn) -> Arc<LogBuffer> {
        Arc::new(LogBuffer {
            state: Mutex::new(BufferState {
                head: at,
                pending: Vec::new(),
                pending_start: at,
                flushed: at,
            }),
            sink,
        })
    }

    /// Append an MTR; returns its `[start, end)` LSN range. The bytes are
    /// buffered, not yet durable.
    pub fn append(&self, mtr: &Mtr) -> (Lsn, Lsn) {
        let encoded = mtr.encode();
        let mut st = self.state.lock();
        let start = st.head;
        let end = start.advance(encoded.len() as u64);
        st.pending.extend_from_slice(&encoded);
        st.head = end;
        (start, end)
    }

    /// Append already-encoded record bytes contiguously; returns the
    /// `[start, end)` range. The epoch pipeline uses this to hand a whole
    /// sealed epoch (records pre-encoded into its arena buffer) to the
    /// log in one memcpy, with no per-record re-encoding.
    pub fn append_raw(&self, bytes: &[u8]) -> (Lsn, Lsn) {
        let mut st = self.state.lock();
        let start = st.head;
        let end = start.advance(bytes.len() as u64);
        st.pending.extend_from_slice(bytes);
        st.head = end;
        (start, end)
    }

    /// Flush all pending bytes to the sink; returns the new durable LSN.
    ///
    /// The sink write happens under the state lock: concurrent flushers
    /// must not let a later chunk
    /// land — and advance `flushed` — while an earlier chunk is still in
    /// flight, or readers of `flushed` would observe a hole in the sink.
    /// Serializing flushes is group commit's ordering anyway.
    pub fn flush(&self) -> Result<Lsn> {
        let mut st = self.state.lock();
        if st.pending.is_empty() {
            return Ok(st.flushed);
        }
        let at = st.pending_start;
        let bytes = Bytes::from(std::mem::take(&mut st.pending));
        st.pending_start = at.advance(bytes.len() as u64);
        // lint:allow(guard_blocking, "hole-free invariant: sink write stays under state so flushed never runs ahead of the sink")
        self.sink.write(at, bytes.clone())?;
        let end = at.advance(bytes.len() as u64);
        if end > st.flushed {
            st.flushed = end;
        }
        Ok(st.flushed)
    }

    /// Append then immediately flush (write-through), returning the MTR's
    /// range: the epoch pipeline's serial reference.
    #[cfg(test)]
    pub fn append_sync(&self, mtr: &Mtr) -> Result<(Lsn, Lsn)> {
        let range = self.append(mtr);
        self.flush()?;
        Ok(range)
    }

    /// Next LSN to be assigned.
    #[cfg(test)]
    pub fn head(&self) -> Lsn {
        self.state.lock().head
    }

    /// Highest durable LSN.
    pub fn flushed(&self) -> Lsn {
        self.state.lock().flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RedoPayload;
    use polardbx_common::{Key, TableId, TrxId, Value};

    fn mtr(n: i64) -> Mtr {
        Mtr::single(RedoPayload::Insert {
            trx: TrxId(1),
            table: TableId(1),
            key: Key::encode(&[Value::Int(n)]),
            row: Bytes::from(vec![7u8; 16]),
        })
    }

    #[test]
    fn append_assigns_contiguous_ranges() {
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink);
        let (s1, e1) = buf.append(&mtr(1));
        let (s2, e2) = buf.append(&mtr(2));
        assert_eq!(s1, Lsn::ZERO);
        assert_eq!(e1, s2);
        assert!(e2 > e1);
        assert_eq!(buf.head(), e2);
    }

    #[test]
    fn flush_makes_bytes_durable_and_idempotent() {
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink.clone());
        buf.append(&mtr(1));
        buf.append(&mtr(2));
        let d = buf.flush().unwrap();
        assert_eq!(d, buf.head());
        assert_eq!(buf.flushed(), d);
        // No new appends: second flush is a no-op.
        let d2 = buf.flush().unwrap();
        assert_eq!(d2, d);
        assert_eq!(sink.writes().len(), 1, "group flush batches both MTRs");
        // Content round-trips.
        let content = sink.contiguous();
        let records = RedoPayload::decode_all(Bytes::from(content)).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn concurrent_appends_never_overlap() {
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink);
        let mut handles = vec![];
        for t in 0..4 {
            let buf = Arc::clone(&buf);
            handles.push(std::thread::spawn(move || {
                (0..200).map(|i| buf.append(&mtr(t * 1000 + i))).collect::<Vec<_>>()
            }));
        }
        let mut ranges: Vec<(Lsn, Lsn)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "ranges overlap: {w:?}");
        }
        // Ranges tile with no holes either.
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn range_slices_across_write_boundaries() {
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink.clone());
        for i in 0..5 {
            buf.append_sync(&mtr(i)).unwrap();
        }
        let whole = sink.contiguous();
        let head = buf.head().raw();
        // Ranges aligned and unaligned to write boundaries all match the
        // full concatenation.
        for (from, to) in [(0, head), (0, 10), (3, 40), (head - 7, head)] {
            assert_eq!(
                sink.range(Lsn(from), Lsn(to)),
                whole[from as usize..to as usize],
                "range [{from}, {to})"
            );
        }
        assert!(sink.range(Lsn(head), Lsn(head)).is_empty());
    }

    /// Every `[from, to)` of `sink`'s first `end` bytes, starts inside a
    /// write and on a write boundary alike, equals that slice of `whole`.
    fn assert_ranges_match(sink: &VecSink, whole: &[u8], end: u64) {
        for from in 0..=end {
            for to in from..=end {
                assert_eq!(
                    sink.range(Lsn(from), Lsn(to)),
                    whole[from as usize..to as usize],
                    "range [{from}, {to})"
                );
            }
        }
    }

    #[test]
    fn range_reads_out_of_order_resent_and_truncated_writes() {
        // Writes of 1..=7 bytes tiling [0, 60), each byte its own offset.
        let mut cuts = vec![0u64];
        while *cuts.last().unwrap() < 60 {
            let at = *cuts.last().unwrap();
            cuts.push((at + 1 + at % 7).min(60));
        }
        let write = |sink: &VecSink, w: usize| {
            let (at, end) = (cuts[w], cuts[w + 1]);
            let bytes: Vec<u8> = (at..end).map(|b| b as u8).collect();
            sink.write(Lsn(at), Bytes::from(bytes)).unwrap();
        };
        let writes = cuts.len() - 1;
        // Out of offset order: odd writes first, then even ones backwards.
        let sink = VecSink::new();
        let odd = (0..writes).filter(|w| w % 2 == 1);
        for w in odd.chain((0..writes).rev().filter(|w| w % 2 == 0)) {
            write(&sink, w);
        }
        let whole = sink.contiguous();
        assert_eq!(whole, (0..60u8).collect::<Vec<_>>());
        assert_ranges_match(&sink, &whole, 60);
        // After a cut inside a write, the prefix still reads.
        let keep = cuts[writes / 2] + 1;
        sink.truncate_to(Lsn(keep));
        let cut = sink.contiguous();
        assert_eq!(cut, whole[..keep as usize]);
        assert_ranges_match(&sink, &cut, keep);
        // Writes re-sent at offsets already held, in order and not.
        for w in [writes / 2 - 1, 0, writes / 4, writes / 4] {
            write(&sink, w);
        }
        assert_eq!(sink.frame_stream(), cut, "each offset read once");
        assert_ranges_match(&sink, &cut, keep);
    }

    #[test]
    #[should_panic(expected = "not fully covered")]
    fn range_panics_past_written_content() {
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink.clone());
        buf.append_sync(&mtr(1)).unwrap();
        let head = buf.head();
        sink.range(head, head.advance(8));
    }

    #[test]
    fn concurrent_flushes_never_expose_sink_holes() {
        // Committers call `append_sync` from many threads while a reader
        // (a ship on an AP reader's thread) snapshots `flushed()` and
        // slices the contiguous sink up to it. If a later flush could land before an earlier one
        // (the old outside-the-lock sink write), the reader would observe
        // `flushed` past a hole and `contiguous` would fail its tiling
        // assert.
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink.clone());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let (sink, buf, stop) = (sink.clone(), Arc::clone(&buf), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let flushed = buf.flushed().raw() as usize;
                    let content = sink.contiguous();
                    assert!(content.len() >= flushed, "flushed past sink contents");
                }
            })
        };
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..300 {
                        buf.append_sync(&mtr(t * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(buf.flushed(), buf.head());
        assert_eq!(sink.contiguous().len() as u64, buf.head().raw());
    }

    #[test]
    fn starting_at_resumes_offsets() {
        let sink = VecSink::new();
        let buf = LogBuffer::starting_at(sink, Lsn(5000));
        let (s, _) = buf.append(&mtr(1));
        assert_eq!(s, Lsn(5000));
        assert_eq!(buf.flushed(), Lsn(5000));
    }

    #[test]
    fn append_sync_is_durable() {
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink.clone());
        let (_, e) = buf.append_sync(&mtr(9)).unwrap();
        assert_eq!(buf.flushed(), e);
        assert_eq!(sink.writes().len(), 1);
    }
}
