//! Crash-recovery scanning: durable-horizon discovery over a redo stream.
//!
//! A crashed node restarts with nothing but its durable log artifacts. The
//! tail of that log may be *torn*: the final write was in flight when power
//! cut, so an un-fsynced suffix is missing and the last piece that did land
//! may be corrupt. Recovery therefore never trusts the raw byte length —
//! it scans from the front, validates every unit, and truncates the log to
//! the longest valid prefix (InnoDB's scan-and-truncate).
//!
//! Two stream shapes exist in this system:
//!
//! * **Frame streams** (Paxos sinks): a sequence of `MLOG_PAXOS` frames,
//!   each with a 64-byte checksummed header. [`scan_frames`] validates
//!   magic, length and FNV-1a checksum per frame, so both truncation *and*
//!   corruption of the tail are detected.
//! * **Record streams** (local DN sinks): raw concatenated [`RedoPayload`]
//!   encodings with no checksums. [`scan_records`] can only detect
//!   *structural* damage (a record cut mid-field or an invalid tag); this
//!   matches the model — local sink writes are atomic per flush, so a torn
//!   tail is a truncation at a flush boundary or inside the final flush.
//!
//! Both scanners return the longest valid prefix and never panic on
//! arbitrary input.

use bytes::Bytes;

use polardbx_common::Lsn;

use crate::frame::{FrameError, PaxosFrame};
use crate::record::RedoPayload;

/// Result of scanning a frame stream ([`scan_frames`]).
#[derive(Debug, Clone)]
pub struct FrameScan {
    /// Frames of the longest valid prefix, in stream order.
    pub frames: Vec<PaxosFrame>,
    /// Byte length of that prefix (`valid_len <= input.len()`).
    pub valid_len: usize,
    /// Why the scan stopped before the end of the input, if it did. `None`
    /// means the stream ended exactly on a frame boundary (clean tail).
    pub torn: Option<FrameError>,
}

impl FrameScan {
    /// The durable horizon: one past the last LSN covered by a valid frame.
    /// `None` when no frame survived the scan.
    pub fn durable_lsn(&self) -> Option<Lsn> {
        self.frames.last().map(|f| f.lsn_end)
    }
}

/// Scan a byte stream of `MLOG_PAXOS` frames, recovering the longest valid
/// prefix. Stops at the first frame that fails to decode (truncated header,
/// bad magic, bad length, checksum mismatch) and reports the reason.
pub fn scan_frames(input: &[u8]) -> FrameScan {
    let mut buf = Bytes::copy_from_slice(input);
    let mut frames = Vec::new();
    let mut valid_len = 0usize;
    let torn = loop {
        if buf.is_empty() {
            break None;
        }
        match PaxosFrame::decode(&mut buf) {
            Ok(f) => {
                valid_len += f.wire_len();
                frames.push(f);
            }
            Err(e) => break Some(e),
        }
    };
    FrameScan { frames, valid_len, torn }
}

/// Result of scanning a raw record stream ([`scan_records`]).
#[derive(Debug, Clone)]
pub struct RecordScan {
    /// Records of the longest valid prefix, in stream order.
    pub records: Vec<RedoPayload>,
    /// Byte length of that prefix.
    pub valid_len: usize,
    /// True when the scan stopped before the end of the input — the tail
    /// beyond `valid_len` is torn and must be truncated away.
    pub torn: bool,
}

impl RecordScan {
    /// The durable horizon for a stream whose first byte sits at `base`.
    pub fn durable_lsn(&self, base: Lsn) -> Lsn {
        base.advance(self.valid_len as u64)
    }
}

/// Scan a raw concatenated [`RedoPayload`] stream, recovering the longest
/// valid prefix. A record cut mid-field or carrying an unknown tag ends the
/// scan; everything before it is kept.
pub fn scan_records(input: &[u8]) -> RecordScan {
    let all = Bytes::copy_from_slice(input);
    let mut buf = all.clone();
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    loop {
        if buf.is_empty() {
            return RecordScan { records, valid_len, torn: false };
        }
        let before = buf.len();
        match RedoPayload::decode(&mut buf) {
            Ok(r) => {
                valid_len += before - buf.len();
                records.push(r);
            }
            Err(_) => return RecordScan { records, valid_len, torn: true },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{LogBuffer, VecSink};
    use crate::frame::{FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
    use crate::mtr::Mtr;
    use bytes::BytesMut;
    use polardbx_common::{Key, NodeId, TableId, TrxId, Value};

    fn mtr(n: i64, payload_size: usize) -> Mtr {
        Mtr::single(RedoPayload::Insert {
            trx: TrxId(1),
            table: TableId(1),
            key: Key::encode(&[Value::Int(n)]),
            row: Bytes::from(vec![0xA5u8; payload_size]),
        })
    }

    fn frame_stream(frames: &[PaxosFrame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            out.extend_from_slice(&f.encode());
        }
        out
    }

    fn three_frames() -> Vec<PaxosFrame> {
        let f1 = PaxosFrame::from_mtrs(1, 0, Lsn(0), &[mtr(1, 100), mtr(2, 50)]);
        let f2 = PaxosFrame::from_mtrs(1, 1, f1.lsn_end, &[mtr(3, 80)]);
        let f3 = PaxosFrame::from_mtrs(1, 2, f2.lsn_end, &[mtr(4, 200), mtr(5, 10)]);
        vec![f1, f2, f3]
    }

    #[test]
    fn clean_stream_scans_fully() {
        let frames = three_frames();
        let wire = frame_stream(&frames);
        let scan = scan_frames(&wire);
        assert_eq!(scan.frames, frames);
        assert_eq!(scan.valid_len, wire.len());
        assert!(scan.torn.is_none());
        assert_eq!(scan.durable_lsn(), Some(frames[2].lsn_end));
    }

    #[test]
    fn empty_stream_is_clean_and_empty() {
        let scan = scan_frames(&[]);
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn.is_none());
        assert_eq!(scan.durable_lsn(), None);
    }

    #[test]
    fn zero_length_payload_frame_roundtrips_through_scan() {
        // A heartbeat-style frame with no MTRs: payload empty, lsn_end ==
        // lsn_start. The codec and scanner must both accept it.
        let empty = PaxosFrame::from_mtrs(2, 5, Lsn(777), &[]);
        assert_eq!(empty.payload.len(), 0);
        assert_eq!(empty.lsn_end, empty.lsn_start);
        let follow = PaxosFrame::from_mtrs(2, 6, Lsn(777), &[mtr(1, 40)]);
        let wire = frame_stream(&[empty.clone(), follow.clone()]);
        let scan = scan_frames(&wire);
        assert_eq!(scan.frames, vec![empty, follow.clone()]);
        assert!(scan.torn.is_none());
        assert_eq!(scan.durable_lsn(), Some(follow.lsn_end));
    }

    #[test]
    fn exactly_16kb_payload_frame_is_accepted() {
        // Build an MTR whose encoding is exactly MAX_FRAME_PAYLOAD bytes:
        // Insert overhead = tag(1) + trx(8) + table(8) + keylen(4) + key +
        // rowlen(4) + row.
        let key = Key::encode(&[Value::Int(1)]);
        let overhead = 1 + 8 + 8 + 4 + key.len() + 4;
        let m = Mtr::single(RedoPayload::Insert {
            trx: TrxId(1),
            table: TableId(1),
            key,
            row: Bytes::from(vec![0x5Au8; MAX_FRAME_PAYLOAD - overhead]),
        });
        assert_eq!(m.encoded_len(), MAX_FRAME_PAYLOAD);
        let f = PaxosFrame::from_mtrs(1, 0, Lsn(0), std::slice::from_ref(&m));
        assert_eq!(f.payload.len(), MAX_FRAME_PAYLOAD);
        let wire = frame_stream(std::slice::from_ref(&f));
        let scan = scan_frames(&wire);
        assert_eq!(scan.frames, vec![f]);
        assert_eq!(scan.valid_len, FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn over_16kb_length_field_rejected_not_panicked() {
        // Hand-craft a header claiming a payload over the cap; the scanner
        // must stop with BadLength, not attempt a huge read.
        use bytes::BufMut;
        let mut buf = BytesMut::new();
        buf.put_u32_le(0x4D_50_58_53);
        buf.put_u32_le((MAX_FRAME_PAYLOAD + 1) as u32);
        buf.resize(FRAME_HEADER_LEN, 0);
        buf.extend_from_slice(&[0u8; 32]);
        let scan = scan_frames(&buf);
        assert!(scan.frames.is_empty());
        assert!(matches!(scan.torn, Some(FrameError::BadLength(_))));
    }

    #[test]
    fn torn_tail_at_every_byte_offset_recovers_longest_prefix() {
        // Truncate the stream at every byte offset inside the final frame;
        // the scanner must always return exactly the first two frames and
        // never panic.
        let frames = three_frames();
        let wire = frame_stream(&frames);
        let boundary = frames[0].wire_len() + frames[1].wire_len();
        for cut in 0..frames[2].wire_len() {
            let prefix = &wire[..boundary + cut];
            let scan = scan_frames(prefix);
            assert_eq!(scan.frames.len(), 2, "cut at +{cut}");
            assert_eq!(scan.valid_len, boundary, "cut at +{cut}");
            assert_eq!(scan.torn.is_some(), cut > 0, "cut at +{cut}");
            assert_eq!(scan.durable_lsn(), Some(frames[1].lsn_end));
        }
    }

    #[test]
    fn corrupt_tail_frame_detected_by_checksum() {
        let frames = three_frames();
        let mut wire = frame_stream(&frames);
        let boundary = frames[0].wire_len() + frames[1].wire_len();
        // Flip a payload byte of the final frame.
        let n = wire.len();
        wire[n - 1] ^= 0xFF;
        let scan = scan_frames(&wire);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.valid_len, boundary);
        assert!(matches!(scan.torn, Some(FrameError::ChecksumMismatch { .. })));
    }

    #[test]
    fn corrupt_middle_frame_stops_scan_there() {
        let frames = three_frames();
        let mut wire = frame_stream(&frames);
        // Flip a byte in frame 2's payload.
        let off = frames[0].wire_len() + FRAME_HEADER_LEN + 5;
        wire[off] ^= 0x10;
        let scan = scan_frames(&wire);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, frames[0].wire_len());
        assert!(matches!(scan.torn, Some(FrameError::ChecksumMismatch { .. })));
    }

    #[test]
    fn bad_magic_in_tail_stops_scan() {
        let frames = three_frames();
        let mut wire = frame_stream(&frames);
        let off = frames[0].wire_len() + frames[1].wire_len();
        wire[off] ^= 0x1;
        let scan = scan_frames(&wire);
        assert_eq!(scan.frames.len(), 2);
        assert!(matches!(scan.torn, Some(FrameError::BadMagic(_))));
    }

    fn record_stream(recs: &[RedoPayload]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for r in recs {
            r.encode(&mut buf);
        }
        buf.to_vec()
    }

    fn sample_records() -> Vec<RedoPayload> {
        vec![
            RedoPayload::Insert {
                trx: TrxId(7),
                table: TableId(1),
                key: Key::encode(&[Value::Int(1)]),
                row: Bytes::from_static(b"balance=100"),
            },
            RedoPayload::TxnPrepare { trx: TrxId(7), prepare_ts: 41, peers: vec![NodeId(1), NodeId(2)] },
            RedoPayload::TxnCommit { trx: TrxId(7), commit_ts: 42 },
        ]
    }

    #[test]
    fn record_scan_clean_stream() {
        let recs = sample_records();
        let wire = record_stream(&recs);
        let scan = scan_records(&wire);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_len, wire.len());
        assert!(!scan.torn);
        assert_eq!(scan.durable_lsn(Lsn(100)), Lsn(100 + wire.len() as u64));
    }

    #[test]
    fn record_torn_tail_at_every_byte_offset() {
        let recs = sample_records();
        let wire = record_stream(&recs);
        let last_len = recs[2].encoded_len();
        let boundary = wire.len() - last_len;
        for cut in 0..last_len {
            let scan = scan_records(&wire[..boundary + cut]);
            assert_eq!(scan.records.len(), 2, "cut at +{cut}");
            assert_eq!(scan.valid_len, boundary, "cut at +{cut}");
            assert_eq!(scan.torn, cut > 0, "cut at +{cut}");
        }
    }

    #[test]
    fn record_bad_tag_stops_scan() {
        let recs = sample_records();
        let mut wire = record_stream(&recs);
        let boundary = wire.len() - recs[2].encoded_len();
        wire[boundary] = 0xEE;
        let scan = scan_records(&wire);
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn);
    }

    #[test]
    fn sink_crash_helpers_model_torn_tails() {
        // Write three MTRs through a LogBuffer in two flushes, then model a
        // crash that tore the second flush mid-record.
        let sink = VecSink::new();
        let buf = LogBuffer::new(sink.clone());
        buf.append(&mtr(1, 20));
        buf.flush().unwrap();
        buf.append(&mtr(2, 20));
        buf.append(&mtr(3, 20));
        buf.flush().unwrap();
        let full = sink.contiguous();
        let end = sink.end_lsn();
        assert_eq!(end.raw(), full.len() as u64);

        // Tear 5 bytes off the durable tail.
        sink.truncate_to(end.raw().checked_sub(5).map(Lsn).unwrap());
        let torn = sink.contiguous();
        assert_eq!(torn.len(), full.len() - 5);
        assert_eq!(&torn[..], &full[..full.len() - 5]);
        let scan = scan_records(&torn);
        assert_eq!(scan.records.len(), 2, "third record was torn");
        assert!(scan.torn);

        // Truncate the sink to the valid horizon: scan of what remains is
        // clean, and the tiling invariant still holds.
        sink.truncate_to(Lsn(scan.valid_len as u64));
        let clean = scan_records(&sink.contiguous());
        assert!(!clean.torn);
        assert_eq!(clean.records.len(), 2);
    }

    #[test]
    fn paxos_sink_frame_stream_scans_and_truncates() {
        // A Paxos sink keys each write by the frame's MTR-space lsn_start
        // while storing the (longer) wire encoding, so the byte-tiling
        // helpers don't apply; frame_stream/truncate_frames_to do.
        use crate::buffer::LogSink;
        let sink = VecSink::new();
        let frames = three_frames();
        for f in &frames {
            sink.write(f.lsn_start, f.encode()).unwrap();
        }
        // A retransmitted duplicate of the middle frame must not appear
        // twice in the assembled stream.
        sink.write(frames[1].lsn_start, frames[1].encode()).unwrap();
        let scan = scan_frames(&sink.frame_stream());
        assert_eq!(scan.frames, frames);
        assert!(scan.torn.is_none());

        sink.corrupt_tail(2);
        let scan = scan_frames(&sink.frame_stream());
        assert_eq!(scan.frames.len(), 2);
        assert!(matches!(scan.torn, Some(FrameError::ChecksumMismatch { .. })));

        // Scan-and-truncate drops the torn frame whole; what remains is
        // clean and ends at the durable horizon.
        sink.truncate_frames_to(scan.durable_lsn().unwrap());
        let clean = scan_frames(&sink.frame_stream());
        assert_eq!(clean.frames, frames[..2]);
        assert!(clean.torn.is_none());
        assert_eq!(clean.durable_lsn(), Some(frames[1].lsn_end));
    }

    #[test]
    fn sink_corrupt_tail_flips_a_byte() {
        let sink = VecSink::new();
        let f = PaxosFrame::from_mtrs(1, 0, Lsn(0), &[mtr(1, 64)]);
        use crate::buffer::LogSink;
        sink.write(Lsn(0), f.encode()).unwrap();
        sink.corrupt_tail(0);
        let scan = scan_frames(&sink.contiguous());
        assert!(scan.frames.is_empty());
        assert!(matches!(scan.torn, Some(FrameError::ChecksumMismatch { .. })));
    }
}
