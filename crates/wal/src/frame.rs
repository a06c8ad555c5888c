//! `MLOG_PAXOS` framing (§III "Pipelining and Batching").
//!
//! To carry Paxos metadata inside the redo stream, the paper adds a special
//! 64-byte record type: "This entry is 64 bytes and contains metadata like
//! epoch, index, LSN range of redo log entries, and checksum. … multiple
//! MTRs are batched in a single MLOG_PAXOS (maximum 16 KB) to enlarge the
//! payload." This module implements exactly that frame.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use polardbx_common::Lsn;

use crate::mtr::Mtr;

/// Fixed header length of an `MLOG_PAXOS` record: 64 bytes, as in the paper.
pub const FRAME_HEADER_LEN: usize = 64;
/// Maximum batched payload per frame: 16 KB, as in the paper.
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024;

const MAGIC: u32 = 0x4D_50_58_53; // "MPXS"

/// Frame decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than a header.
    Truncated,
    /// Bad magic number.
    BadMagic(u32),
    /// Checksum mismatch — payload corrupted in flight.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// Payload length in header exceeds buffer or the 16 KB cap.
    BadLength(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#x}"),
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: expected {expected:#x}, got {actual:#x}")
            }
            FrameError::BadLength(l) => write!(f, "bad payload length {l}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One `MLOG_PAXOS` batch: Paxos metadata plus batched MTR payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaxosFrame {
    /// Leader's election epoch (term).
    pub epoch: u64,
    /// Position of this frame in the leader's log of frames.
    pub index: u64,
    /// First LSN covered by the batched payload.
    pub lsn_start: Lsn,
    /// One past the last LSN covered.
    pub lsn_end: Lsn,
    /// The batched MTR bytes (concatenated encodings).
    pub payload: Bytes,
}

impl PaxosFrame {
    /// Frame a batch of MTRs starting at `lsn_start` under `epoch`/`index`.
    ///
    /// Panics if the combined payload exceeds [`MAX_FRAME_PAYLOAD`]; the
    /// batcher ([`FrameBatcher`]) never lets that happen.
    pub fn from_mtrs(epoch: u64, index: u64, lsn_start: Lsn, mtrs: &[Mtr]) -> PaxosFrame {
        let mut payload = BytesMut::new();
        for m in mtrs {
            payload.extend_from_slice(&m.encode());
        }
        assert!(payload.len() <= MAX_FRAME_PAYLOAD, "frame payload over 16KB");
        let lsn_end = lsn_start.advance(payload.len() as u64);
        PaxosFrame { epoch, index, lsn_start, lsn_end, payload: payload.freeze() }
    }

    /// Serialize: 64-byte header + payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(self.payload.len() as u32);
        buf.put_u64_le(self.epoch);
        buf.put_u64_le(self.index);
        buf.put_u64_le(self.lsn_start.raw());
        buf.put_u64_le(self.lsn_end.raw());
        buf.put_u64_le(checksum(&self.payload));
        // Reserved padding out to 64 bytes (mirrors the paper's fixed size).
        buf.resize(FRAME_HEADER_LEN, 0);
        buf.extend_from_slice(&self.payload);
        buf.freeze()
    }

    /// Parse one frame from the front of `buf`, consuming it.
    pub fn decode(buf: &mut Bytes) -> Result<PaxosFrame, FrameError> {
        if buf.len() < FRAME_HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let mut header = buf.slice(0..FRAME_HEADER_LEN);
        let magic = header.get_u32_le();
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let payload_len = header.get_u32_le() as usize;
        if payload_len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::BadLength(payload_len));
        }
        let epoch = header.get_u64_le();
        let index = header.get_u64_le();
        let lsn_start = Lsn(header.get_u64_le());
        let lsn_end = Lsn(header.get_u64_le());
        let expected = header.get_u64_le();
        if buf.len() < FRAME_HEADER_LEN + payload_len {
            return Err(FrameError::Truncated);
        }
        buf.advance(FRAME_HEADER_LEN);
        let payload = buf.copy_to_bytes(payload_len);
        let actual = checksum(&payload);
        if actual != expected {
            return Err(FrameError::ChecksumMismatch { expected, actual });
        }
        Ok(PaxosFrame { epoch, index, lsn_start, lsn_end, payload })
    }

    /// Total wire size.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }
}

/// FNV-1a 64-bit checksum over the payload.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Accumulates MTRs into frames, cutting a new frame when the 16 KB payload
/// cap would be exceeded. This is the leader-side batching that "greatly
/// improves the log replication throughput" (§III).
#[derive(Debug)]
pub struct FrameBatcher {
    epoch: u64,
    next_index: u64,
    next_lsn: Lsn,
    pending: Vec<Mtr>,
    pending_bytes: usize,
}

impl FrameBatcher {
    /// Start batching at `lsn` under `epoch`, with frame indexes from
    /// `first_index`.
    pub fn new(epoch: u64, first_index: u64, lsn: Lsn) -> FrameBatcher {
        FrameBatcher {
            epoch,
            next_index: first_index,
            next_lsn: lsn,
            pending: Vec::new(),
            pending_bytes: 0,
        }
    }

    /// Add an MTR; returns a completed frame if the cap forced a cut.
    /// Oversized single MTRs (> 16 KB) get a dedicated frame each... they
    /// cannot occur from our record types but are handled by flushing first.
    pub fn push(&mut self, mtr: Mtr) -> Option<PaxosFrame> {
        let len = mtr.encoded_len();
        let mut cut = None;
        if self.pending_bytes + len > MAX_FRAME_PAYLOAD && !self.pending.is_empty() {
            cut = self.flush();
        }
        self.pending.push(mtr);
        self.pending_bytes += len;
        cut
    }

    /// Emit the pending batch as a frame (None if empty).
    pub fn flush(&mut self) -> Option<PaxosFrame> {
        if self.pending.is_empty() {
            return None;
        }
        let frame =
            PaxosFrame::from_mtrs(self.epoch, self.next_index, self.next_lsn, &self.pending);
        self.next_index += 1;
        self.next_lsn = frame.lsn_end;
        self.pending.clear();
        self.pending_bytes = 0;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RedoPayload;
    use polardbx_common::{Key, TableId, TrxId, Value};

    fn mtr(n: i64, payload_size: usize) -> Mtr {
        Mtr::single(RedoPayload::Insert {
            trx: TrxId(1),
            table: TableId(1),
            key: Key::encode(&[Value::Int(n)]),
            row: Bytes::from(vec![0u8; payload_size]),
        })
    }

    #[test]
    fn frame_roundtrip() {
        let f = PaxosFrame::from_mtrs(3, 7, Lsn(1000), &[mtr(1, 100), mtr(2, 50)]);
        let mut wire = f.encode();
        assert_eq!(wire.len(), f.wire_len());
        let back = PaxosFrame::decode(&mut wire).unwrap();
        assert_eq!(back, f);
        assert!(wire.is_empty());
        // LSN range covers the payload bytes.
        assert_eq!(back.lsn_end.raw() - back.lsn_start.raw(), back.payload.len() as u64);
    }

    #[test]
    fn corrupted_payload_detected() {
        let f = PaxosFrame::from_mtrs(1, 1, Lsn(0), &[mtr(1, 64)]);
        let wire = f.encode();
        let mut corrupted = wire.to_vec();
        let n = corrupted.len();
        corrupted[n - 1] ^= 0xFF;
        let mut b = Bytes::from(corrupted);
        assert!(matches!(
            PaxosFrame::decode(&mut b),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut wire = PaxosFrame::from_mtrs(1, 1, Lsn(0), &[mtr(1, 8)]).encode().to_vec();
        wire[0] ^= 0x1;
        let mut b = Bytes::from(wire);
        assert!(matches!(PaxosFrame::decode(&mut b), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn truncated_detected() {
        let wire = PaxosFrame::from_mtrs(1, 1, Lsn(0), &[mtr(1, 128)]).encode();
        let mut short = wire.slice(0..FRAME_HEADER_LEN + 3);
        assert_eq!(PaxosFrame::decode(&mut short), Err(FrameError::Truncated));
        let mut tiny = wire.slice(0..10);
        assert_eq!(PaxosFrame::decode(&mut tiny), Err(FrameError::Truncated));
    }

    #[test]
    fn batcher_cuts_at_16kb() {
        let mut b = FrameBatcher::new(1, 0, Lsn(0));
        let mut frames = Vec::new();
        // ~1 KB MTRs: 16 of them fit (just under with headers), the 17th cuts.
        for i in 0..40 {
            if let Some(f) = b.push(mtr(i, 1000)) {
                frames.push(f);
            }
        }
        if let Some(f) = b.flush() {
            frames.push(f);
        }
        assert!(frames.len() >= 2, "cap must force multiple frames");
        for f in &frames {
            assert!(f.payload.len() <= MAX_FRAME_PAYLOAD);
        }
        // Frames tile the LSN space contiguously with ascending indexes.
        for w in frames.windows(2) {
            assert_eq!(w[0].lsn_end, w[1].lsn_start);
            assert_eq!(w[0].index + 1, w[1].index);
        }
        // Everything decodes back to the original records.
        let total_mtr_bytes: usize = (0..40).map(|i| mtr(i, 1000).encoded_len()).sum();
        let framed_bytes: usize = frames.iter().map(|f| f.payload.len()).sum();
        assert_eq!(total_mtr_bytes, framed_bytes);
    }

    #[test]
    fn batcher_flush_empty_is_none() {
        let mut b = FrameBatcher::new(1, 0, Lsn(0));
        assert!(b.flush().is_none());
    }

    #[test]
    fn batching_amortizes_header_overhead() {
        // The design claim behind MLOG_PAXOS batching: one 64-byte header
        // per 16 KB instead of per few-hundred-byte MTR.
        let mtrs: Vec<Mtr> = (0..64).map(|i| mtr(i, 200)).collect();
        let mut batched = FrameBatcher::new(1, 0, Lsn(0));
        let mut batched_wire = 0usize;
        for m in mtrs.iter().cloned() {
            if let Some(f) = batched.push(m) {
                batched_wire += f.wire_len();
            }
        }
        if let Some(f) = batched.flush() {
            batched_wire += f.wire_len();
        }
        let per_mtr_wire: usize = mtrs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                PaxosFrame::from_mtrs(1, i as u64, Lsn(0), std::slice::from_ref(m)).wire_len()
            })
            .sum();
        assert!(
            batched_wire < per_mtr_wire,
            "batched {batched_wire} should beat per-MTR {per_mtr_wire}"
        );
    }
}
