//! Logical redo record payloads and their binary codec.
//!
//! Records are *logical* (row-level) rather than InnoDB's physical page
//! deltas: the reproduction's storage engine is versioned-row based, so
//! row-level redo carries exactly the information RO replicas and Paxos
//! followers need to replay. The codec is hand-rolled little-endian with
//! length prefixes — no external serialization dependency.

use bytes::{Buf, BufMut, Bytes};

use polardbx_common::{Error, Key, Lsn, NodeId, Result, TableId, TrxId};

/// A single redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoPayload {
    /// Insert `row` (pre-encoded) at `key` in `table` by `trx`.
    Insert { trx: TrxId, table: TableId, key: Key, row: Bytes },
    /// Replace the row at `key` with `row`.
    Update { trx: TrxId, table: TableId, key: Key, row: Bytes },
    /// Delete the row at `key`.
    Delete { trx: TrxId, table: TableId, key: Key },
    /// Transaction entered the PREPARED state (2PC first phase). `peers`
    /// are the DNs its vote round went to, this one included: whom a
    /// recovered participant asks for the outcome.
    TxnPrepare { trx: TrxId, prepare_ts: u64, peers: Vec<NodeId> },
    /// Transaction committed with `commit_ts`.
    TxnCommit { trx: TrxId, commit_ts: u64 },
    /// Transaction rolled back.
    TxnAbort { trx: TrxId },
    /// Checkpoint: pages dirtied before `upto` have been flushed.
    Checkpoint { upto: Lsn },
}

const TAG_INSERT: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_PREPARE: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_ABORT: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;

impl RedoPayload {
    /// Serialize into `out`. Layout: `tag:u8` then tag-specific fields,
    /// byte strings length-prefixed with `u32`. Generic over the output
    /// cursor so the epoch pipeline can encode straight into a reused
    /// `Vec<u8>` arena without an intermediate `BytesMut` allocation.
    pub fn encode<B: BufMut>(&self, out: &mut B) {
        match self {
            RedoPayload::Insert { trx, table, key, row } => {
                out.put_u8(TAG_INSERT);
                out.put_u64_le(trx.raw());
                out.put_u64_le(table.raw());
                put_bytes(out, key.as_bytes());
                put_bytes(out, row);
            }
            RedoPayload::Update { trx, table, key, row } => {
                out.put_u8(TAG_UPDATE);
                out.put_u64_le(trx.raw());
                out.put_u64_le(table.raw());
                put_bytes(out, key.as_bytes());
                put_bytes(out, row);
            }
            RedoPayload::Delete { trx, table, key } => {
                out.put_u8(TAG_DELETE);
                out.put_u64_le(trx.raw());
                out.put_u64_le(table.raw());
                put_bytes(out, key.as_bytes());
            }
            RedoPayload::TxnPrepare { trx, prepare_ts, peers } => {
                out.put_u8(TAG_PREPARE);
                out.put_u64_le(trx.raw());
                out.put_u64_le(*prepare_ts);
                out.put_u32_le(peers.len() as u32);
                peers.iter().for_each(|p| out.put_u64_le(p.raw()));
            }
            RedoPayload::TxnCommit { trx, commit_ts } => {
                out.put_u8(TAG_COMMIT);
                out.put_u64_le(trx.raw());
                out.put_u64_le(*commit_ts);
            }
            RedoPayload::TxnAbort { trx } => {
                out.put_u8(TAG_ABORT);
                out.put_u64_le(trx.raw());
            }
            RedoPayload::Checkpoint { upto } => {
                out.put_u8(TAG_CHECKPOINT);
                out.put_u64_le(upto.raw());
            }
        }
    }

    /// Serialized length in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            RedoPayload::Insert { key, row, .. } | RedoPayload::Update { key, row, .. } => {
                16 + 4 + key.len() + 4 + row.len()
            }
            RedoPayload::Delete { key, .. } => 16 + 4 + key.len(),
            RedoPayload::TxnPrepare { peers, .. } => 16 + 4 + 8 * peers.len(),
            RedoPayload::TxnCommit { .. } => 16,
            RedoPayload::TxnAbort { .. } | RedoPayload::Checkpoint { .. } => 8,
        }
    }

    /// Decode one record from the front of `buf`, consuming it.
    pub fn decode(buf: &mut Bytes) -> Result<RedoPayload> {
        if buf.is_empty() {
            return Err(Error::storage("empty redo buffer"));
        }
        let tag = buf.get_u8();
        let rec = match tag {
            TAG_INSERT | TAG_UPDATE => {
                let trx = TrxId(get_u64(buf)?);
                let table = TableId(get_u64(buf)?);
                let key = Key(get_bytes(buf)?.to_vec());
                let row = get_bytes(buf)?;
                if tag == TAG_INSERT {
                    RedoPayload::Insert { trx, table, key, row }
                } else {
                    RedoPayload::Update { trx, table, key, row }
                }
            }
            TAG_DELETE => {
                let trx = TrxId(get_u64(buf)?);
                let table = TableId(get_u64(buf)?);
                let key = Key(get_bytes(buf)?.to_vec());
                RedoPayload::Delete { trx, table, key }
            }
            TAG_PREPARE => {
                let (trx, prepare_ts) = (TrxId(get_u64(buf)?), get_u64(buf)?);
                let n = get_len(buf, 8)?;
                let peers = (0..n).map(|_| NodeId(buf.get_u64_le())).collect();
                RedoPayload::TxnPrepare { trx, prepare_ts, peers }
            }
            TAG_COMMIT => RedoPayload::TxnCommit {
                trx: TrxId(get_u64(buf)?),
                commit_ts: get_u64(buf)?,
            },
            TAG_ABORT => RedoPayload::TxnAbort { trx: TrxId(get_u64(buf)?) },
            TAG_CHECKPOINT => RedoPayload::Checkpoint { upto: Lsn(get_u64(buf)?) },
            other => return Err(Error::storage(format!("bad redo tag {other}"))),
        };
        Ok(rec)
    }

    /// Decode a whole buffer into records.
    pub fn decode_all(mut buf: Bytes) -> Result<Vec<RedoPayload>> {
        let mut out = Vec::new();
        while !buf.is_empty() {
            out.push(RedoPayload::decode(&mut buf)?);
        }
        Ok(out)
    }

    /// The table this record touches, if any (used by the column index's
    /// log-capture filter, §VI-E).
    pub fn table(&self) -> Option<TableId> {
        match self {
            RedoPayload::Insert { table, .. }
            | RedoPayload::Update { table, .. }
            | RedoPayload::Delete { table, .. } => Some(*table),
            _ => None,
        }
    }
}

fn put_bytes<B: BufMut>(out: &mut B, b: &[u8]) {
    out.put_u32_le(b.len() as u32);
    out.put_slice(b);
}

fn get_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(Error::storage("truncated redo record"));
    }
    Ok(buf.get_u64_le())
}

/// A `u32` count of `width`-byte items, checked against what the buffer
/// still holds before anything is allocated for them.
fn get_len(buf: &mut Bytes, width: usize) -> Result<usize> {
    if buf.remaining() < 4 {
        return Err(Error::storage("truncated redo record"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len.saturating_mul(width) {
        return Err(Error::storage("truncated redo payload"));
    }
    Ok(len)
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes> {
    let len = get_len(buf, 1)?;
    Ok(buf.copy_to_bytes(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use polardbx_common::Value;

    fn samples() -> Vec<RedoPayload> {
        vec![
            RedoPayload::Insert {
                trx: TrxId(9),
                table: TableId(3),
                key: Key::encode(&[Value::Int(42)]),
                row: Bytes::from_static(b"rowdata"),
            },
            RedoPayload::Update {
                trx: TrxId(9),
                table: TableId(3),
                key: Key::encode(&[Value::Int(42)]),
                row: Bytes::from_static(b"newdata"),
            },
            RedoPayload::Delete {
                trx: TrxId(10),
                table: TableId(4),
                key: Key::encode(&[Value::str("k")]),
            },
            RedoPayload::TxnPrepare { trx: TrxId(9), prepare_ts: 777, peers: vec![] },
            RedoPayload::TxnPrepare { trx: TrxId(9), prepare_ts: 777, peers: vec![NodeId(4)] },
            RedoPayload::TxnPrepare {
                trx: TrxId(9),
                prepare_ts: 777,
                peers: vec![NodeId(1000), NodeId(1), NodeId(u64::MAX)],
            },
            RedoPayload::TxnCommit { trx: TrxId(9), commit_ts: 778 },
            RedoPayload::TxnAbort { trx: TrxId(10) },
            RedoPayload::Checkpoint { upto: Lsn(1024) },
        ]
    }

    #[test]
    fn roundtrip_each_variant() {
        for rec in samples() {
            let mut buf = BytesMut::new();
            rec.encode(&mut buf);
            assert_eq!(buf.len(), rec.encoded_len(), "encoded_len mismatch for {rec:?}");
            let mut bytes = buf.freeze();
            let back = RedoPayload::decode(&mut bytes).unwrap();
            assert_eq!(back, rec);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn roundtrip_stream() {
        let recs = samples();
        let mut buf = BytesMut::new();
        for r in &recs {
            r.encode(&mut buf);
        }
        let back = RedoPayload::decode_all(buf.freeze()).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn truncated_buffer_errors() {
        for rec in samples() {
            let mut buf = BytesMut::new();
            rec.encode(&mut buf);
            let full = buf.freeze();
            for cut in 1..full.len() {
                let mut trunc = full.slice(0..cut);
                assert!(RedoPayload::decode(&mut trunc).is_err(), "{rec:?} cut at {cut} must fail");
            }
        }
    }

    #[test]
    fn bad_tag_errors() {
        let mut b = Bytes::from_static(&[0xEE, 0, 0, 0]);
        assert!(RedoPayload::decode(&mut b).is_err());
    }

    #[test]
    fn table_accessor() {
        assert_eq!(samples()[0].table(), Some(TableId(3)));
        assert_eq!(samples().last().unwrap().table(), None);
    }
}
