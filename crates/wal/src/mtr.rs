//! Mini-transactions: the unit of atomic redo application.
//!
//! §III: "A transaction is divided into multiple mini-transactions (MTR),
//! which are a group of contiguous redo log entries." An MTR's records are
//! encoded contiguously; its LSN range is `[start_lsn, end_lsn)` where the
//! length is the encoded byte length (LSN is a byte offset, as in InnoDB).

use bytes::{Bytes, BytesMut};

use polardbx_common::Result;

use crate::record::RedoPayload;

/// A mini-transaction: an atomic group of redo records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mtr {
    records: Vec<RedoPayload>,
}

impl Mtr {
    /// An MTR from records. Panics on empty input — an empty MTR has no
    /// LSN footprint and would corrupt offset arithmetic.
    pub fn new(records: Vec<RedoPayload>) -> Mtr {
        assert!(!records.is_empty(), "MTR must contain at least one record");
        Mtr { records }
    }

    /// Single-record MTR, the common case: each statement's change is "up
    /// to a few hundreds of bytes" (§III).
    pub fn single(record: RedoPayload) -> Mtr {
        Mtr { records: vec![record] }
    }

    /// The records.
    pub fn records(&self) -> &[RedoPayload] {
        &self.records
    }

    /// Encoded length in bytes = the LSN span this MTR occupies.
    pub fn encoded_len(&self) -> usize {
        self.records.iter().map(RedoPayload::encoded_len).sum()
    }

    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        for r in &self.records {
            r.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Decode an MTR from `bytes` (whole buffer = one MTR).
    pub fn decode(bytes: Bytes) -> Result<Mtr> {
        Ok(Mtr { records: RedoPayload::decode_all(bytes)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use polardbx_common::{Key, TableId, TrxId, Value};

    fn sample() -> Mtr {
        Mtr::new(vec![
            RedoPayload::Insert {
                trx: TrxId(1),
                table: TableId(1),
                key: Key::encode(&[Value::Int(1)]),
                row: Bytes::from_static(b"abc"),
            },
            RedoPayload::TxnCommit { trx: TrxId(1), commit_ts: 5 },
        ])
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let enc = m.encode();
        assert_eq!(enc.len(), m.encoded_len());
        assert_eq!(Mtr::decode(enc).unwrap(), m);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_mtr_panics() {
        let _ = Mtr::new(vec![]);
    }
}
