//! The front-door wire protocol.
//!
//! Length-prefixed, checksummed frames over a byte stream:
//!
//! ```text
//!   header (16 bytes): magic u32 LE | payload_len u32 LE | checksum u64 LE
//!   payload:           tag u8 | tag-specific fields
//! ```
//!
//! The checksum (FNV-1a over the payload) is belt-and-suspenders on top of
//! TCP's own checking; more importantly it gives the decoder a typed
//! rejection for corrupted bytes instead of a garbage parse. Every decode
//! failure is a typed [`WireError`] — the codec never panics on torn,
//! truncated, oversized, or adversarial input (property-tested over every
//! byte offset, `tests/wire_property.rs`).
//!
//! A client handshakes with [`Frame::Hello`] (protocol version + tenant
//! id), then issues [`Frame::Query`] / [`Frame::Prepare`] /
//! [`Frame::Execute`] / [`Frame::CloseStmt`]. The server answers each
//! request with exactly one response frame; errors carry an [`ErrCode`]
//! plus a retryable flag, so a throttled client can distinguish "back off
//! and retry" ([`polardbx_common::Error::Throttled`]) from a permanent
//! failure without string matching.

use std::io::{Read, Write};

use polardbx_common::{Error, Result, Row, Value};

/// Protocol version carried in the handshake.
pub const PROTOCOL_VERSION: u32 = 1;
/// Frame magic: "FPDX" little-endian.
pub const WIRE_MAGIC: u32 = 0x5844_5046;
/// Header: magic u32 + payload length u32 + checksum u64.
pub const WIRE_HEADER_LEN: usize = 16;
/// Payload cap: a length field above this is rejected as
/// [`WireError::BadLength`] before any allocation.
pub const MAX_WIRE_PAYLOAD: usize = 1 << 20;

/// FNV-1a 64 over the payload bytes.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Typed decode failure. `Truncated` doubles as the streaming decoder's
/// "need more bytes" signal — over TCP it means keep reading, over a
/// byte-slice replay it means the tail is torn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Header magic did not match — not a frame boundary.
    BadMagic(u32),
    /// Length field exceeds [`MAX_WIRE_PAYLOAD`] (or is zero: every
    /// payload carries at least a tag byte).
    BadLength(u32),
    /// Payload checksum mismatch.
    BadChecksum { expect: u64, got: u64 },
    /// Buffer ends before the frame does.
    Truncated { need: usize, have: usize },
    /// Unknown frame tag.
    BadTag(u8),
    /// Unknown value tag inside a row.
    BadValueTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Payload decoded cleanly but has bytes left over.
    TrailingBytes { extra: usize },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadLength(n) => write!(f, "bad payload length {n}"),
            WireError::BadChecksum { expect, got } => {
                write!(f, "payload checksum mismatch (expect {expect:#x}, got {got:#x})")
            }
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadValueTag(t) => write!(f, "unknown value tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
        }
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Error {
        Error::Network { message: format!("wire protocol: {e}") }
    }
}

/// Error classes carried in [`Frame::Err`]. The class (not the message
/// text) decides which [`Error`] variant the client rebuilds, so
/// `is_retryable()` survives the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Handshake rejected (bad version, unknown tenant, missing Hello).
    Handshake,
    /// Admission control bounced the request; retry after backing off.
    Throttled,
    /// SQL text did not parse.
    Parse,
    /// Catalog/validation failure (unknown column, duplicate table…).
    Schema,
    /// Unknown table by name.
    UnknownTable,
    /// Transaction-layer failure; the retryable flag says whether the
    /// statement can be re-run as-is.
    TxnRetry,
    /// Execution failure (type error, duplicate key, storage fault…).
    Execution,
    /// Server-side internal error.
    Internal,
}

impl ErrCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrCode::Handshake => 1,
            ErrCode::Throttled => 2,
            ErrCode::Parse => 3,
            ErrCode::Schema => 4,
            ErrCode::UnknownTable => 5,
            ErrCode::TxnRetry => 6,
            ErrCode::Execution => 7,
            ErrCode::Internal => 8,
        }
    }

    fn from_u8(v: u8) -> Option<ErrCode> {
        Some(match v {
            1 => ErrCode::Handshake,
            2 => ErrCode::Throttled,
            3 => ErrCode::Parse,
            4 => ErrCode::Schema,
            5 => ErrCode::UnknownTable,
            6 => ErrCode::TxnRetry,
            7 => ErrCode::Execution,
            8 => ErrCode::Internal,
            _ => return None,
        })
    }
}

/// Map a server-side [`Error`] to its wire classification. The message is
/// the payload a client needs to rebuild the same variant (e.g. the
/// throttle rule string).
pub fn classify_error(e: &Error) -> (ErrCode, bool, String) {
    let e = e.root();
    match e {
        Error::Throttled { rule } => (ErrCode::Throttled, true, rule.clone()),
        Error::Parse { .. } => (ErrCode::Parse, false, e.to_string()),
        Error::UnknownTable { name } => (ErrCode::UnknownTable, false, name.clone()),
        Error::UnknownColumn { .. }
        | Error::Schema { .. }
        | Error::Plan { .. }
        | Error::Invalid { .. } => (ErrCode::Schema, false, e.to_string()),
        Error::WriteConflict { .. }
        | Error::TxnAborted { .. }
        | Error::PrepareRejected { .. }
        | Error::NotOwner { .. }
        | Error::LeaseLost { .. }
        | Error::NotLeader { .. }
        | Error::Timeout { .. }
        | Error::NoQuorum { .. } => (ErrCode::TxnRetry, e.is_retryable(), e.to_string()),
        _ => (ErrCode::Execution, false, e.to_string()),
    }
}

/// Rebuild a client-side [`Error`] from the wire classification, keeping
/// `is_retryable()` consistent with the flag the server sent.
pub fn rebuild_error(code: ErrCode, retryable: bool, message: String) -> Error {
    match code {
        ErrCode::Handshake => Error::Invalid { message },
        ErrCode::Throttled => Error::Throttled { rule: message },
        ErrCode::Parse => Error::Parse { message, position: 0 },
        ErrCode::Schema => Error::Schema { message },
        ErrCode::UnknownTable => Error::UnknownTable { name: message },
        ErrCode::TxnRetry if retryable => Error::TxnAborted { reason: message },
        ErrCode::TxnRetry | ErrCode::Execution | ErrCode::Internal => {
            Error::Execution { message }
        }
    }
}

/// One protocol message (request or response).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- client → server ----------------------------------------------
    /// Handshake: protocol version + tenant id. Must be the first frame.
    Hello { version: u32, tenant: u64 },
    /// Parse + execute one statement (SELECT returns `Rows`, DML/DDL
    /// returns `Affected`).
    Query { sql: String },
    /// Parse once, cache, return a statement handle.
    Prepare { sql: String },
    /// Execute a prepared handle.
    Execute { stmt_id: u64 },
    /// Drop a prepared handle.
    CloseStmt { stmt_id: u64 },
    /// Orderly goodbye.
    Quit,
    // ---- server → client ----------------------------------------------
    /// Handshake accepted; `cn` is the CN this connection landed on.
    HelloOk { cn: u64 },
    /// SELECT result set.
    Rows { rows: Vec<Row> },
    /// DML/DDL affected-row count.
    Affected { n: u64 },
    /// Prepared-statement handle; `cached` reports a statement-cache hit.
    Prepared { stmt_id: u64, cached: bool },
    /// Handle dropped.
    StmtClosed { stmt_id: u64 },
    /// Typed failure; `retryable` mirrors [`Error::is_retryable`].
    Err { code: ErrCode, retryable: bool, message: String },
    /// Server acknowledges `Quit`.
    Bye,
}

const TAG_HELLO: u8 = 0x01;
const TAG_QUERY: u8 = 0x02;
const TAG_PREPARE: u8 = 0x03;
const TAG_EXECUTE: u8 = 0x04;
const TAG_CLOSE_STMT: u8 = 0x05;
const TAG_QUIT: u8 = 0x06;
const TAG_HELLO_OK: u8 = 0x81;
const TAG_ROWS: u8 = 0x82;
const TAG_AFFECTED: u8 = 0x83;
const TAG_PREPARED: u8 = 0x84;
const TAG_STMT_CLOSED: u8 = 0x85;
const TAG_ERR: u8 = 0x86;
const TAG_BYE: u8 = 0x87;

const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_DOUBLE: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_BYTES: u8 = 4;
const VAL_DATE: u8 = 5;

// ---- little-endian cursor over a payload slice -------------------------

struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, off: 0 }
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], WireError> {
        let have = self.b.len() - self.off;
        if have < n {
            return Err(WireError::Truncated { need: self.off + n, have: self.b.len() });
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> std::result::Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> std::result::Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> std::result::Result<u64, WireError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    fn str_(&mut self) -> std::result::Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.off
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Int(i) => {
            out.push(VAL_INT);
            put_u64(out, *i as u64);
        }
        Value::Double(d) => {
            out.push(VAL_DOUBLE);
            put_u64(out, d.to_bits());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(VAL_BYTES);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        Value::Date(d) => {
            out.push(VAL_DATE);
            put_u32(out, *d as u32);
        }
    }
}

fn get_value(c: &mut Cur<'_>) -> std::result::Result<Value, WireError> {
    Ok(match c.u8()? {
        VAL_NULL => Value::Null,
        VAL_INT => Value::Int(c.u64()? as i64),
        VAL_DOUBLE => Value::Double(f64::from_bits(c.u64()?)),
        VAL_STR => Value::Str(c.str_()?),
        VAL_BYTES => {
            let n = c.u32()? as usize;
            Value::Bytes(c.take(n)?.to_vec())
        }
        VAL_DATE => Value::Date(c.u32()? as i32),
        t => return Err(WireError::BadValueTag(t)),
    })
}

impl Frame {
    /// Encode the payload (tag + fields) into `out`.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { version, tenant } => {
                out.push(TAG_HELLO);
                put_u32(out, *version);
                put_u64(out, *tenant);
            }
            Frame::Query { sql } => {
                out.push(TAG_QUERY);
                put_str(out, sql);
            }
            Frame::Prepare { sql } => {
                out.push(TAG_PREPARE);
                put_str(out, sql);
            }
            Frame::Execute { stmt_id } => {
                out.push(TAG_EXECUTE);
                put_u64(out, *stmt_id);
            }
            Frame::CloseStmt { stmt_id } => {
                out.push(TAG_CLOSE_STMT);
                put_u64(out, *stmt_id);
            }
            Frame::Quit => out.push(TAG_QUIT),
            Frame::HelloOk { cn } => {
                out.push(TAG_HELLO_OK);
                put_u64(out, *cn);
            }
            Frame::Rows { rows } => {
                out.push(TAG_ROWS);
                put_u32(out, rows.len() as u32);
                for row in rows {
                    put_u32(out, row.values().len() as u32);
                    for v in row.values() {
                        put_value(out, v);
                    }
                }
            }
            Frame::Affected { n } => {
                out.push(TAG_AFFECTED);
                put_u64(out, *n);
            }
            Frame::Prepared { stmt_id, cached } => {
                out.push(TAG_PREPARED);
                put_u64(out, *stmt_id);
                out.push(*cached as u8);
            }
            Frame::StmtClosed { stmt_id } => {
                out.push(TAG_STMT_CLOSED);
                put_u64(out, *stmt_id);
            }
            Frame::Err { code, retryable, message } => {
                out.push(TAG_ERR);
                out.push(code.to_u8());
                out.push(*retryable as u8);
                put_str(out, message);
            }
            Frame::Bye => out.push(TAG_BYE),
        }
    }

    /// Decode a payload (tag + fields, no header). Rejects trailing bytes.
    pub fn decode_payload(payload: &[u8]) -> std::result::Result<Frame, WireError> {
        let mut c = Cur::new(payload);
        let frame = match c.u8()? {
            TAG_HELLO => Frame::Hello { version: c.u32()?, tenant: c.u64()? },
            TAG_QUERY => Frame::Query { sql: c.str_()? },
            TAG_PREPARE => Frame::Prepare { sql: c.str_()? },
            TAG_EXECUTE => Frame::Execute { stmt_id: c.u64()? },
            TAG_CLOSE_STMT => Frame::CloseStmt { stmt_id: c.u64()? },
            TAG_QUIT => Frame::Quit,
            TAG_HELLO_OK => Frame::HelloOk { cn: c.u64()? },
            TAG_ROWS => {
                let nrows = c.u32()? as usize;
                // Guard against adversarial counts: each row needs at
                // least 4 bytes, so the count is bounded by the payload.
                if nrows > payload.len() / 4 {
                    return Err(WireError::Truncated {
                        need: nrows * 4,
                        have: payload.len(),
                    });
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let ncols = c.u32()? as usize;
                    if ncols > c.remaining() {
                        return Err(WireError::Truncated {
                            need: ncols,
                            have: c.remaining(),
                        });
                    }
                    let mut vals = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        vals.push(get_value(&mut c)?);
                    }
                    rows.push(Row::new(vals));
                }
                Frame::Rows { rows }
            }
            TAG_AFFECTED => Frame::Affected { n: c.u64()? },
            TAG_PREPARED => {
                Frame::Prepared { stmt_id: c.u64()?, cached: c.u8()? != 0 }
            }
            TAG_STMT_CLOSED => Frame::StmtClosed { stmt_id: c.u64()? },
            TAG_ERR => {
                let code =
                    ErrCode::from_u8(c.u8()?).ok_or(WireError::BadTag(TAG_ERR))?;
                let retryable = c.u8()? != 0;
                Frame::Err { code, retryable, message: c.str_()? }
            }
            TAG_BYE => Frame::Bye,
            t => return Err(WireError::BadTag(t)),
        };
        if c.remaining() > 0 {
            return Err(WireError::TrailingBytes { extra: c.remaining() });
        }
        Ok(frame)
    }

    /// Encode the full frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        self.encode_payload(&mut payload);
        let mut out = Vec::with_capacity(WIRE_HEADER_LEN + payload.len());
        put_u32(&mut out, WIRE_MAGIC);
        put_u32(&mut out, payload.len() as u32);
        put_u64(&mut out, checksum(&payload));
        out.extend_from_slice(&payload);
        out
    }
}

/// Decode one frame from the front of `buf`; returns the frame and the
/// bytes consumed. [`WireError::Truncated`] means the buffer holds only a
/// prefix — read more and retry.
pub fn decode_frame(buf: &[u8]) -> std::result::Result<(Frame, usize), WireError> {
    if buf.len() < WIRE_HEADER_LEN {
        return Err(WireError::Truncated { need: WIRE_HEADER_LEN, have: buf.len() });
    }
    let mut c = Cur::new(buf);
    let magic = c.u32().expect("header length checked");
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let len = c.u32().expect("header length checked");
    if len == 0 || len as usize > MAX_WIRE_PAYLOAD {
        return Err(WireError::BadLength(len));
    }
    let sum = c.u64().expect("header length checked");
    let total = WIRE_HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated { need: total, have: buf.len() });
    }
    let payload = &buf[WIRE_HEADER_LEN..total];
    let got = checksum(payload);
    if got != sum {
        return Err(WireError::BadChecksum { expect: sum, got });
    }
    let frame = Frame::decode_payload(payload)?;
    Ok((frame, total))
}

/// Outcome of a blocking/polled frame read.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A whole frame arrived.
    Frame(Frame),
    /// Read timed out with no complete frame buffered (poll again).
    TimedOut,
    /// Peer closed the stream at a frame boundary.
    Closed,
}

/// Incremental frame reader over a byte stream. Tolerates read timeouts
/// mid-frame (partial bytes are buffered across polls), so the server can
/// poll its stop flag between reads without losing protocol state.
pub struct FrameReader<R: Read> {
    src: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream.
    pub fn new(src: R) -> FrameReader<R> {
        FrameReader { src, buf: Vec::with_capacity(4096) }
    }

    /// Read until one frame is complete, the read times out, or the peer
    /// closes. Corrupt input surfaces as a typed [`Error`].
    pub fn poll(&mut self) -> Result<ReadOutcome> {
        loop {
            match decode_frame(&self.buf) {
                Ok((frame, used)) => {
                    self.buf.drain(..used);
                    return Ok(ReadOutcome::Frame(frame));
                }
                Err(WireError::Truncated { .. }) => {} // need more bytes
                Err(e) => return Err(e.into()),
            }
            let mut chunk = [0u8; 4096];
            match self.src.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadOutcome::Closed)
                    } else {
                        // Torn mid-frame: the peer died between header and
                        // payload. Typed, not a panic or a hang.
                        Err(WireError::Truncated {
                            need: WIRE_HEADER_LEN.max(self.buf.len() + 1),
                            have: self.buf.len(),
                        }
                        .into())
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::TimedOut);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(Error::Network { message: format!("wire read: {e}") })
                }
            }
        }
    }

    /// Block until a frame arrives (client side; treats timeout polls as
    /// continue). Returns `Closed` as a typed error.
    pub fn read_frame(&mut self) -> Result<Frame> {
        loop {
            match self.poll()? {
                ReadOutcome::Frame(f) => return Ok(f),
                ReadOutcome::TimedOut => {}
                ReadOutcome::Closed => {
                    return Err(Error::Network {
                        message: "connection closed by peer".into(),
                    })
                }
            }
        }
    }
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    let bytes = frame.encode();
    if bytes.len() - WIRE_HEADER_LEN > MAX_WIRE_PAYLOAD {
        return Err(WireError::BadLength((bytes.len() - WIRE_HEADER_LEN) as u32).into());
    }
    w.write_all(&bytes)
        .map_err(|e| Error::Network { message: format!("wire write: {e}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let (back, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello { version: PROTOCOL_VERSION, tenant: 7 });
        roundtrip(Frame::Query { sql: "SELECT 1".into() });
        roundtrip(Frame::Prepare { sql: "UPDATE t SET v = v + 1".into() });
        roundtrip(Frame::Execute { stmt_id: 42 });
        roundtrip(Frame::CloseStmt { stmt_id: 42 });
        roundtrip(Frame::Quit);
        roundtrip(Frame::HelloOk { cn: 3 });
        roundtrip(Frame::Rows {
            rows: vec![
                Row::new(vec![
                    Value::Null,
                    Value::Int(-5),
                    Value::Double(2.5),
                    Value::str("héllo"),
                    Value::Bytes(vec![0, 255, 3]),
                    Value::Date(-10),
                ]),
                Row::new(vec![]),
            ],
        });
        roundtrip(Frame::Affected { n: u64::MAX });
        roundtrip(Frame::Prepared { stmt_id: 9, cached: true });
        roundtrip(Frame::StmtClosed { stmt_id: 9 });
        roundtrip(Frame::Err {
            code: ErrCode::Throttled,
            retryable: true,
            message: "tenant-rate:tenant3".into(),
        });
        roundtrip(Frame::Bye);
    }

    #[test]
    fn error_classification_roundtrips_retryability() {
        let cases = vec![
            Error::Throttled { rule: "r".into() },
            Error::Parse { message: "m".into(), position: 3 },
            Error::UnknownTable { name: "t".into() },
            Error::Schema { message: "m".into() },
            Error::WriteConflict { key: "k".into() },
            Error::Timeout { what: "w".into() },
            Error::InDoubt { what: "w".into() },
            Error::NoQuorum { acks: 1, needed: 2 },
            Error::DuplicateKey { key: "k".into() },
            Error::execution("boom"),
        ];
        for e in cases {
            let (code, retryable, message) = classify_error(&e);
            assert_eq!(retryable, e.is_retryable(), "flag diverged for {e:?}");
            let back = rebuild_error(code, retryable, message);
            assert_eq!(
                back.is_retryable(),
                e.is_retryable(),
                "rebuilt retryability diverged for {e:?}"
            );
        }
        // Throttled keeps its rule string verbatim (clients key backoff
        // decisions off it).
        let (c, r, m) = classify_error(&Error::Throttled { rule: "tenant-rate:9".into() });
        assert_eq!(
            rebuild_error(c, r, m),
            Error::Throttled { rule: "tenant-rate:9".into() }
        );
    }

    /// A failed epoch hands every committer the same `Shared` error, and
    /// a client must see the error inside: a timeout or a conflict under
    /// any number of `Shared` layers is a retryable transaction failure.
    #[test]
    fn a_shared_error_classifies_as_the_error_it_wraps() {
        use std::sync::Arc;
        let shared = |e: Error| Error::Shared(Arc::new(e));
        let cases = [
            shared(Error::Timeout { what: "epoch flush".into() }),
            shared(shared(Error::WriteConflict { key: "k".into() })),
        ];
        for e in cases {
            let (code, retryable, message) = classify_error(&e);
            assert_eq!((code, retryable), (ErrCode::TxnRetry, true), "{e:?}");
            assert_eq!(message, e.root().to_string());
            assert!(rebuild_error(code, retryable, message).is_retryable(), "{e:?}");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Frame::Quit.encode();
        bytes[4..8].copy_from_slice(&((MAX_WIRE_PAYLOAD as u32) + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::BadLength(MAX_WIRE_PAYLOAD as u32 + 1))
        );
    }

    #[test]
    fn corrupt_payload_rejected_by_checksum() {
        let mut bytes = Frame::Query { sql: "SELECT 1".into() }.encode();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadChecksum { .. })));
    }
}
