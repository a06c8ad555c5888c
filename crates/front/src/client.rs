//! Blocking wire-protocol client.
//!
//! [`FrontClient`] is what the load harness and the wire-level tests use:
//! it speaks the framed protocol over a `TcpStream`, performs the tenant
//! handshake, and maps `Err` frames back into typed [`Error`]s via
//! [`wire::rebuild_error`] — so `Error::is_retryable()` on the client
//! matches what the server classified, and retry loops written against
//! the embedded [`polardbx::Session`] work unchanged over the wire.

use std::net::{SocketAddr, TcpStream};

use polardbx_common::{Error, Result, Row};

use crate::wire::{self, Frame, FrameReader};

fn net_err(what: &str, e: std::io::Error) -> Error {
    Error::Network { message: format!("{what}: {e}") }
}

/// A connected, handshaken client.
pub struct FrontClient {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    cn: u64,
}

impl std::fmt::Debug for FrontClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrontClient(cn={})", self.cn)
    }
}

impl FrontClient {
    /// Connect to `addr` and handshake as `tenant`. A server-side
    /// rejection (bad version, unknown tenant, connection cap) surfaces
    /// as the rebuilt typed error.
    pub fn connect(addr: SocketAddr, tenant: u64) -> Result<FrontClient> {
        let stream = TcpStream::connect(addr).map_err(|e| net_err("connect", e))?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| net_err("clone stream", e))?;
        let mut client =
            FrontClient { writer, reader: FrameReader::new(stream), cn: 0 };
        client.send(&Frame::Hello { version: wire::PROTOCOL_VERSION, tenant })?;
        match client.recv()? {
            Frame::HelloOk { cn } => {
                client.cn = cn;
                Ok(client)
            }
            Frame::Err { code, retryable, message } => {
                Err(wire::rebuild_error(code, retryable, message))
            }
            other => Err(Error::Network {
                message: format!("unexpected handshake reply {other:?}"),
            }),
        }
    }

    /// The connection sequence number (maps to the CN the server picked).
    pub fn cn(&self) -> u64 {
        self.cn
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        wire::write_frame(&mut self.writer, frame)
    }

    fn recv(&mut self) -> Result<Frame> {
        self.reader.read_frame()
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame> {
        self.send(frame)?;
        match self.recv()? {
            Frame::Err { code, retryable, message } => {
                Err(wire::rebuild_error(code, retryable, message))
            }
            ok => Ok(ok),
        }
    }

    /// Run one statement. SELECT returns rows; DML/DDL returns `Ok(vec![])`
    /// — use [`FrontClient::execute`] when the affected count matters.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Row>> {
        match self.request(&Frame::Query { sql: sql.to_string() })? {
            Frame::Rows { rows } => Ok(rows),
            Frame::Affected { .. } => Ok(Vec::new()),
            other => Err(unexpected(other)),
        }
    }

    /// Run one DML/DDL statement, returning the affected-row count.
    pub fn execute(&mut self, sql: &str) -> Result<u64> {
        match self.request(&Frame::Query { sql: sql.to_string() })? {
            Frame::Affected { n } => Ok(n),
            Frame::Rows { .. } => {
                Err(Error::invalid("execute() got a result set; use query()"))
            }
            other => Err(unexpected(other)),
        }
    }

    /// Prepare a statement; returns `(stmt_id, cache_hit)`.
    pub fn prepare(&mut self, sql: &str) -> Result<(u64, bool)> {
        match self.request(&Frame::Prepare { sql: sql.to_string() })? {
            Frame::Prepared { stmt_id, cached } => Ok((stmt_id, cached)),
            other => Err(unexpected(other)),
        }
    }

    /// Execute a prepared statement, returning rows (SELECT) or the empty
    /// vec (DML).
    pub fn execute_prepared(&mut self, stmt_id: u64) -> Result<Vec<Row>> {
        match self.request(&Frame::Execute { stmt_id })? {
            Frame::Rows { rows } => Ok(rows),
            Frame::Affected { .. } => Ok(Vec::new()),
            other => Err(unexpected(other)),
        }
    }

    /// Orderly goodbye; consumes the client.
    pub fn quit(mut self) -> Result<()> {
        self.send(&Frame::Quit)?;
        match self.recv()? {
            Frame::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(f: Frame) -> Error {
    Error::Network { message: format!("unexpected response frame {f:?}") }
}
