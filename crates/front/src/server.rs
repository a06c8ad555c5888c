//! The SQL front door: a threaded TCP accept loop serving the wire
//! protocol in [`crate::wire`].
//!
//! Connection lifecycle:
//!
//! 1. **Handshake** — the first frame must be `Hello{version, tenant}`.
//!    The version is checked against [`wire::PROTOCOL_VERSION`], the
//!    tenant is looked up in the GMS tenant catalog, its quotas installed
//!    in the admission controller, and a connection slot acquired. Any
//!    failure answers with a typed `Err` frame and closes the socket.
//! 2. **Session** — a handshaken connection owns a [`Session`] acting for
//!    its tenant (the tables it creates are the tenant's), pinned to one CN
//!    (round-robin over the fleet) and a bounded per-connection
//!    prepared-statement cache.
//! 3. **Requests** — `Query` parses and runs; `Prepare`/`Execute` split
//!    parse from run through the statement cache; `CloseStmt` frees a
//!    slot; `Quit` answers `Bye` and closes.
//!
//! Every `Query`/`Prepare`/`Execute` first passes per-tenant admission
//! ([`AdmissionControl`]): an empty token bucket or full concurrency
//! quota answers a retryable `Err` frame (`ErrCode::Throttled`)
//! immediately — the server never queues a throttled request, so one hot
//! tenant cannot build a backlog that delays everyone else.
//!
//! Reads use a socket timeout so handlers notice the stop flag; partial
//! frames survive across timeouts inside [`wire::FrameReader`]. Abrupt
//! client drops unwind the handler stack, releasing the connection and
//! any in-flight query permits via `Drop`.

use parking_lot::Mutex;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use polardbx::{PolarDbx, Session};
use polardbx_common::time::Timer;
use polardbx_common::{Error, Result, TenantId};
use polardbx_sql::ast::Statement;

use crate::admission::AdmissionControl;
use crate::metrics::FrontMetrics;
use crate::stmt_cache::StmtCache;
use crate::wire::{self, classify_error, ErrCode, Frame, FrameReader, ReadOutcome};

/// Front-door tunables.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Prepared-statement cache slots per connection.
    pub stmt_cache_capacity: usize,
    /// Socket read timeout — the stop-flag poll interval.
    pub read_timeout: Duration,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            stmt_cache_capacity: 64,
            read_timeout: Duration::from_millis(50),
        }
    }
}

struct Shared {
    db: PolarDbx,
    admission: AdmissionControl,
    metrics: FrontMetrics,
    config: FrontConfig,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A running front door. Dropping it stops the accept loop and joins
/// every connection handler.
pub struct FrontDoor {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl FrontDoor {
    /// Bind and start serving `db` with the given config.
    pub fn start(db: PolarDbx, config: FrontConfig) -> Result<FrontDoor> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::Network { message: format!("front bind {}: {e}", config.addr) })?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Network { message: format!("front local_addr: {e}") })?;
        let shared = Arc::new(Shared {
            db,
            admission: AdmissionControl::new(),
            metrics: FrontMetrics::new(),
            config,
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("front-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| Error::Network { message: format!("front accept thread: {e}") })?;
        Ok(FrontDoor { shared, addr, accept_handle: Some(accept_handle) })
    }

    /// Start with default config on an ephemeral localhost port.
    pub fn start_default(db: PolarDbx) -> Result<FrontDoor> {
        FrontDoor::start(db, FrontConfig::default())
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Front-door metrics (shared with all handlers).
    pub fn metrics(&self) -> &FrontMetrics {
        &self.shared.metrics
    }

    /// The admission controller (tests inspect per-tenant stats).
    pub fn admission(&self) -> &AdmissionControl {
        &self.shared.admission
    }

    /// Stop accepting, close every handler, and join all threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway connect; it re-checks
        // the stop flag per iteration.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Handlers notice the stop flag at their next read timeout. Move
        // the handles out of the lock before joining — never join while
        // holding a guard.
        let handles = {
            let mut g = self.shared.conn_handles.lock();
            std::mem::take(&mut *g)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("front-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared.metrics.connections_closed.inc();
            });
        match handle {
            Ok(h) => {
                let mut g = shared.conn_handles.lock();
                g.push(h);
                // Compact finished handlers so long-running servers don't
                // accumulate unbounded JoinHandles.
                g.retain(|h| !h.is_finished());
            }
            Err(_) => return,
        }
    }
}

/// Serve one connection start to finish. Any socket error returns, which
/// unwinds the permits.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(stream);

    // --- Handshake ---------------------------------------------------
    let tenant = match wait_hello(&mut reader, shared) {
        Ok(t) => t,
        Err(Some(err_frame)) => {
            shared.metrics.handshake_failures.inc();
            let _ = wire::write_frame(&mut writer, &err_frame);
            return;
        }
        Err(None) => return, // closed / server stopping
    };
    let meta = match shared.db.gms().tenant(tenant) {
        Some(m) => m,
        None => {
            shared.metrics.handshake_failures.inc();
            let _ = wire::write_frame(
                &mut writer,
                &Frame::Err {
                    code: ErrCode::Handshake,
                    retryable: false,
                    message: format!("unknown tenant {tenant}"),
                },
            );
            return;
        }
    };
    shared.admission.register(tenant, meta.quotas);
    let _conn_permit = match shared.admission.connect(tenant) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.handshake_failures.inc();
            let (code, retryable, message) = classify_error(&e);
            let _ = wire::write_frame(&mut writer, &Frame::Err { code, retryable, message });
            return;
        }
    };

    let n = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let session = shared.db.connect_nth(n as usize).for_tenant(tenant);
    if wire::write_frame(&mut writer, &Frame::HelloOk { cn: n }).is_err() {
        return;
    }
    shared.metrics.connections_accepted.inc();

    let mut cache = StmtCache::new(shared.config.stmt_cache_capacity);

    // --- Request loop ------------------------------------------------
    loop {
        let frame = match reader.poll() {
            Ok(ReadOutcome::Frame(f)) => f,
            Ok(ReadOutcome::TimedOut) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Ok(ReadOutcome::Closed) => return,
            Err(_) => return, // protocol violation: drop the connection
        };
        let response = match frame {
            Frame::Quit => {
                let _ = wire::write_frame(&mut writer, &Frame::Bye);
                return;
            }
            Frame::CloseStmt { stmt_id } => {
                close_stmt(&mut cache, stmt_id);
                Frame::StmtClosed { stmt_id }
            }
            Frame::Hello { .. } => Frame::Err {
                code: ErrCode::Handshake,
                retryable: false,
                message: "already handshaken".to_string(),
            },
            req @ (Frame::Query { .. } | Frame::Prepare { .. } | Frame::Execute { .. }) => {
                let timer = Timer::start();
                let resp = dispatch(shared, &session, &mut cache, tenant, req);
                shared.metrics.query_latency.record(timer.elapsed());
                resp
            }
            _ => Frame::Err {
                code: ErrCode::Execution,
                retryable: false,
                message: "unexpected frame".to_string(),
            },
        };
        if wire::write_frame(&mut writer, &response).is_err() {
            return;
        }
        let _ = writer.flush();
    }
}

/// Read frames until `Hello` arrives. `Err(Some(frame))` is a handshake
/// failure to report; `Err(None)` means the peer vanished or the server
/// is stopping.
fn wait_hello(
    reader: &mut FrameReader<TcpStream>,
    shared: &Shared,
) -> std::result::Result<TenantId, Option<Frame>> {
    loop {
        match reader.poll() {
            Ok(ReadOutcome::Frame(Frame::Hello { version, tenant })) => {
                if version != wire::PROTOCOL_VERSION {
                    return Err(Some(Frame::Err {
                        code: ErrCode::Handshake,
                        retryable: false,
                        message: format!(
                            "protocol version {version} unsupported (server speaks {})",
                            wire::PROTOCOL_VERSION
                        ),
                    }));
                }
                return Ok(TenantId(tenant));
            }
            Ok(ReadOutcome::Frame(_)) => {
                return Err(Some(Frame::Err {
                    code: ErrCode::Handshake,
                    retryable: false,
                    message: "expected Hello".to_string(),
                }));
            }
            Ok(ReadOutcome::TimedOut) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return Err(None);
                }
            }
            Ok(ReadOutcome::Closed) | Err(_) => return Err(None),
        }
    }
}

fn close_stmt(cache: &mut StmtCache, stmt_id: u64) {
    if let Ok(id) = u32::try_from(stmt_id) {
        cache.close(id);
    }
}

/// Run one admitted request and encode the outcome as a response frame.
fn dispatch(
    shared: &Shared,
    session: &Session,
    cache: &mut StmtCache,
    tenant: TenantId,
    req: Frame,
) -> Frame {
    let result = (|| -> Result<Frame> {
        // The permit covers the whole request; drop releases the slot.
        let _permit = shared.admission.admit(tenant)?;
        match req {
            Frame::Query { sql } => {
                let stmt = polardbx_sql::parse(&sql)?;
                run_statement(session, &sql, &stmt)
            }
            Frame::Prepare { sql } => {
                let (entry, cached) = cache.prepare(&sql, polardbx_sql::parse)?;
                Ok(Frame::Prepared { stmt_id: entry.id as u64, cached })
            }
            Frame::Execute { stmt_id } => {
                let id = u32::try_from(stmt_id)
                    .map_err(|_| Error::invalid(format!("bad statement id {stmt_id}")))?;
                let entry = cache.get(id)?;
                run_statement(session, &entry.sql, &entry.stmt)
            }
            _ => unreachable!("dispatch only sees Query/Prepare/Execute"),
        }
    })();
    match result {
        Ok(frame) => {
            shared.metrics.queries_ok.inc();
            frame
        }
        Err(e) => {
            let (code, retryable, message) = classify_error(&e);
            if code == ErrCode::Throttled {
                shared.metrics.throttled.inc();
            } else {
                shared.metrics.queries_err.inc();
            }
            Frame::Err { code, retryable, message }
        }
    }
}

/// Run a parsed statement on the session, producing the response frame.
fn run_statement(session: &Session, sql: &str, stmt: &Statement) -> Result<Frame> {
    match stmt {
        Statement::Select(sel) => {
            let (rows, _class) = session.query_statement(sql, sel)?;
            Ok(Frame::Rows { rows })
        }
        other => session.execute_statement(sql, other).map(|n| Frame::Affected { n }),
    }
}
