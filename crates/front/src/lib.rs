//! The SQL front door (§III of the paper: the CN tier's client-facing
//! endpoint).
//!
//! Everything below the front door — parsing, planning, transactions,
//! storage — already exists in the sibling crates and is exercised
//! in-process. This crate adds the missing first hop: a wire protocol and
//! a TCP server so clients reach the cluster the way applications reach a
//! real PolarDB-X endpoint, with the failure modes that only exist at the
//! boundary (torn frames, abrupt disconnects, hot tenants) made explicit
//! and tested.
//!
//! - [`wire`] — length-prefixed, checksummed frames; typed decode errors;
//!   an error classification that keeps `Error::is_retryable()` intact
//!   across the boundary.
//! - [`admission`] — per-tenant token-bucket rate limits plus
//!   concurrent-query and connection quotas; violations bounce with a
//!   retryable `Throttled` instead of queueing.
//! - [`stmt_cache`] — per-connection prepared-statement ids, each mapped
//!   to its exact SQL text, LRU bounded. Parsing and planning are cached
//!   once per cluster, by statement shape, behind `Session`.
//! - [`server`] — the threaded accept loop owning connection lifecycle.
//! - [`client`] — a blocking client used by the bench harness and tests.

pub mod admission;
pub mod client;
pub mod metrics;
pub mod server;
pub mod stmt_cache;
pub mod wire;

pub use admission::{AdmissionControl, ConnPermit, QueryPermit};
pub use client::FrontClient;
pub use metrics::FrontMetrics;
pub use server::{FrontConfig, FrontDoor};
pub use stmt_cache::StmtCache;
pub use wire::{ErrCode, Frame, WireError, MAX_WIRE_PAYLOAD, PROTOCOL_VERSION};
