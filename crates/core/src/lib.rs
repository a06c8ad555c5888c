//! PolarDB-X: the assembled system (§II of the paper).
//!
//! This crate wires the substrate crates into the paper's CN-DN-SN
//! architecture and exposes the user-facing API:
//!
//! ```text
//!   clients → LoadBalancer → CN (parse/plan/route/2PC/HTAP exec)
//!                              → DN (PolarDB engines, RW + RO replicas)
//!                                 → SN (PolarFS volumes)
//!             GMS (catalog, placement, statistics, background tasks)
//! ```
//!
//! * [`gms`] — the Global Meta Service: catalog with hash partitioning,
//!   table groups and global/local indexes (§II-B), which tenant owns each
//!   table, shard placement, and statistics.
//! * [`durability`] — plugs the X-Paxos group in as the DN durability path
//!   for cross-DC deployments (§III).
//! * [`access`] — which rows a predicate can name: primary-key routing for
//!   point SELECT / UPDATE / DELETE (§II-B), with a full scan as fallback.
//! * [`provider`] — the executor's view of the cluster: partitioned scans
//!   over DN shards, RO-replica routing, column-index snapshots (§VI).
//! * [`cluster`] — the `PolarDbx` facade: build a cluster, connect
//!   sessions through the locality-aware load balancer, set up column indexes.
//! * [`rehome`] — the one cutover that moves shards under live traffic: a
//!   shard re-home (§VIII), a tenant migration (§V).
//! * [`placer`] — the adaptive placer: co-access sketch → throttled re-homes.
//! * [`session`] — a client session bound to one CN: SQL in, rows out
//!   (statement surface, SELECT path, DDL, and the DML in `session::dml`).
//! * `plan_cache` — plan once per statement shape: one cache per cluster
//!   binds each SELECT / UPDATE / DELETE's literals into a cached template.
//! * Admission is the front door's alone (`polardbx_front::admission`,
//!   per tenant): §VIII's per-fingerprint anomaly throttle is not
//!   reproduced, and an embedded [`Session`] is admitted by nothing.

pub mod access;
pub mod cluster;
pub mod durability;
pub mod gms;
mod plan_cache;
pub mod placer;
pub mod provider;
pub mod rehome;
pub mod session;

pub use cluster::{ClusterBuilder, ClusterConfig, PolarDbx};
pub use gms::Gms;
pub use placer::PlacerConfig;
pub use provider::ClusterProvider;
pub use session::{Outcome, Session};
