//! Simulated multi-datacenter network fabric.
//!
//! The paper's evaluation (§VII) deploys PolarDB-X across three datacenters
//! with ~1 ms round-trip time between them; the relative cost of cross-DC
//! hops is exactly what separates HLC-SI from TSO-SI in Fig 7. This crate
//! substitutes the cloud network with an in-process fabric that:
//!
//! * registers services (CN, DN, TSO, GMS…) under [`polardbx_common::NodeId`]s
//!   placed in datacenters,
//! * injects per-link one-way delays from a configurable [`LatencyMatrix`]
//!   (intra-DC vs inter-DC, optional jitter),
//! * supports synchronous RPC ([`SimNet::call`]), scatter-gather rounds
//!   whose messages are in flight together ([`SimNet::call_many`]) and
//!   asynchronous one-way posts ([`SimNet::post`]) with in-order delivery
//!   per destination,
//! * can partition datacenters from each other to exercise failover, and
//! * counts messages per link so experiments can report network usage.
//!
//! The substitution preserves behaviour because the protocols under test are
//! latency-bound, not bandwidth-bound: what matters is *how many* cross-DC
//! round trips each commit needs, and that is a property of the code paths
//! exercised here, not of the physical medium.

pub mod fault;
pub mod latency;
pub mod net;

pub use fault::{FaultPlan, FaultStats, FlushShot, LinkFaults, OneShot, OneShotFault};
pub use latency::LatencyMatrix;
pub use net::{Handler, NetStats, SimNet};
