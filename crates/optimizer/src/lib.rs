//! The HTAP-oriented cost-based optimizer (§VI-B, §VI-E).
//!
//! Four responsibilities, mirroring the paper:
//!
//! * [`cost`] — cardinality and resource-cost estimation over logical
//!   plans: "the optimizer will first estimate the cost of core resource
//!   (e.g., CPU, memory, I/O, network) consumption required by the
//!   request".
//! * [`mod@classify`] — request classification: "based on this cost and an
//!   empirical threshold, each request is classified as either an OLTP or
//!   an OLAP request", which drives routing to RW vs RO nodes and pool
//!   placement in the executor.
//! * [`rewrite`] — logical rewrites: predicate pushdown toward scans
//!   (operator push-down's planning half) and lifting equi-join keys out of
//!   filters above cross joins so the executor can hash-join instead of
//!   nested-loop over a cross product. `optimize` reads no statistics and
//!   no literal value, so a CN caches its result per statement shape;
//!   `choose_build_sides` follows the statistics and runs per execution.
//! * [`storage`] — the row-store vs in-memory-column-index physical choice
//!   (§VI-E): "large data scans and push-down plans with join or
//!   aggregation prefer in-memory column index, while point queries choose
//!   InnoDB row store".

pub mod classify;
pub mod cost;
pub mod rewrite;
pub mod storage;

pub use classify::{
    classify, classify_cost, classify_with_threshold, WorkloadClass, DEFAULT_AP_THRESHOLD,
};
pub use cost::{estimate, PlanCost, Statistics, TableStats};
pub use rewrite::{choose_build_sides, optimize, optimize_with_stats};
pub use storage::{choose_storage, StorageChoice};
