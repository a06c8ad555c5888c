//! Adaptive placement: co-access-driven partition re-homing (ROADMAP
//! item 2, after *Lion* and *STAR*).
//!
//! Cross-DN transactions pay full 2PC — prepare round, posted phase two,
//! in-doubt exposure — yet most of that cost is avoidable when the keys a
//! transaction touches co-reside on one DN: the coordinator already takes
//! the `CommitLocal` one-phase path for single-DN write sets. Nothing in
//! the system *creates* that locality, though; hash partitioning scatters
//! co-accessed partitions uniformly. This crate closes the loop:
//!
//! 1. [`sketch::CoAccessSketch`] taps every commit (via
//!    [`polardbx_txn::AccessObserver`]) and maintains a bounded-memory
//!    co-access graph over partitions — which pairs are written by the
//!    same transactions, and how often. No allocation on the commit path.
//! 2. [`plan::plan`] periodically runs greedy affinity clustering over a
//!    snapshot of that graph and proposes re-homes: move the lighter
//!    partition of a hot edge to its partner's DN, under a per-DN balance
//!    cap, so hot transaction groups become single-DN.
//! 3. [`epoch::EpochMap`] makes executing those moves safe under live
//!    traffic: each shard carries a *routing epoch* that transactions pin
//!    when they route and the coordinator validates (entering a commit
//!    gate) at commit. A cutover freezes the shard — bumping the epoch and
//!    draining the gate — so no in-flight transaction can commit to the
//!    old home after data starts moving. See DESIGN.md §Adaptive
//!    placement.
//!
//! The crate is deliberately mechanism-only: it does not know about
//! engines, networks, or the `mt` transfer path. The cluster layer
//! (`polardbx::PolarDbx`) wires the sketch into its coordinators, turns
//! plans into actual shard moves, and reports `rehomes_applied`.

pub mod epoch;
pub mod plan;
pub mod sketch;

pub use epoch::EpochMap;
pub use plan::{plan, PlannerConfig, RehomeMove};
pub use sketch::{CoAccessSketch, EdgeStat, PartStat, SketchSnapshot};
