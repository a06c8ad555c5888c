//! Hybrid logical clocks (§IV of the paper).
//!
//! PolarDB-X's HLC-SI replaces the centralized timestamp oracle (TSO) used
//! by Percolator/TiDB with a per-node hybrid logical clock. This crate
//! provides:
//!
//! * [`HlcTimestamp`] — the 64-bit `{reserved:2, pt:46, lc:16}` layout,
//! * [`Hlc`] — a node's clock with the paper's three primitives
//!   (`ClockNow`, `ClockAdvance`, `ClockUpdate`) including the two
//!   contention optimizations (no `lc` increment in `now`/`update`, and
//!   batched `update` with the max of all seen timestamps),
//! * [`Clock`] — the trait the transaction layer programs against, so the
//!   baselines Fig 7 compares (a central TSO, Clock-SI's physical clocks;
//!   both live with the figure in `crates/bench`) swap in for the HLC.

pub mod clock;
pub mod timestamp;

pub use clock::{Clock, Hlc, PhysicalClock, RealClock, SkewedClock, TestClock};
pub use timestamp::HlcTimestamp;
