//! Distributed transactions: HLC-SI and its baselines over 2PC (§IV).
//!
//! The CN acts as coordinator; DNs are participants. The protocol is the
//! paper's Figure 4:
//!
//! 1. coordinator takes `snapshot_ts = ClockNow()` ①,
//! 2. statements ship to participants with the snapshot timestamp ②; each
//!    participant runs `ClockUpdate(snapshot_ts)` so its clock is at least
//!    the snapshot ③,
//! 3. at commit, every participant validates and enters PREPARED, returning
//!    `prepare_ts = ClockAdvance()` ④,
//! 4. the coordinator picks `commit_ts = max(prepare_ts)` ⑤, runs a single
//!    batched `ClockUpdate` ⑥, and ships `commit_ts` to participants ⑦.
//!
//! A driver that knows a statement's whole read set and write set hands
//! them over whole: [`DistTxn::read_many`] sends the reads of step 2 in one
//! round, [`DistTxn::stage_write`] holds the writes back, and the message
//! that asks a participant for its vote in step 3 delivers them — two
//! blocking rounds per statement instead of one per row. When the reads
//! only feed the writes, the driver stages the read-modify-write itself
//! ([`WireWriteOp::Edit`] over a [`RowEdit`]): the participant reads, edits
//! and writes the row in that one message, and the statement is one round.
//! A driver that needs each write's verdict before its next statement
//! keeps [`DistTxn::write`].
//!
//! Swapping the [`polardbx_hlc::Clock`] implementation yields the baselines
//! of Fig 7: TSO-SI (both timestamps are RPCs to a central oracle) and
//! Clock-SI (local physical clocks; participants must *wait out* skew
//! before serving a snapshot).
//!
//! [`checker`] provides the bank-invariant harness used to validate
//! snapshot isolation under concurrency.
//!
//! # Fault tolerance
//!
//! The commit path is hardened against a lossy, crash-prone fabric:
//! commit-path RPCs retry with bounded deterministic backoff ([`config`]),
//! participants absorb duplicated 2PC messages idempotently, and a
//! coordinator configured with [`Coordinator::with_decision_log`] records
//! its commit decision on an arbiter DN *before* phase two. A participant
//! stuck PREPARED past its in-doubt timeout resolves itself through that
//! log via [`DnService::start_resolver`]; querying an absent record writes
//! a presumed abort that permanently blocks a slow coordinator from
//! committing. See DESIGN.md's "Fault model" section.

pub mod checker;
pub mod config;
pub mod coordinator;
pub mod metrics;
pub mod msg;
pub mod participant;
pub mod route;

pub use config::{ResolverConfig, TxnConfig};
pub use coordinator::{Coordinator, DistTxn, Failpoint, ProtocolMutations, ReadOp, MAX_TOUCHED};
pub use metrics::TxnMetrics;
pub use route::{AccessObserver, CommitGuard, PartTouch, RoutingFence};
pub use msg::{Decision, Edit, RowEdit, StagedWrite, StagedWrites, TxnMsg, WireWriteOp};
pub use participant::{DnService, ResolverHandle};
