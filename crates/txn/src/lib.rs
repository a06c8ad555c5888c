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
//! and participants absorb duplicated 2PC messages idempotently.
//!
//! A 2PC outcome is a function of the votes: the transaction commits iff
//! every participant of its vote round is durably PREPARED, at the max of
//! their `prepare_ts` (step ⑤), and aborts iff one refused. Each `Prepare`
//! names the round's DNs and the prepare record keeps them, so when phase
//! two does not arrive any participant settles the outcome by asking its
//! peers ([`TxnMsg::Vote`], [`DnService::start_resolver`]). One asked
//! before it voted refuses, durably and for good — the fence that makes
//! the rule sound. The coordinator never aborts a PREPARED participant on
//! its own, and the happy path pays no extra round. See DESIGN.md's "An
//! outcome any participant can compute".

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
pub use msg::{Edit, RowEdit, StagedWrite, StagedWrites, TxnMsg, Vote, WireWriteOp};
pub use participant::{DnService, ParticipantMutations, ResolverHandle};
