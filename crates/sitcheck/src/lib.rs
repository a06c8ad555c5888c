//! `sitcheck` — history-based snapshot-isolation checking for the
//! simulated PolarDB-X cluster.
//!
//! Three pieces (ROADMAP: isolation testing):
//!
//! * [`checker`] — an Adya-style anomaly detector over recorded histories
//!   ([`polardbx_common::TxnEvent`] logs tapped from the coordinator, the
//!   participants and the storage MVCC read path). Detects G0, G1a/b/c,
//!   G-SI fractured reads and missed effects, lost update, lost write and
//!   commit-timestamp disagreement, each with a minimal witness cycle.
//! * [`explorer`] — a deterministic, seeded schedule explorer that runs
//!   mixed workloads (multi-DN transfers, audits, register RMWs, range
//!   scans, RO-replica reads) over `simnet` across a fault-schedule matrix
//!   (message loss/duplication, coordinator crash at 2PC failpoints,
//!   leader re-election, replica lag) and feeds every completed history
//!   through the checker. Also hosts the three protocol *mutations* that
//!   self-validate the checker: each must produce a named anomaly.
//! * [`report`] — plain-text rendering of check results for CI artifacts.
//! * [`recovery`] — the crashpoint torture harness: amnesia-restart a DN
//!   at seeded crashpoints (mid-group-flush, between prepare and commit,
//!   during paxos drain), recover from the durable log, and verify RPO=0,
//!   replay idempotence, the conserved sum and a clean Adya report across
//!   the restart boundary.

pub mod checker;
pub mod explorer;
pub mod recovery;
pub mod report;

pub use checker::{
    check, derived_audit_totals, Anomaly, AnomalyKind, CheckReport, EdgeKind, HistoryStats,
    WitnessEdge, WriteSkewCandidate,
};
pub use explorer::{ExplorerConfig, Mutation, Schedule, ScheduleRun};
pub use recovery::{run_crashpoint, CrashPoint, RecoveryConfig, RecoveryRun};
pub use report::{render_recovery_report, render_report};
