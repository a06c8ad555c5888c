//! X-Paxos: consensus replication of the redo-log stream across
//! datacenters (§III of the paper).
//!
//! PolarDB-X replicates at the **DN layer**: the leader DN streams redo log
//! (framed as `MLOG_PAXOS` batches, see [`polardbx_wal::frame`]) to
//! followers in other datacenters. The pieces reproduced here:
//!
//! * **Roles** — Leader (executes transactions), Follower (persists +
//!   replays log, electable), Logger (persists log only, votes but can
//!   never lead) — [`Role`].
//! * **DLSN** — the durable LSN: once a majority has persisted a prefix of
//!   the log, the leader advances DLSN; entries before DLSN survive any
//!   single-DC disaster. Followers only *apply* entries `<= DLSN`, because
//!   later entries may be truncated by a new leader.
//! * **Asynchronous commit** — the foreground thread hands its transaction
//!   context to a waiter registry keyed by the last MTR's end LSN and moves
//!   on; the `async_log_committer` (the ack-processing path here) completes
//!   transactions when DLSN passes them — [`waiters::CommitWaiters`].
//! * **Pipelining & batching** — the leader posts frame batches without
//!   waiting for previous acks (one-way messages on the fabric), and MTRs
//!   are packed into ≤16 KB frames.
//! * **Leader election** — on leader failure a follower campaigns with a
//!   log-completeness check (candidates must hold everything up to the
//!   voter's DLSN); a deposed leader truncates its uncommitted tail, in
//!   memory and in its durable sink. There is no page state to evict: the
//!   DN keeps no buffer pool.

pub mod group;
pub mod msg;
pub mod replica;
pub mod waiters;

pub use group::{GroupConfig, MemberSpec, PaxosGroup};
pub use msg::PaxosMsg;
pub use replica::{ApplyFn, ConsensusMetrics, Replica, ReplicaStatus, Role};
pub use waiters::CommitWaiters;
