//! The DN storage engine (PolarDB's database-node kernel, §II-C).
//!
//! A Database Node in PolarDB-X is a PolarDB instance: a transactional
//! engine over shared storage. The paper's experiments depend on five of
//! its mechanisms, all reproduced here:
//!
//! * **MVCC row store** ([`mvcc`]) — versioned rows with snapshot-isolation
//!   visibility, first-committer-wins write conflicts, and the PREPARED-wait
//!   rule of HLC-SI (§IV): a reader that meets a prepared-but-undecided
//!   version blocks until the writer completes.
//! * **Transaction table** ([`txn`]) — local transaction states
//!   (ACTIVE → PREPARED → COMMITTED/ABORTED) with blocking waits.
//! * **Redo generation** ([`engine`]) — every statement produces an MTR into
//!   the node's log buffer; commit forces a flush (and, in the replicated
//!   setup, rides Paxos to other DCs).
//! * **Buffer pool** ([`bufferpool`]) — dirty-page tracking with per-tenant
//!   attribution; the cost of tenant migration in §V is exactly "flush all
//!   dirty pages associated with the tenant".
//! * **RW→RO replication** ([`replication`]) — read-only replicas apply
//!   the redo stream a reader ships up to `lsn_RO` and serve snapshot reads;
//!   a ship returns applied, which is session consistency (§II-C).
//! * **The committed-transaction feed** ([`feed`]) — the shipped redo
//!   decoded once into whole transactions, for the replicas and for every
//!   other consumer of a node's log (the column index, §VI-E).

pub mod bufferpool;
pub mod engine;
pub mod feed;
pub mod mvcc;
pub mod recovery;
pub mod replication;
pub mod rowcodec;
pub mod shard;
pub mod txn;

pub use bufferpool::{BufferPool, BufferPoolStats};
pub use feed::{CommittedTxn, RedoConsumer, RowChange, TxnAssembler};
pub use engine::{StorageEngine, SyncLocalDurability, WriteOp};
pub use recovery::{recovered_engine, replay_records, RecoveryReport};
pub use mvcc::{ReadResult, VersionStore};
pub use shard::ShardedMap;
pub use replication::{RoNode, RwNode, SessionToken};
pub use txn::{TxnState, TxnTable};
