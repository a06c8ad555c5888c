//! PolarFS: the simulated shared distributed storage service (SN layer).
//!
//! The real PolarFS is "a durable, atomic and horizontally scalable
//! distributed storage service" providing virtual volumes partitioned into
//! 10 GB chunks, each replicated three times within a datacenter through
//! ParallelRaft (§II-A). The upper layers — the DN storage engine and the
//! redo log — only rely on that contract:
//!
//! * byte-addressable volumes whose space grows on demand,
//! * atomic writes with majority-replicated durability,
//! * shared access: any DN in the DC can open the same volume (this is what
//!   makes tenant migration data-movement-free in §V).
//!
//! We reproduce the contract in memory with a faithful structure: volumes →
//! chunks → a 3-replica [`raft::ParallelRaftGroup`] per chunk hosted on
//! [`chunk::ChunkServer`]s, with an optional per-I/O latency so experiments
//! can account for I/O cost. The chunk size is configurable (default scaled
//! down from 10 GB) so tests stay laptop-sized; all invariants are
//! size-independent.

pub mod chunk;
pub mod fs;
pub mod raft;
pub mod volume;

pub use chunk::{ChunkId, ChunkServer};
pub use fs::{PageStore, PolarFs, PolarFsConfig, VolumeLogSink};
pub use raft::ParallelRaftGroup;
pub use volume::{Volume, VolumeId};
