//! PolarFS, the shared storage layer (SN) of §II-A, has no simulation of
//! its own in this reproduction.
//!
//! What PolarDB-X's mechanisms rely on is PolarFS's contract, and the DN
//! meets it directly:
//!
//! * durable redo — every engine persists its epochs through its
//!   `EpochSink` (a local log, or the Paxos group of §III);
//! * shared access — RW and RO nodes hold the same `VersionStore`s by
//!   `Arc`, so a replica reads what its RW wrote without a copy;
//! * a §V migration copies no data — `RwNode::hand_off` moves the stores
//!   to the destination DN by reference.
//!
//! The crate declares nothing. It stays only because `benchmark/Cargo.lock`
//! records it as a dependency of the storage crates, and changing their
//! manifests would rewrite that pinned lock file.
