//! Redo log (WAL) infrastructure shared by the DN storage engine and the
//! Paxos replication layer (§II-C and §III of the paper).
//!
//! The log is modelled on InnoDB's: a byte stream addressed by LSN, written
//! in *mini-transactions* (MTRs) — groups of contiguous redo records that
//! apply atomically. For cross-DC replication the stream is framed into
//! `MLOG_PAXOS` batches: a 64-byte control record carrying epoch, index,
//! LSN range and checksum, followed by up to 16 KB of batched MTR payload
//! (§III "Pipelining and Batching").
//!
//! Modules:
//! * [`record`] — logical redo payloads with a compact binary codec,
//! * [`mtr`] — mini-transactions and their LSN ranges,
//! * [`frame`] — `MLOG_PAXOS` batch framing with checksum verification,
//! * [`buffer`] — the in-memory log buffer with group flush to a sink,
//! * [`group_commit`] — leader/follower flush coalescing for concurrent
//!   committers (InnoDB group commit),
//! * [`epoch`] — the epoch-pipelined commit path (STAR-style): commit
//!   decisions decouple from durability acks, sealed epochs persist as one
//!   batch each, early-released writes stay invisible until their epoch's
//!   durability horizon,
//! * [`recovery`] — crash-recovery scanning: longest-valid-prefix discovery
//!   over torn frame and record streams (scan-and-truncate).

pub mod buffer;
pub mod epoch;
pub mod frame;
pub mod group_commit;
pub mod mtr;
pub mod record;
pub mod recovery;

pub use buffer::{LogBuffer, LogSink, VecSink};
pub use epoch::{
    EpochConfig, EpochListener, EpochMetrics, EpochPipeline, EpochSink, EpochTicket,
    LocalEpochSink,
};
pub use frame::{FrameBatcher, FrameError, PaxosFrame, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
pub use group_commit::{GroupCommitter, WalMetrics};
pub use mtr::Mtr;
pub use record::RedoPayload;
pub use recovery::{scan_frames, scan_records, FrameScan, RecordScan};
