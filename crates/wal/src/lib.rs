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
//! * [`epoch`] — the commit path (STAR-style epochs, InnoDB-style leader
//!   hand-off): commit decisions decouple from durability acks, whoever
//!   waits for an epoch persists it as one batch, early-released writes
//!   stay invisible until their epoch's durability horizon,
//! * [`recovery`] — crash-recovery scanning: longest-valid-prefix discovery
//!   over torn frame and record streams (scan-and-truncate).

pub mod buffer;
pub mod epoch;
pub mod frame;
pub mod mtr;
pub mod record;
pub mod recovery;

pub use buffer::{LogBuffer, LogSink, VecSink};
pub use epoch::{
    EpochConfig, EpochListener, EpochPipeline, EpochSink, EpochTicket, LocalEpochSink, WalMetrics,
};
pub use frame::{FrameBatcher, FrameError, PaxosFrame, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
pub use mtr::Mtr;
pub use record::RedoPayload;
pub use recovery::{scan_frames, scan_records, FrameScan, RecordScan};
