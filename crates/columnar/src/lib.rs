//! In-memory column index (§VI-E of the paper).
//!
//! "PolarDB-X supports an in-memory column index on its DN … implemented
//! as an in-memory columnar representation of the selected or indexed
//! columns in row store. The logical operations on the indexed column are
//! captured from the log and converted to the corresponding operations on
//! the index. … A record in column index has its trx_id being consistent
//! with that in InnoDB," which lets hybrid plans read row and column
//! stores under one snapshot. "To further mitigate the maintenance
//! overhead … its updates can be delayed and batched."
//!
//! * [`mod@column`] — typed column vectors with null bitmaps; strings are
//!   dictionary-coded (a `u32` code per row into a [`Dictionary`] the
//!   index dedupes as it appends), so string predicates and group keys
//!   resolve once per distinct value,
//! * [`index`] — the per-table columnar replica with commit-timestamp
//!   visibility (insert/update/delete as append + tombstone), columns
//!   shared with its snapshots, a history floor and tombstone reclaim,
//! * [`maintain`] — the index as a consumer of the DNs' redo feed, with
//!   the per-node applied LSN that snapshot reads wait on,
//! * [`kernels`] — reference filter and sum loops over a snapshot's typed
//!   vectors, timed by the benchmarks (queries run on the executor's own
//!   lane loops over the same [`ColumnData`]),
//! * [`slots`] — the open-addressed hash → id index behind the
//!   dictionaries' dedupe and the executor's group and join keys.

pub mod column;
pub mod index;
pub mod kernels;
pub mod maintain;
pub mod slots;

pub use column::{ColumnData, Dictionary};
pub use index::{ColumnIndex, ColumnSnapshot, IndexWriter};
pub use maintain::ColumnIndexMaintainer;
pub use slots::SlotIndex;
