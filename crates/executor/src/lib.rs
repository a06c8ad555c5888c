//! The HTAP executor (§VI-C/D of the paper): two plan interpreters, one per
//! job, and one reader of the column index.
//!
//! * [`operators`] — the **TP engine**, [`execute_plan`]: row-at-a-time
//!   physical operators (scan, filter, project, hash join, hash aggregate,
//!   sort, limit) over the row store of a [`operators::TableProvider`],
//!   plus the aggregate accumulators whose partial/merge evaluation the AP
//!   engine shares.
//! * [`mpp`] — the **AP engine**, [`MppExecutor::execute`]: plans split
//!   into fragments; scan/filter/partial-aggregate/probe fragments fan out
//!   across worker tasks, exchange results, and a coordinator fragment
//!   merges (§VI-C "MPP model"). It reads a table from the in-memory
//!   column index when the provider attaches one (§VI-E — the optimizer's
//!   `choose_storage` decides which) and from the row partitions
//!   otherwise.
//! * [`morsel`] — the one scan source and the one scheduling primitive
//!   behind every AP fragment: a table arrives as morsels (selection
//!   ranges over the snapshot's shared lanes, or stealable chunks of
//!   scanned row partitions) drained by the caller plus helpers from the
//!   persistent [`WorkloadManager`] pools; pipeline breakers keep
//!   per-worker state merged at the barrier.
//! * [`batch`] / [`vectorized`] — what the AP engine runs over each morsel:
//!   columnar [`batch::RowBatch`]es (selection vectors, typed lanes,
//!   hashed key slots) and the operator library over them (filter lanes,
//!   projection, join build/probe, the hash-aggregation table).
//! * [`scheduler`] — workload classes and the time-slicing discipline: a
//!   TP job runs unrestricted on the thread that received it, the AP and
//!   slow-AP pools run under CPU governors that cap their share (standing
//!   in for cgroups), and a TP job that overruns its slice is terminated
//!   and re-assigned to the AP pool (§VI-D's misclassification recovery).
//! * [`memory`] — TP/AP memory regions with asymmetric preemption: TP may
//!   take AP memory and keep it until completion; AP must yield
//!   immediately when TP asks (§VI-D).
//! * [`exec_metrics`] — per-operator counters (batches, rows, ns, bytes)
//!   for the AP engine.

pub mod batch;
pub mod exec_metrics;
pub mod memory;
pub mod morsel;
pub mod mpp;
pub mod operators;
pub mod scheduler;
pub mod vectorized;

pub use batch::{PartitionLanes, RowBatch, BATCH_ROWS};
pub use exec_metrics::{exec_metrics, ExecMetrics};
pub use memory::MemoryManager;
pub use morsel::shared_pool;
pub use mpp::MppExecutor;
pub use operators::{execute_plan, ExecCtx, TableProvider};
pub use scheduler::{CpuGovernor, JobClass, WorkloadManager};
pub use vectorized::VecAggTable;
