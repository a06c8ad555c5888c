//! Tier-1 guard for the allocation-free commit path. Two claims, each on
//! the local-log and the Paxos sink, after warm-up:
//!
//! * **Submitting is free.** `commit_pipelined` — stamp the versions, move
//!   the context to the unstable set, encode the redo into the pooled
//!   epoch arena — performs ZERO heap allocations.
//! * **A persist costs a constant.** The thread that waits for an epoch
//!   flushes it (there is no flusher thread to hide the work on), and what
//!   the flush allocates — the log buffer's hand-off to the sink, the
//!   Paxos frame — does not grow with the epoch: 32 pipelined commits and
//!   one `wait_ticket` allocate exactly what 1 commit and one
//!   `wait_ticket` do.
//!
//! Warmup is sized to carry every lazily-grown structure past its next
//! resize threshold (txn table, unstable set, both epoch arenas' cut and
//! transaction lists, the sink's write list, condvar parker TLS), so the
//! measured window cannot hit an amortized growth spike: hashbrown doubles
//! capacity, and the measured commits after the warmup commits sit far
//! below the next doubling point.

use polardbx_bench::alloc_count;
use polardbx_common::{Key, Row, TableId, TenantId, TrxId, Value};
use polardbx_storage::{StorageEngine, WriteOp};
use std::sync::Arc;
use std::time::Duration;

const WARMUP: u64 = 1200;
const ROUNDS: u64 = 20;
const WINDOW: u64 = 32;
const WAIT: Duration = Duration::from_secs(5);

/// Commits one engine's transactions, numbering them as it goes.
struct Driver {
    engine: Arc<StorageEngine>,
    next: u64,
}

impl Driver {
    fn new(engine: Arc<StorageEngine>) -> Driver {
        engine.create_table(TableId(1), TenantId(1));
        Driver { engine, next: 0 }
    }

    /// `n` transactions (begin + write unarmed, `commit_pipelined` armed),
    /// then one armed `wait_ticket` on the last. Returns the allocations
    /// of the submits and of the wait.
    fn window(&mut self, n: u64) -> (u64, u64) {
        let (mut submit_allocs, mut ticket) = (0, 0);
        for _ in 0..n {
            self.next += 1;
            let (trx, key) = (TrxId(self.next), Key::encode(&[Value::Int(self.next as i64)]));
            let row = Row::new(vec![Value::Int(self.next as i64)]);
            self.engine.begin(trx, self.next);
            self.engine.write(trx, TableId(1), key, WriteOp::Insert(row)).unwrap();
            alloc_count::arm();
            let res = self.engine.commit_pipelined(trx, self.next + 1);
            submit_allocs += alloc_count::disarm();
            ticket = res.unwrap();
        }
        alloc_count::arm();
        let res = self.engine.pipeline().wait_ticket(ticket, WAIT);
        let persist_allocs = alloc_count::disarm();
        res.unwrap();
        (submit_allocs, persist_allocs)
    }

    /// Warm up, then hold the two claims; a persist may allocate at most
    /// `persist_bound` times.
    fn check(&mut self, what: &str, persist_bound: u64) {
        if !alloc_count::ENABLED {
            eprintln!("count-alloc feature off — skipping");
            return;
        }
        // Consecutive windows alternate between the two epoch arenas, and
        // windows wider than the measured ones grow every shard of the
        // unstable set past what a measured window can put in it.
        for _ in 0..WARMUP / (8 * WINDOW) + 1 {
            self.window(8 * WINDOW);
        }
        // A persist's steady-state cost is the least seen over the rounds:
        // the sink's own lists (the log's write list, the replica's entry
        // list) double now and then, which adds to one persist in many.
        let mut per_persist = [u64::MAX; 2];
        for round in 0..ROUNDS {
            for (i, n) in [1, WINDOW].into_iter().enumerate() {
                let (submit, persist) = self.window(n);
                assert_eq!(
                    submit, 0,
                    "round {round}: {submit} heap allocations across {n} steady-state {what} \
                     submits — the commit hot path must be allocation-free"
                );
                per_persist[i] = per_persist[i].min(persist);
            }
        }
        let [of_1, of_window] = per_persist;
        eprintln!("{what}: a persist allocates {of_1} times");
        assert_eq!(
            of_window, of_1,
            "persisting an epoch of {WINDOW} allocates {of_window} times, an epoch of 1 {of_1} — \
             a {what} persist must not grow with its epoch"
        );
        assert!(of_1 <= persist_bound, "a {what} persist allocates {of_1} times (bound {persist_bound})");
    }
}

#[test]
fn submit_is_allocation_free_and_a_persist_constant_on_the_local_path() {
    Driver::new(StorageEngine::in_memory()).check("local", 3);
}

#[test]
fn submit_is_allocation_free_and_a_persist_constant_on_the_paxos_path() {
    let group = polardbx_consensus::PaxosGroup::build(polardbx_consensus::GroupConfig::three_dc(1));
    let engine = StorageEngine::in_memory();
    polardbx::durability::enable_paxos_epoch(
        &engine,
        group.leader().unwrap(),
        WAIT,
        polardbx_wal::EpochConfig::default(),
    );
    Driver::new(engine).check("Paxos", 12);
}
