//! Tier-1 guard for the allocation-free commit path (ISSUE 7): after
//! warmup, a steady-state epoch-mode commit must perform ZERO heap
//! allocations on the committing thread — on both the local-log and the
//! Paxos durability paths. Per-epoch work (frame encodes, Bytes copies)
//! happens on the flusher thread and is era-amortized; the committing
//! thread only encodes into pooled buffers and parks on pre-grown
//! structures.
//!
//! Warmup is sized to carry every lazily-grown structure past its next
//! resize threshold (txn table, unstable set, epoch buffer pool, condvar
//! parker TLS), so the measured window cannot hit an amortized growth
//! spike: hashbrown doubles capacity, and 100 measured commits after 1200
//! warmup commits sit far below the next doubling point.

use polardbx_bench::alloc_count;
use polardbx_common::{Key, Row, TableId, TenantId, TrxId, Value};
use polardbx_storage::{StorageEngine, SyncLocalDurability, WriteOp};
use polardbx_wal::{EpochConfig, LocalEpochSink, LogBuffer, VecSink};
use std::sync::Arc;
use std::time::Duration;

const WARMUP: u64 = 1200;
const MEASURE: u64 = 100;

/// Begin + write one distinct-key txn (unarmed); returns the commit ts.
fn stage(engine: &Arc<StorageEngine>, trx: u64) -> u64 {
    engine.begin(TrxId(trx), trx);
    engine
        .write(
            TrxId(trx),
            TableId(1),
            Key::encode(&[Value::Int(trx as i64)]),
            WriteOp::Insert(Row::new(vec![Value::Int(trx as i64)])),
        )
        .unwrap();
    trx + 1
}

/// Warm up, then measure allocations across MEASURE armed commits.
fn measure_commits(engine: &Arc<StorageEngine>) -> u64 {
    for trx in 1..=WARMUP {
        let ts = stage(engine, trx);
        engine.commit(TrxId(trx), ts).unwrap();
    }
    let mut allocs = 0u64;
    for trx in (WARMUP + 1)..=(WARMUP + MEASURE) {
        let ts = stage(engine, trx);
        alloc_count::arm();
        let res = engine.commit(TrxId(trx), ts);
        allocs += alloc_count::disarm();
        res.unwrap();
    }
    allocs
}

#[test]
fn steady_state_epoch_commit_is_allocation_free_on_the_local_path() {
    if !alloc_count::ENABLED {
        eprintln!("count-alloc feature off — skipping");
        return;
    }
    let log = LogBuffer::new(VecSink::new());
    let engine = StorageEngine::with_durability(SyncLocalDurability::new(Arc::clone(&log)));
    engine.enable_epoch(LocalEpochSink::new(log), EpochConfig::default());
    engine.create_table(TableId(1), TenantId(1));
    let allocs = measure_commits(&engine);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations across {MEASURE} steady-state local epoch commits — \
         the commit hot path must be allocation-free"
    );
}

#[test]
fn steady_state_epoch_commit_is_allocation_free_on_the_paxos_path() {
    if !alloc_count::ENABLED {
        eprintln!("count-alloc feature off — skipping");
        return;
    }
    let group = polardbx_consensus::PaxosGroup::build(polardbx_consensus::GroupConfig::three_dc(1));
    let leader = group.leader().unwrap();
    let engine = StorageEngine::in_memory();
    polardbx::durability::enable_paxos_epoch(
        &engine,
        leader,
        Duration::from_secs(5),
        EpochConfig::default(),
    );
    engine.create_table(TableId(1), TenantId(1));
    let allocs = measure_commits(&engine);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations across {MEASURE} steady-state Paxos epoch commits — \
         the commit hot path must be allocation-free (replication work belongs on the \
         flusher thread)"
    );
}
