//! Commit-throughput benchmark: per-transaction durability vs group commit
//! vs the epoch-pipelined commit path.
//!
//! This harness measures commits/s at 1, 8 and 32 concurrent committers
//! for two providers:
//!
//! * **local** — three commit paths over a sink that charges a modelled
//!   fsync wait per write ([`SlowSink`]; with a free sink there is nothing
//!   to coalesce and nothing to measure):
//!   * **before** — `SyncLocalDurability`: one flush per commit.
//!   * **grouped** — `LocalDurability` (GroupCommitter): concurrent
//!     committers share flushes. Helps only when committers > 1.
//!   * **epoch** — `LocalEpochSink`: commit decision decoupled from the
//!     durability ack. Single-stream commits pipeline through the ticket
//!     window (`commit_pipelined` + deferred `wait_ticket`), so even ONE
//!     committer amortizes flushes — the case group commit cannot help.
//!     Multi-committer rows use the synchronous `commit` (which rides the
//!     pipeline internally) so latency is comparable with grouped.
//! * **paxos** — `PaxosEpochSink`, the one way an engine commits through
//!   consensus: each sealed epoch = one `replicate_raw` + one majority
//!   wait. Three DCs at ~1 ms RTT, every replica's log sink paying the
//!   same modelled fsync. Reported with consensus rounds per committed
//!   transaction (`PaxosEpochSink::rounds` ÷ commits).
//!
//! Results go to `BENCH_commit.json`. Every run enforces: single-stream
//! epoch >= 2x per-transaction under local durability, and <= 0.5 Paxos
//! rounds per transaction single-stream. The full-size run adds >= 2x
//! grouped at 32 committers under local durability.
//!
//! Run: `cargo run --release -p polardbx-bench --bin commit_bench [--quick]`

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polardbx::durability::PaxosEpochSink;
use polardbx_bench::{closed_loop, fmt_dur, header, quick, row, LoopResult, SlowSink};
use polardbx_common::{DcId, Key, NodeId, Row, TableId, TenantId, TrxId, Value};
use polardbx_consensus::Replica;
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use polardbx_storage::engine::{LocalDurability, SyncLocalDurability};
use polardbx_storage::{StorageEngine, WriteOp};
use polardbx_wal::{EpochConfig, EpochPipeline, EpochTicket, LocalEpochSink, LogBuffer, LogSink};

const T: TableId = TableId(1);
const COMMITTERS: [usize; 3] = [1, 8, 32];
/// Single-stream pipelining window: tickets in flight before the stream
/// harvests the oldest.
const WINDOW: usize = 32;

/// One committer iteration: a two-statement read-write transaction on
/// fresh keys (no conflicts — the bench measures the durability pipeline,
/// not contention).
fn commit_one(engine: &Arc<StorageEngine>, ids: &AtomicU64) -> bool {
    let id = ids.fetch_add(1, Ordering::Relaxed) + 1;
    let trx = TrxId(id);
    engine.begin(trx, id);
    for j in 0..2i64 {
        let k = (id as i64) * 4 + j;
        if engine
            .write(trx, T, Key::encode(&[Value::Int(k)]), WriteOp::Insert(Row::new(vec![Value::Int(k)])))
            .is_err()
        {
            engine.abort(trx);
            return false;
        }
    }
    engine.commit(trx, id).is_ok()
}

fn run(engine: &Arc<StorageEngine>, committers: usize, dur: Duration) -> LoopResult {
    let ids = AtomicU64::new(0);
    let result = closed_loop(committers, dur, |_| commit_one(engine, &ids));
    assert_eq!(result.errors, 0, "bench transactions must not fail");
    result
}

/// The epoch path's headline case: ONE logical commit stream, pipelined.
/// Commit decisions are published immediately (`commit_pipelined`); the
/// stream harvests durability tickets a window behind, so consecutive
/// commits share epoch flushes instead of serializing on them. Returns
/// the commits made and their rate per second.
fn run_epoch_single_stream(
    engine: &Arc<StorageEngine>,
    pipe: &Arc<EpochPipeline>,
    dur: Duration,
) -> (u64, f64) {
    let mut inflight: VecDeque<EpochTicket> = VecDeque::with_capacity(WINDOW);
    let t0 = Instant::now();
    let mut id = 0u64;
    let mut ops = 0u64;
    while t0.elapsed() < dur {
        id += 1;
        let trx = TrxId(id);
        engine.begin(trx, id);
        for j in 0..2i64 {
            let k = (id as i64) * 4 + j;
            engine
                .write(trx, T, Key::encode(&[Value::Int(k)]), WriteOp::Insert(Row::new(vec![Value::Int(k)])))
                .unwrap();
        }
        inflight.push_back(engine.commit_pipelined(trx, id).unwrap());
        if inflight.len() >= WINDOW {
            pipe.wait_ticket(inflight.pop_front().unwrap(), Duration::from_secs(10)).unwrap();
            ops += 1;
        }
    }
    for t in inflight {
        pipe.wait_ticket(t, Duration::from_secs(10)).unwrap();
        ops += 1;
    }
    (ops, ops as f64 / t0.elapsed().as_secs_f64())
}

/// Build a three-DC Paxos group whose replicas all log through a
/// [`SlowSink`], and return the bootstrapped leader.
fn build_paxos_leader(fsync: Duration) -> Arc<Replica> {
    let net = SimNet::new(LatencyMatrix {
        intra_dc: Duration::from_micros(50),
        inter_dc: Duration::from_micros(500),
        jitter: 0.0,
    });
    let members = vec![NodeId(1), NodeId(2), NodeId(3)];
    let mut replicas = Vec::new();
    for (i, &node) in members.iter().enumerate() {
        let replica = Replica::new(
            node,
            DcId(i as u64 + 1),
            members.clone(),
            i == 2, // DC3 hosts the logger
            Arc::clone(&net),
            SlowSink::new(fsync) as Arc<dyn LogSink>,
        );
        net.register(
            node,
            DcId(i as u64 + 1),
            Arc::clone(&replica) as Arc<dyn Handler<polardbx_consensus::PaxosMsg>>,
        );
        replicas.push(replica);
    }
    replicas[0].bootstrap_leader(1);
    replicas.into_iter().next().unwrap()
}

/// A fresh epoch-mode engine over local durability (SlowSink-modelled
/// fsync per epoch flush).
fn build_local_epoch(fsync: Duration) -> (Arc<StorageEngine>, Arc<EpochPipeline>) {
    let log = LogBuffer::new(SlowSink::new(fsync) as Arc<dyn LogSink>);
    let engine = StorageEngine::with_durability(SyncLocalDurability::new(Arc::clone(&log)));
    let pipe = engine.enable_epoch(LocalEpochSink::new(log), EpochConfig::default());
    engine.create_table(T, TenantId(1));
    (engine, pipe)
}

/// A fresh epoch-mode engine over Paxos durability (each sealed epoch is
/// one raw replication round), with the sink that counts the rounds.
fn build_paxos_epoch(
    fsync: Duration,
) -> (Arc<StorageEngine>, Arc<EpochPipeline>, Arc<PaxosEpochSink>) {
    let sink = PaxosEpochSink::new(build_paxos_leader(fsync), Duration::from_secs(10));
    let engine = StorageEngine::in_memory();
    let pipe = engine.enable_epoch(Arc::clone(&sink) as _, EpochConfig::default());
    engine.create_table(T, TenantId(1));
    (engine, pipe, sink)
}

struct Cell {
    committers: usize,
    before_tps: f64,
    after_tps: f64,
    epoch_tps: f64,
}

struct PaxosCell {
    committers: usize,
    epoch_tps: f64,
    rounds_per_txn: f64,
}

fn main() {
    let dur = if quick() { Duration::from_millis(300) } else { Duration::from_secs(2) };
    let fsync = Duration::from_micros(400);
    let last = *COMMITTERS.last().unwrap();

    println!("# commit_bench — per-txn vs grouped vs epoch-pipelined commit (fsync model {fsync:?})");
    println!();

    // ---- Local durability -------------------------------------------------
    println!("## local durability (flush per commit / grouped flush / epoch pipeline)");
    header(&["committers", "before tps", "grouped tps", "epoch tps", "grouped speedup", "epoch speedup"]);
    let mut local_cells = Vec::new();
    // Diagnostics of the last (largest) cell: each cell overwrites them.
    let (mut grouped_p99, mut epoch_p99) = (Duration::ZERO, Duration::ZERO);
    let (mut grouped_report, mut epoch_report) = (String::new(), String::new());
    for &committers in &COMMITTERS {
        let before_engine = StorageEngine::with_durability(SyncLocalDurability::new(
            LogBuffer::new(SlowSink::new(fsync) as Arc<dyn LogSink>),
        ));
        before_engine.create_table(T, TenantId(1));
        let before_tps = run(&before_engine, committers, dur).tps();

        let after_engine = StorageEngine::with_durability(LocalDurability::new(
            LogBuffer::new(SlowSink::new(fsync) as Arc<dyn LogSink>),
        ));
        after_engine.create_table(T, TenantId(1));
        let after = run(&after_engine, committers, dur);

        let (epoch_engine, pipe) = build_local_epoch(fsync);
        let epoch_tps = if committers == 1 {
            run_epoch_single_stream(&epoch_engine, &pipe, dur).1
        } else {
            let r = run(&epoch_engine, committers, dur);
            epoch_p99 = r.p99_latency;
            r.tps()
        };
        if committers == last {
            grouped_p99 = after.p99_latency;
            grouped_report = after_engine.wal_metrics().unwrap().report();
            epoch_report = pipe.metrics.report();
        }

        row(&[
            committers.to_string(),
            format!("{before_tps:.0}"),
            format!("{:.0}", after.tps()),
            format!("{epoch_tps:.0}"),
            format!("{:.2}x", after.tps() / before_tps),
            format!("{:.2}x", epoch_tps / before_tps),
        ]);
        local_cells.push(Cell { committers, before_tps, after_tps: after.tps(), epoch_tps });
    }
    println!();
    println!("  group-commit metrics @{last}: {grouped_report}");
    println!("  epoch metrics @{last}: {epoch_report}");
    println!("  p99 @{last}: grouped {} · epoch {}", fmt_dur(grouped_p99), fmt_dur(epoch_p99));
    println!();

    // ---- Paxos durability -------------------------------------------------
    println!("## paxos durability (one replication round per sealed epoch)");
    header(&["committers", "epoch tps", "rounds/txn"]);
    let mut paxos_cells = Vec::new();
    let mut paxos_p99 = Duration::ZERO;
    let mut paxos_report = String::new();
    for &committers in &COMMITTERS {
        let (engine, pipe, sink) = build_paxos_epoch(fsync);
        let (commits, epoch_tps) = if committers == 1 {
            run_epoch_single_stream(&engine, &pipe, dur)
        } else {
            let r = run(&engine, committers, dur);
            paxos_p99 = r.p99_latency;
            (r.ops, r.tps())
        };
        let rounds_per_txn = sink.rounds.get() as f64 / commits as f64;
        if committers == last {
            paxos_report = pipe.metrics.report();
        }
        row(&[committers.to_string(), format!("{epoch_tps:.0}"), format!("{rounds_per_txn:.3}")]);
        paxos_cells.push(PaxosCell { committers, epoch_tps, rounds_per_txn });
    }
    println!();
    println!("  epoch metrics @{last}: {paxos_report}");
    println!("  p99 @{last}: {}", fmt_dur(paxos_p99));
    println!();

    // ---- Report + bars ----------------------------------------------------
    let l32 = local_cells.last().unwrap();
    let local_speedup = l32.after_tps / l32.before_tps;
    let local_epoch_single = local_cells[0].epoch_tps / local_cells[0].before_tps;
    let paxos_rounds_single = paxos_cells[0].rounds_per_txn;

    let local_json = local_cells
        .iter()
        .map(|c| {
            format!(
                "{{\"committers\": {}, \"before_tps\": {:.1}, \"after_tps\": {:.1}, \"epoch_tps\": {:.1}, \"speedup\": {:.3}, \"epoch_speedup\": {:.3}}}",
                c.committers,
                c.before_tps,
                c.after_tps,
                c.epoch_tps,
                c.after_tps / c.before_tps,
                c.epoch_tps / c.before_tps,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let paxos_json = paxos_cells
        .iter()
        .map(|c| {
            format!(
                "{{\"committers\": {}, \"epoch_tps\": {:.1}, \"rounds_per_txn\": {:.4}}}",
                c.committers, c.epoch_tps, c.rounds_per_txn,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"benchmark\": \"commit_bench\",\n  \"fsync_model_us\": {},\n  \"local\": [{}],\n  \"paxos\": [{}],\n  \"local_speedup_at_32\": {:.3},\n  \"local_epoch_single_stream_speedup\": {:.3},\n  \"paxos_rounds_per_txn_single_stream\": {:.4},\n  \"local_p99_at_32_us\": {{\"grouped\": {}, \"epoch\": {}}},\n  \"paxos_p99_at_32_us\": {}\n}}\n",
        fsync.as_micros(),
        local_json,
        paxos_json,
        local_speedup,
        local_epoch_single,
        paxos_rounds_single,
        grouped_p99.as_micros(),
        epoch_p99.as_micros(),
        paxos_p99.as_micros(),
    );
    std::fs::write("BENCH_commit.json", &json).unwrap();
    println!("  wrote BENCH_commit.json ({})", fmt_dur(dur));

    // The epoch bars gate every run, the downsized CI smoke included: the
    // single-stream win is large (measured ~20x, bar 2x) and rounds per
    // transaction is a ratio of two counters, so neither is runner noise.
    // NaN (a cell that never ran) must fail too, hence no plain `<`.
    let mut failed = false;
    if local_epoch_single.is_nan() || local_epoch_single < 2.0 {
        println!("  FAIL: local single-stream epoch speedup {local_epoch_single:.2}x below 2x");
        failed = true;
    }
    if paxos_rounds_single.is_nan() || paxos_rounds_single > 0.5 {
        println!("  FAIL: {paxos_rounds_single:.3} paxos rounds/txn single-stream (bar: <= 0.5)");
        failed = true;
    }
    if !quick() && local_speedup < 2.0 {
        println!("  FAIL: local grouped speedup {local_speedup:.2}x below the 2x acceptance bar");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
