//! Commit-throughput benchmark: one engine, one commit path, three ways
//! of driving it.
//!
//! Every engine commits through its epoch pipeline; what a harness can
//! still vary is who waits when. Per provider this measures commits/s of
//!
//! * **sync single stream** — one committer, `commit` per transaction:
//!   every commit pays its own persist. The per-transaction baseline.
//! * **N sync committers** (8 and 32) — concurrent `commit` calls share
//!   persists through the leader hand-off.
//! * **windowed single stream** — one committer, `commit_pipelined` with
//!   tickets harvested a window behind: consecutive commits of ONE stream
//!   share persists, the case concurrency cannot help.
//!
//! over two providers:
//!
//! * **local** — a sink that charges a modelled fsync wait per write
//!   ([`SlowSink`]; with a free sink there is nothing to coalesce and
//!   nothing to measure).
//! * **paxos** — `PaxosEpochSink`: each epoch = one `replicate_raw` + one
//!   majority wait. Three DCs at ~1 ms RTT, every replica's log sink
//!   paying the same modelled fsync. Reported with consensus rounds per
//!   committed transaction (`PaxosEpochSink::rounds` ÷ commits).
//!
//! Results go to `BENCH_commit.json`. Every run enforces: windowed >= 2x
//! the sync single stream under local durability, and <= 0.5 Paxos rounds
//! per transaction windowed. The full-size run adds: 32 local committers
//! >= 2x the sync single stream.
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
use polardbx_storage::{StorageEngine, WriteOp};
use polardbx_wal::{EpochTicket, LogSink};

const T: TableId = TableId(1);
const COMMITTERS: [usize; 2] = [8, 32];
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

/// ONE logical commit stream, pipelined. Commit decisions are published
/// immediately (`commit_pipelined`); the stream harvests durability
/// tickets a window behind, so consecutive commits share persists instead
/// of serializing on them. Returns the commits made and their rate per
/// second.
fn run_windowed(engine: &Arc<StorageEngine>, dur: Duration) -> (u64, f64) {
    let pipe = engine.pipeline();
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

/// A fresh engine over local durability (SlowSink-modelled fsync per
/// persist), or over Paxos durability (each epoch is one raw replication
/// round) with the sink that counts the rounds.
fn build(paxos: bool, fsync: Duration) -> (Arc<StorageEngine>, Option<Arc<PaxosEpochSink>>) {
    let (engine, sink) = if paxos {
        let sink = PaxosEpochSink::new(build_paxos_leader(fsync), Duration::from_secs(10));
        (StorageEngine::with_durability(Arc::clone(&sink) as _), Some(sink))
    } else {
        (StorageEngine::with_sink(SlowSink::new(fsync) as Arc<dyn LogSink>), None)
    };
    engine.create_table(T, TenantId(1));
    (engine, sink)
}

/// One driver's result: commits/s, and consensus rounds per committed
/// transaction (NaN under local durability).
struct Cell {
    committers: usize,
    tps: f64,
    rounds_per_txn: f64,
}

/// One provider's cells.
struct Cells {
    sync_single: Cell,
    sync_many: Vec<Cell>,
    windowed: Cell,
    p99_at_32: Duration,
}

impl Cells {
    fn speedup(&self, cell: &Cell) -> f64 {
        cell.tps / self.sync_single.tps
    }

    fn json(&self) -> String {
        let cell = |c: &Cell| {
            let rounds = if c.rounds_per_txn.is_nan() {
                String::new()
            } else {
                format!(", \"rounds_per_txn\": {:.4}", c.rounds_per_txn)
            };
            format!(
                "{{\"committers\": {}, \"tps\": {:.1}, \"speedup\": {:.3}{rounds}}}",
                c.committers,
                c.tps,
                self.speedup(c)
            )
        };
        format!(
            "{{\"sync_single\": {}, \"sync_many\": [{}], \"windowed_single\": {}, \"p99_at_32_us\": {}}}",
            cell(&self.sync_single),
            self.sync_many.iter().map(cell).collect::<Vec<_>>().join(", "),
            cell(&self.windowed),
            self.p99_at_32.as_micros(),
        )
    }
}

/// Run the three drivers over one provider, each on a fresh engine.
fn measure(paxos: bool, fsync: Duration, dur: Duration) -> Cells {
    header(&["driver", "committers", "tps", "vs sync single", "rounds/txn"]);
    let sync = |committers: usize| {
        let (engine, sink) = build(paxos, fsync);
        let r = run(&engine, committers, dur);
        let rounds = sink.map_or(f64::NAN, |s| s.rounds.get() as f64);
        (Cell { committers, tps: r.tps(), rounds_per_txn: rounds / r.ops as f64 }, r, engine)
    };
    let (sync_single, ..) = sync(1);
    let print = |driver: &str, c: &Cell| {
        row(&[
            driver.to_string(),
            c.committers.to_string(),
            format!("{:.0}", c.tps),
            format!("{:.2}x", c.tps / sync_single.tps),
            if c.rounds_per_txn.is_nan() { "—".into() } else { format!("{:.3}", c.rounds_per_txn) },
        ]);
    };
    print("sync", &sync_single);

    let mut sync_many = Vec::new();
    let (mut p99_at_32, mut metrics_at_32) = (Duration::ZERO, String::new());
    for committers in COMMITTERS {
        let (cell, r, engine) = sync(committers);
        print("sync", &cell);
        sync_many.push(cell);
        p99_at_32 = r.p99_latency;
        metrics_at_32 = engine.pipeline().metrics.report();
    }

    let (engine, sink) = build(paxos, fsync);
    let (commits, tps) = run_windowed(&engine, dur);
    let rounds = sink.map_or(f64::NAN, |s| s.rounds.get() as f64);
    let windowed = Cell { committers: 1, tps, rounds_per_txn: rounds / commits as f64 };
    print("windowed", &windowed);

    println!();
    println!("  pipeline metrics @32: {metrics_at_32}");
    println!("  p99 @32: {}", fmt_dur(p99_at_32));
    println!();
    Cells { sync_single, sync_many, windowed, p99_at_32 }
}

fn main() {
    let dur = if quick() { Duration::from_millis(300) } else { Duration::from_secs(2) };
    let fsync = Duration::from_micros(400);

    println!("# commit_bench — one commit path, three drivers (fsync model {fsync:?})");
    println!();
    println!("## local durability (one log flush per epoch)");
    let local = measure(false, fsync, dur);
    println!("## paxos durability (one replication round per epoch)");
    let paxos = measure(true, fsync, dur);

    let windowed = local.speedup(&local.windowed);
    let at_32 = local.sync_many.last().map_or(f64::NAN, |c| local.speedup(c));
    let rounds = paxos.windowed.rounds_per_txn;
    let json = format!(
        "{{\n  \"benchmark\": \"commit_bench\",\n  \"fsync_model_us\": {},\n  \"window\": {WINDOW},\n  \"local\": {},\n  \"paxos\": {},\n  \"local_windowed_speedup\": {windowed:.3},\n  \"local_speedup_at_32\": {at_32:.3},\n  \"paxos_rounds_per_txn_windowed\": {rounds:.4}\n}}\n",
        fsync.as_micros(),
        local.json(),
        paxos.json(),
    );
    std::fs::write("BENCH_commit.json", &json).unwrap();
    println!("  wrote BENCH_commit.json ({})", fmt_dur(dur));

    // The windowed bars gate every run, the downsized CI smoke included:
    // the single-stream win is large (measured ~18x, bar 2x) and rounds per
    // transaction is a ratio of two counters, so neither is runner noise.
    // NaN (a cell that never ran) must fail too, hence no plain `<`.
    let mut failed = false;
    if windowed.is_nan() || windowed < 2.0 {
        println!("  FAIL: local windowed single stream {windowed:.2}x the sync one, below 2x");
        failed = true;
    }
    if rounds.is_nan() || rounds > 0.5 {
        println!("  FAIL: {rounds:.3} paxos rounds/txn windowed (bar: <= 0.5)");
        failed = true;
    }
    if !quick() && (at_32.is_nan() || at_32 < 2.0) {
        println!("  FAIL: 32 local committers {at_32:.2}x the sync single stream, below 2x");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
