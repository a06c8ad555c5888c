//! Differential test of the commit path against an engine-free oracle.
//!
//! The serial per-transaction writer the engine once had survives only
//! here, as arithmetic: for a seeded script of transactions,
//!
//! * the **expected log** is each transaction's `RedoPayload` encodings
//!   followed by its `TxnCommit` (an aborted transaction: its `TxnAbort`
//!   alone), concatenated in commit order;
//! * the **expected state** is a model map the committed transactions are
//!   applied to in that order;
//! * the **expected recovery** from a log cut at byte `c` is the model map
//!   of the transactions whose last record ends at or before `c`, with the
//!   durable horizon at the last whole record.
//!
//! Two drivers, eight seeds each: one committer (the log is the expected
//! one byte for byte) and four concurrent committers (the order is the
//! pipeline's to choose, so the expectation is rebuilt from the order the
//! log shows — each transaction's records one contiguous run, the run the
//! oracle encodes, no hole in the sink below the flushed LSN).

use bytes::Bytes;
use polardbx_common::{Key, Lsn, Row, TableId, TenantId, TrxId, Value};
use polardbx_storage::recovery::recovered_engine;
use polardbx_storage::rowcodec::encode_row;
use polardbx_storage::{StorageEngine, WriteOp};
use polardbx_wal::{LocalEpochSink, LogBuffer, LogSink, RedoPayload, VecSink};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const T: TableId = TableId(1);
const TEN: TenantId = TenantId(1);
const KEYS: u64 = 16;
const TXNS: u64 = 48;

/// xorshift64* — deterministic, dependency-free seed expansion.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2654435761).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One scripted statement: upsert `key := value`, or delete `key`.
#[derive(Clone)]
enum Stmt {
    Upsert(u64, i64),
    Delete(u64),
}

impl Stmt {
    fn key(&self) -> Key {
        let (Stmt::Upsert(k, _) | Stmt::Delete(k)) = self;
        Key::encode(&[Value::Int(*k as i64)])
    }

    fn row(&self) -> Option<Row> {
        match self {
            Stmt::Upsert(_, v) => Some(Row::new(vec![Value::Int(*v)])),
            Stmt::Delete(_) => None,
        }
    }
}

/// One scripted transaction; aborted txns still stage writes first, so
/// rollback paths diverge loudly if the commit path mishandles them.
#[derive(Clone)]
struct Txn {
    trx: TrxId,
    /// Snapshot and commit timestamp.
    ts: u64,
    stmts: Vec<Stmt>,
    abort: bool,
}

impl Txn {
    /// What the log must hold for this transaction, as one run.
    fn records(&self) -> Vec<RedoPayload> {
        let trx = self.trx;
        if self.abort {
            return vec![RedoPayload::TxnAbort { trx }];
        }
        let rows = self.stmts.iter().map(|s| match s.row() {
            Some(row) => RedoPayload::Update { trx, table: T, key: s.key(), row: encode_row(&row) },
            None => RedoPayload::Delete { trx, table: T, key: s.key() },
        });
        rows.chain([RedoPayload::TxnCommit { trx, commit_ts: self.ts }]).collect()
    }

    fn run(&self, engine: &StorageEngine) {
        engine.begin(self.trx, self.ts);
        for stmt in &self.stmts {
            let op = stmt.row().map_or(WriteOp::Delete, WriteOp::Update);
            engine.write(self.trx, T, stmt.key(), op).unwrap();
        }
        if self.abort {
            engine.abort(self.trx);
        } else {
            engine.commit(self.trx, self.ts).unwrap();
        }
    }
}

/// Transactions over `KEYS` shared keys, timestamps in script order.
fn script(seed: u64) -> Vec<Txn> {
    let mut rng = Rng::new(seed);
    (1..=TXNS)
        .map(|n| {
            let stmts = (0..1 + rng.below(3))
                .map(|_| {
                    let key = rng.below(KEYS);
                    if rng.below(10) < 7 {
                        Stmt::Upsert(key, rng.next() as i64)
                    } else {
                        Stmt::Delete(key)
                    }
                })
                .collect();
            Txn { trx: TrxId(n), ts: n, stmts, abort: rng.below(6) == 0 }
        })
        .collect()
}

/// The oracle: the log and the state after `txns` in the order given, and
/// where in the log each record and each transaction ends.
#[derive(Default)]
struct Oracle {
    log: Vec<u8>,
    record_ends: Vec<usize>,
    /// (end offset of the transaction's run, the state once it is applied).
    states: Vec<(usize, BTreeMap<Key, Row>)>,
}

impl Oracle {
    fn of<'a>(txns: impl IntoIterator<Item = &'a Txn>) -> Oracle {
        let mut oracle = Oracle::default();
        let mut state = BTreeMap::new();
        for txn in txns {
            for record in txn.records() {
                record.encode(&mut oracle.log);
                oracle.record_ends.push(oracle.log.len());
            }
            for stmt in txn.stmts.iter().filter(|_| !txn.abort) {
                match stmt.row() {
                    Some(row) => state.insert(stmt.key(), row),
                    None => state.remove(&stmt.key()),
                };
            }
            oracle.states.push((oracle.log.len(), state.clone()));
        }
        oracle
    }

    fn state(&self) -> Vec<(Key, Row)> {
        self.state_at(self.log.len())
    }

    /// The state of the transactions whose runs end at or before `cut`.
    fn state_at(&self, cut: usize) -> Vec<(Key, Row)> {
        let done = self.states.iter().rev().find(|(end, _)| *end <= cut);
        done.map_or_else(Vec::new, |(_, state)| state.clone().into_iter().collect())
    }

    /// End of the last whole record at or before `cut`.
    fn durable_at(&self, cut: usize) -> usize {
        self.record_ends.iter().rev().find(|end| **end <= cut).copied().unwrap_or(0)
    }
}

fn engine() -> (Arc<StorageEngine>, Arc<VecSink>, Arc<LogBuffer>) {
    let sink = VecSink::new();
    let log = LogBuffer::new(Arc::clone(&sink) as Arc<dyn LogSink>);
    let engine = StorageEngine::with_durability(LocalEpochSink::new(Arc::clone(&log)));
    engine.create_table(T, TEN);
    (engine, sink, log)
}

fn visible_state(engine: &StorageEngine) -> Vec<(Key, Row)> {
    engine.scan_table(T, u64::MAX).unwrap()
}

/// Cut `log` at a seeded byte offset in its back half (usually mid-record,
/// i.e. a torn epoch tail), replay the prefix into a fresh engine via
/// scan-and-truncate recovery, and hold the result against the oracle.
/// Returns whether the cut tore a record.
fn recovery_agrees(seed: u64, log: &[u8], oracle: &Oracle) -> bool {
    let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
    let len = log.len();
    let cut = len / 2 + rng.below((len - len / 2) as u64) as usize;
    let sink = VecSink::new();
    sink.write(Lsn::ZERO, Bytes::copy_from_slice(&log[..cut])).unwrap();
    let (_, recovered, report) = recovered_engine(sink, &[T]).unwrap();
    let durable = oracle.durable_at(cut);
    assert_eq!(report.durable_lsn, Lsn(durable as u64), "seed {seed}: recovered horizon");
    assert_eq!(report.truncated_bytes, (cut - durable) as u64, "seed {seed}: truncation");
    assert_eq!(
        visible_state(&recovered),
        oracle.state_at(cut),
        "seed {seed}: recovered state diverges at cut {cut}"
    );
    cut > durable
}

#[test]
fn one_committer_writes_the_oracle_log_byte_for_byte_across_seeds() {
    let mut torn_seeds = 0u32;
    for seed in 0..8u64 {
        let txns = script(seed);
        let oracle = Oracle::of(&txns);
        let (engine, sink, log) = engine();
        txns.iter().for_each(|txn| txn.run(&engine));

        let bytes = sink.contiguous();
        assert!(!bytes.is_empty(), "seed {seed}: workload produced no redo");
        let durable = log.flushed();
        assert_eq!(log.flush().unwrap(), durable, "seed {seed}: unflushed redo");
        assert_eq!(
            bytes,
            oracle.log,
            "seed {seed}: log diverges from the oracle ({} vs {} bytes)",
            bytes.len(),
            oracle.log.len()
        );
        let state = visible_state(&engine);
        assert!(!state.is_empty(), "seed {seed}: workload left no rows");
        assert_eq!(state, oracle.state(), "seed {seed}: visible state diverges");
        torn_seeds += recovery_agrees(seed, &bytes, &oracle) as u32;
    }
    // An arbitrary byte cut lands mid-record nearly always; if no seed
    // produced a torn tail the cut logic regressed to record boundaries
    // and the test stopped exercising torn-epoch recovery.
    assert!(torn_seeds >= 4, "only {torn_seeds}/8 seeds produced a torn tail");
}

fn trx_of(record: &RedoPayload) -> TrxId {
    match record {
        RedoPayload::Insert { trx, .. }
        | RedoPayload::Update { trx, .. }
        | RedoPayload::Delete { trx, .. }
        | RedoPayload::TxnCommit { trx, .. }
        | RedoPayload::TxnAbort { trx } => *trx,
        other => panic!("unexpected record in this workload: {other:?}"),
    }
}

#[test]
fn concurrent_committers_write_whole_runs_of_the_oracle_log_across_seeds() {
    for seed in 0..8u64 {
        // Disjoint keys per transaction and one timestamp for all: any
        // commit order gives the same state, so four committers may race.
        let mut rng = Rng::new(seed ^ 0xC0_4C);
        let txns: Vec<Txn> = (1..=20 + rng.below(40))
            .map(|n| {
                let stmts = (0..1 + rng.below(4))
                    .map(|j| Stmt::Upsert(n * 100 + j, rng.next() as i64))
                    .collect();
                Txn { trx: TrxId(n), ts: 1, stmts, abort: rng.below(5) == 0 }
            })
            .collect();
        let (engine, sink, log) = engine();
        std::thread::scope(|s| {
            for w in 0..4 {
                let (engine, txns) = (&engine, &txns);
                s.spawn(move || txns.iter().skip(w).step_by(4).for_each(|txn| txn.run(engine)));
            }
        });

        // Fully durable and hole-free: every appended byte was flushed and
        // the sink writes tile the whole range.
        let bytes = sink.contiguous();
        let durable = log.flushed();
        assert_eq!(log.flush().unwrap(), durable, "seed {seed}: unflushed redo");
        assert_eq!(bytes.len() as u64, log.flushed().raw(), "seed {seed}: sink has holes");

        // The pipeline may interleave *transactions*, never the records
        // *within* one: the log is the oracle's for the order it shows.
        let records = RedoPayload::decode_all(Bytes::from(bytes.clone())).unwrap();
        let mut order: Vec<TrxId> = records.iter().map(trx_of).collect();
        order.dedup();
        let by_trx: HashMap<TrxId, &Txn> = txns.iter().map(|t| (t.trx, t)).collect();
        assert_eq!(order.len(), txns.len(), "seed {seed}: a transaction's records were split");
        let oracle = Oracle::of(order.iter().map(|trx| by_trx[trx]));
        assert_eq!(bytes, oracle.log, "seed {seed}: redo differs from the oracle's");

        assert_eq!(visible_state(&engine), oracle.state(), "seed {seed}: visible state");
        recovery_agrees(seed, &bytes, &oracle);
    }
}
