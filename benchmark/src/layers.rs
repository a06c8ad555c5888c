//! Stand-alone measurements of single layers, and process counters.
//!
//! Each function here calls one layer's public items directly, outside the
//! cluster, so its number is that layer's cost alone. `wal.epoch_commit_us`
//! and `consensus.replicate_us` measure code the cluster built by
//! `PolarDbx::build` does not run: they move no end-to-end metric yet.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use polardbx::Session;
use polardbx_columnar::kernels::{self, CmpOp};
use polardbx_columnar::ColumnIndex;
use polardbx_common::time::Timer;
use polardbx_common::{
    DataType, DcId, Key, NodeId, Result, Row, TableId, TenantId, TenantQuotas, TrxId, Value,
};
use polardbx_consensus::{PaxosMsg, Replica};
use polardbx_front::wire::{self, Frame, FrameReader};
use polardbx_front::AdmissionControl;
use polardbx_hlc::{Clock, Hlc};
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use polardbx_storage::{StorageEngine, SyncLocalDurability, WriteOp};
use polardbx_wal::{EpochConfig, LocalEpochSink, LogBuffer, LogSink, Mtr, RedoPayload, VecSink};

use crate::stats;

/// Metric name → value, in name order.
pub type Metrics = BTreeMap<&'static str, f64>;

const T: TableId = TableId(1);
/// Rows written after the load go here, so that the copy keeps its size.
const SCRATCH: TableId = TableId(2);
const WAIT: Duration = Duration::from_secs(10);

/// CPU time (user + system, all threads) this process has used, in seconds.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in clock ticks of 1/100 s.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median nanoseconds of `f` over `n` calls.
fn median_ns(n: usize, mut f: impl FnMut(usize) -> Result<()>) -> Result<f64> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t = Timer::start();
        f(i)?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    Ok(stats::percentile(&stats::sorted(&samples), 0.5) as f64)
}

/// Mean nanoseconds per call of `f` over one timed loop of `n` calls, for
/// calls too short to time one by one.
fn mean_ns(n: usize, mut f: impl FnMut(usize) -> Result<()>) -> Result<f64> {
    let t = Timer::start();
    for i in 0..n {
        f(i)?;
    }
    Ok(t.elapsed().as_nanos() as f64 / n as f64)
}

/// A storage engine outside any cluster, holding a copy of the workload's
/// main table, so that engine calls can be timed without routing, messages
/// or SQL around them.
pub struct Standalone {
    engine: Arc<StorageEngine>,
    rows: usize,
    next: u64,
}

impl Standalone {
    /// Load `rows`, one committed transaction each, keyed by position.
    pub fn load(rows: &[Row]) -> Result<Standalone> {
        let engine = StorageEngine::in_memory();
        engine.create_table(T, TenantId(1));
        engine.create_table(SCRATCH, TenantId(1));
        let mut standalone = Standalone {
            engine,
            rows: rows.len(),
            next: 0,
        };
        for row in rows {
            standalone.write_to(T, row)?;
            standalone.commit()?;
        }
        Ok(standalone)
    }

    fn write_to(&mut self, table: TableId, row: &Row) -> Result<()> {
        self.next += 1;
        let trx = TrxId(self.next);
        self.engine.begin(trx, self.next);
        let key = Key::encode(&[Value::Int(self.next as i64)]);
        self.engine
            .write(trx, table, key, WriteOp::Insert(row.clone()))
    }

    /// `begin` + `write` of one new row.
    pub fn write(&mut self, row: &Row) -> Result<()> {
        self.write_to(SCRATCH, row)
    }

    /// `commit` of the row written last.
    pub fn commit(&mut self) -> Result<()> {
        self.engine.commit(TrxId(self.next), self.next).map(|_| ())
    }

    /// `scan_table` of the loaded copy.
    fn scan(&self) -> Result<usize> {
        self.engine.scan_table(T, u64::MAX).map(|rows| rows.len())
    }

    fn storage_metrics(&mut self, sample: &Row, m: &mut Metrics) -> Result<()> {
        let loaded = self.rows.max(1);
        let point = mean_ns(20_000, |i| {
            let key = Key::encode(&[Value::Int((i % loaded) as i64 + 1)]);
            self.engine.read(T, &key, u64::MAX, None).map(|row| {
                std::hint::black_box(row);
            })
        })?;
        m.insert("storage.point_read_ns", point);
        let scan = median_ns(9, |_| {
            self.scan().map(|n| {
                std::hint::black_box(n);
            })
        })?;
        m.insert(
            "storage.scan_us_per_krow",
            scan / 1e3 / (loaded as f64 / 1e3),
        );
        let commits = median_ns(300, |_| {
            self.write(sample)?;
            self.commit()
        })?;
        m.insert("storage.write_commit_us", commits / 1e3);
        let wal = self
            .engine
            .wal_metrics()
            .map_or(0.0, |w| w.flushes_per_commit());
        m.insert("wal.flushes_per_commit", wal);
        Ok(())
    }
}

/// `wire::write_frame` + `FrameReader::read_frame` through memory.
fn codec_ns_per_frame(sql: &str) -> Result<f64> {
    const FRAMES: usize = 5_000;
    let frame = Frame::Query {
        sql: sql.to_string(),
    };
    let mut buf = Vec::new();
    let t = Timer::start();
    for _ in 0..FRAMES {
        wire::write_frame(&mut buf, &frame)?;
    }
    let mut reader = FrameReader::new(&buf[..]);
    for _ in 0..FRAMES {
        std::hint::black_box(reader.read_frame()?);
    }
    Ok(t.elapsed().as_nanos() as f64 / FRAMES as f64)
}

/// `AdmissionControl::admit` and the permit's drop, for an unlimited tenant.
fn admission_ns_per_op() -> Result<f64> {
    let admission = AdmissionControl::new();
    let tenant = TenantId(1);
    admission.register(tenant, TenantQuotas::unlimited());
    mean_ns(50_000, |_| admission.admit(tenant).map(drop))
}

/// Commit through an `EpochPipeline` and wait for its ticket.
fn epoch_commit_us(sample: &Row) -> Result<f64> {
    let log = LogBuffer::new(VecSink::new() as Arc<dyn LogSink>);
    let engine = StorageEngine::with_durability(SyncLocalDurability::new(Arc::clone(&log)));
    let pipe = engine.enable_epoch(LocalEpochSink::new(log), EpochConfig::default());
    engine.create_table(T, TenantId(1));
    let ns = median_ns(200, |i| {
        let id = i as u64 + 1;
        engine.begin(TrxId(id), id);
        engine.write(
            TrxId(id),
            T,
            Key::encode(&[Value::Int(id as i64)]),
            WriteOp::Insert(sample.clone()),
        )?;
        let ticket = engine.commit_pipelined(TrxId(id), id)?;
        pipe.wait_ticket(ticket, WAIT).map(|_| ())
    })?;
    pipe.stop();
    Ok(ns / 1e3)
}

/// `Replica::replicate` + majority wait: three replicas, zero-latency net.
fn replicate_us() -> Result<f64> {
    let net: Arc<SimNet<PaxosMsg>> = SimNet::new(LatencyMatrix::zero());
    let members = vec![NodeId(1), NodeId(2), NodeId(3)];
    let mut replicas = Vec::new();
    for (i, &node) in members.iter().enumerate() {
        let dc = DcId(i as u64 + 1);
        let sink = VecSink::new() as Arc<dyn LogSink>;
        let replica = Replica::new(node, dc, members.clone(), false, Arc::clone(&net), sink);
        net.register(node, dc, Arc::clone(&replica) as Arc<dyn Handler<PaxosMsg>>);
        replicas.push(replica);
    }
    replicas[0].bootstrap_leader(1);
    let ns = median_ns(200, |i| {
        let record = RedoPayload::TxnCommit {
            trx: TrxId(i as u64 + 1),
            commit_ts: i as u64 + 1,
        };
        replicas[0]
            .replicate_and_wait(&[Mtr::single(record)], WAIT)
            .map(|_| ())
    })?;
    Ok(ns / 1e3)
}

/// Build a `ColumnIndex` over `rows`, then snapshot it and run a filter and
/// a sum kernel over its first column; both per 100 000 rows.
fn columnar_metrics(types: &[DataType], rows: &[Row], m: &mut Metrics) -> Result<()> {
    let per_100k = 1e5 / rows.len().max(1) as f64;
    let t = Timer::start();
    let index = ColumnIndex::new(types.to_vec());
    for (i, row) in rows.iter().enumerate() {
        index.apply_put(TrxId(0), 1, Key::encode(&[Value::Int(i as i64)]), row)?;
    }
    m.insert(
        "columnar.build_ms_per_100k_rows",
        t.elapsed().as_secs_f64() * 1e3 * per_100k,
    );
    let scan = median_ns(9, |_| {
        let snap = index.snapshot(1);
        let kept =
            kernels::filter_cmp(&snap.columns[0], &snap.selection, CmpOp::Ge, &Value::Int(0))?;
        std::hint::black_box(kernels::sum(&snap.columns[0], &kept)?);
        Ok(())
    })?;
    m.insert("columnar.scan_ms_per_100k_rows", scan / 1e6 * per_100k);
    Ok(())
}

/// Every stand-alone number. `rows` are the rows of the workload's main
/// table `table`, whose visible columns have `types`; `sql` is one of the
/// workload's statements.
pub fn measure(
    session: &Session,
    table: &str,
    types: &[DataType],
    rows: &[Row],
    standalone: &mut Standalone,
    sql: &str,
    m: &mut Metrics,
) -> Result<()> {
    let sample = rows.first().cloned().unwrap_or_else(Row::empty);
    m.insert("front.codec_ns_per_frame", codec_ns_per_frame(sql)?);
    m.insert("front.admission_ns_per_op", admission_ns_per_op()?);
    let span = rows.len().max(1) as i64;
    let route = mean_ns(20_000, |i| {
        session
            .route_fenced(table, &[Value::Int(i as i64 % span)])
            .map(|r| {
                std::hint::black_box(r);
            })
    })?;
    m.insert("core.route_ns_per_key", route);
    let hlc = Hlc::new();
    m.insert(
        "hlc.now_ns",
        mean_ns(200_000, |_| {
            std::hint::black_box(hlc.now());
            Ok(())
        })?,
    );
    standalone.storage_metrics(&sample, m)?;
    m.insert("wal.epoch_commit_us", epoch_commit_us(&sample)?);
    m.insert("consensus.replicate_us", replicate_us()?);
    columnar_metrics(types, rows, m)
}
