//! Fig 8 — Elasticity: tenant migration vs data transfer.
//!
//! §VII-B: a cluster doubles three times while a sysbench oltp-read-write
//! load runs in the background. With PolarDB-MT each scaling step only
//! re-binds tenants (the paper flushes dirty pages and moves metadata;
//! here the stores move by reference and nothing is flushed), completing
//! in seconds;
//! with the shared-nothing data-transfer method the same step must copy
//! every row, taking 116–143× longer at the paper's 40 GB scale.
//!
//! Each step here is `PolarDbx::migrate_tenant` — the shard cutover of the
//! cluster SQL clients use — under `Session` background load. The cluster
//! is built at its final size; the tenants' tables start on the first four
//! DNs, and every step moves half of each loaded DN's tenants to an idle
//! one. The copy baseline (Fig 8b) is priced at the paper's 40 GB per step
//! through a bandwidth model, and run for real on one tenant at the end.
//!
//! Run: `cargo run --release -p polardbx-bench --bin fig8_elasticity [--quick]`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use polardbx::gms::shard_table_id;
use polardbx::{ClusterConfig, PolarDbx};
use polardbx_bench::{fmt_dur, header, quick, row};
use polardbx_common::{DcId, Error, NodeId, Result, TenantId, TenantQuotas, TrxId};
use polardbx_storage::WriteOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DNs holding the tenants before the first step.
const START_DNS: usize = 4;
/// Doubling steps.
const STEPS: u32 = 3;
/// Tenants: enough that each step moves half of every loaded DN's.
const TENANTS: usize = 32;

/// Bandwidth model for bulk data movement: prices the shared-nothing
/// "data transfer" baseline of Fig 8(b) at production scale.
struct TransferModel {
    /// Sustained copy bandwidth in bytes/second (network + storage bound).
    bandwidth_bytes_per_sec: u64,
    /// Fixed per-transfer setup cost.
    setup: Duration,
}

impl TransferModel {
    /// The paper's elasticity experiment moved 40 GB in ~489-660 s per step,
    /// i.e. an effective ~60-80 MB/s including re-sharding overhead; 75 MB/s.
    const PAPER: TransferModel =
        TransferModel { bandwidth_bytes_per_sec: 75 * 1024 * 1024, setup: Duration::from_secs(2) };

    /// Time to move `bytes`.
    fn transfer_time(&self, bytes: u64) -> Duration {
        self.setup + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec as f64)
    }
}

/// What the copy baseline moved.
struct CopyReport {
    rows: usize,
    bytes: u64,
}

/// The shared-nothing baseline: move `tenant` to `dest` by scanning every
/// row out of its source DN and inserting it at `dest`, one transaction per
/// row — the data path a system without shared storage takes. Run it with
/// the tenant's traffic stopped: it pauses no routing.
fn migrate_by_copy(db: &PolarDbx, tenant: TenantId, dest: NodeId) -> Result<CopyReport> {
    let dns = db.dns();
    let dn = |id: NodeId| {
        dns.iter().find(|dn| dn.id == id).ok_or_else(|| Error::invalid(format!("unknown DN {id}")))
    };
    let dst = dn(dest)?;
    let (mut rows, mut bytes) = (0usize, 0u64);
    for (table, shard) in db.gms().tenant_shards(tenant) {
        let src = dn(db.gms().shard_dn(table, shard)?)?;
        if src.id == dest {
            continue;
        }
        let stid = shard_table_id(table, shard);
        dst.rw.create_table(stid);
        dst.service.clock.update(src.service.clock.now());
        for (key, row) in src.rw.engine.scan_table(stid, u64::MAX)? {
            bytes += (key.len() + row.heap_size()) as u64;
            let trx = TrxId(u64::MAX - rows as u64);
            dst.rw.engine.begin(trx, dst.service.clock.now().raw());
            dst.rw.engine.write(trx, stid, key, WriteOp::Insert(row))?;
            dst.rw.engine.commit(trx, dst.service.clock.now().raw())?;
            rows += 1;
        }
        src.rw.detach_table(stid);
        db.gms().move_shard(table, shard, dest);
    }
    Ok(CopyReport { rows, bytes })
}

/// One tenant's table: `rows` rows of ~250 bytes, the paper's data shape.
fn create_tenant(db: &PolarDbx, i: usize, rows: i64) -> (TenantId, String) {
    let tenant = db.register_tenant(&format!("tenant{i}"), TenantQuotas::unlimited());
    let session = db.connect(DcId(1)).for_tenant(tenant);
    let table = format!("sbtest{i}");
    session
        .execute(&format!(
            "CREATE TABLE {table} (id BIGINT NOT NULL, k BIGINT, c VARCHAR(255), \
             PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 4"
        ))
        .expect("create tenant table");
    let pad = "x".repeat(230);
    for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk.iter().map(|id| format!("({id}, 0, '{pad}')")).collect();
        session
            .execute(&format!("INSERT INTO {table} (id, k, c) VALUES {}", values.join(",")))
            .expect("load tenant table");
    }
    (tenant, table)
}

/// One background-load op (sysbench oltp-read-write flavoured).
fn bg_op(session: &polardbx::Session, tables: &[(TenantId, String)], rows: i64, rng: &mut StdRng) -> Result<()> {
    let (_, table) = &tables[rng.gen_range(0..tables.len())];
    let id = rng.gen_range(0..rows);
    session.query(&format!("SELECT c FROM {table} WHERE id = {id}"))?;
    session.execute(&format!("UPDATE {table} SET k = k + 1 WHERE id = {id}"))?;
    Ok(())
}

/// Modeled post-scaling throughput on the paper's hardware: each RW node
/// contributes a fixed service rate until the client fleet saturates. The
/// benchmark host has few cores, so the *measured* tps columns verify
/// non-disruption (before ≈ after, sub-second pauses) while this model
/// carries the capacity story the paper's Fig 8(a) throughput gains show.
fn modeled_tps(nodes: usize) -> f64 {
    // tps(N) = T / (a + b/N): per-op client-side cost `a` plus server work
    // `b` spread over N nodes. b/a ≈ 60 reproduces the paper's tapering
    // gains (+113 %/94 %/68 % in Fig 8a; this model yields +88/79/65).
    const T: f64 = 140_000.0;
    const R: f64 = 59.4;
    T / (1.0 + R / nodes as f64)
}

fn main() {
    let rows: i64 = if quick() { 100 } else { 1000 };
    let settle = Duration::from_millis(if quick() { 1000 } else { 2000 });
    let bg_threads = if quick() { 8 } else { 16 };

    println!("# Fig 8 — elasticity: tenant migration vs data transfer");
    println!(
        "  {TENANTS} tenants × {rows} rows (~250 B/row); background oltp-read-write load"
    );
    println!();

    let db = PolarDbx::build(ClusterConfig {
        dns: (START_DNS << STEPS) as u32,
        ..Default::default()
    })
    .expect("build cluster");
    let dns = db.gms().dns();
    let tables: Vec<(TenantId, String)> = (0..TENANTS).map(|i| create_tenant(&db, i, rows)).collect();
    // Tenant i starts on DN i mod 4.
    let mut homes: Vec<usize> = (0..TENANTS).map(|i| i % START_DNS).collect();
    for (i, (tenant, _)) in tables.iter().enumerate() {
        db.migrate_tenant(*tenant, dns[homes[i]]).expect("initial placement");
    }
    // Production-scale pricing: each step moves half the 40 GB volume.
    let production_bytes_per_step: u64 = 20 * (1 << 30);

    header(&[
        "step",
        "nodes",
        "moved / planned",
        "MT scale time",
        "max pause",
        "tps before",
        "tps after",
        "modeled gain (paper hw)",
        "copy (modeled, paper scale)",
        "ratio",
    ]);

    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let fatal: Mutex<Vec<Error>> = Mutex::new(Vec::new());
    let mut unmoved = 0usize; // planned migrations that failed, over all steps
    std::thread::scope(|s| {
        for t in 0..bg_threads {
            let session = db.connect_nth(t);
            let (stop, ops, fatal, tables) = (&stop, &ops, &fatal, &tables);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    match bg_op(&session, tables, rows, &mut rng) {
                        Ok(()) => drop(ops.fetch_add(1, Ordering::Relaxed)),
                        Err(e) if e.is_retryable() => {}
                        Err(e) => fatal.lock().expect("error list").push(e),
                    }
                }
            });
        }

        // MVCC garbage collection (as in placement_bench): the horizon lags
        // 100 ms of HLC physical time behind each DN's clock, far beyond
        // this workload's transaction lifetime, so no snapshot in flight
        // loses its visible version while hot rows keep short chains.
        s.spawn(|| {
            const LAG: u64 = 100 << 16;
            while !stop.load(Ordering::Relaxed) {
                for dn in db.dns() {
                    dn.rw.engine.purge(dn.service.clock.now().raw().saturating_sub(LAG));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        let tps = |window: Duration| -> f64 {
            let before = ops.load(Ordering::Relaxed);
            std::thread::sleep(window);
            (ops.load(Ordering::Relaxed) - before) as f64 / window.as_secs_f64()
        };

        let mut live = START_DNS;
        for step in 1..=STEPS {
            let tps_before = tps(settle);
            let t0 = Instant::now();
            // Scale out: every loaded DN k hands every other tenant it
            // holds to the idle DN k + live.
            let mut plan = Vec::new();
            for k in 0..live {
                let on_k = (0..TENANTS).filter(|&i| homes[i] == k);
                plan.extend(on_k.skip(1).step_by(2).map(|i| (i, k + live)));
            }
            let mut max_pause = Duration::ZERO;
            let mut moved = 0usize;
            for &(i, dest) in &plan {
                match db.migrate_tenant(tables[i].0, dns[dest]) {
                    Ok(pause) => {
                        max_pause = max_pause.max(pause);
                        homes[i] = dest;
                        moved += 1;
                    }
                    Err(e) => eprintln!("  migration of {} failed: {e}", tables[i].0),
                }
            }
            let scale_time = t0.elapsed();
            live *= 2;
            let tps_after = tps(settle);

            let copy_time = TransferModel::PAPER.transfer_time(production_bytes_per_step);
            row(&[
                format!("{step}"),
                format!("{}→{}", live / 2, live),
                format!("{moved} / {}", plan.len()),
                fmt_dur(scale_time),
                fmt_dur(max_pause),
                format!("{tps_before:.0}"),
                format!("{tps_after:.0}"),
                format!("{:+.0}%", (modeled_tps(live) / modeled_tps(live / 2) - 1.0) * 100.0),
                fmt_dur(copy_time),
                format!("{:.0}x", copy_time.as_secs_f64() / scale_time.as_secs_f64()),
            ]);
            unmoved += plan.len() - moved;
        }
        stop.store(true, Ordering::Relaxed);
    });
    let fatal = fatal.into_inner().expect("error list");
    assert!(fatal.is_empty(), "background load saw non-retryable errors: {fatal:?}");
    assert_eq!(unmoved, 0, "planned migrations that did not happen");

    println!();
    println!("  Paper: MT steps 4.2/4.5/4.6 s; data transfer 489/527/660 s (116–143x).");
    println!("  Laptop-scale MT steps are sub-second; the copy baseline is priced at");
    println!("  the paper's 40 GB volume through the bandwidth model (75 MB/s, modeled).");

    // A real (laptop-scale) row copy of one tenant, load stopped.
    let (tenant, table) = &tables[0];
    let dest = dns[homes[1]];
    let t0 = Instant::now();
    let report = migrate_by_copy(&db, *tenant, dest).expect("row copy");
    let elapsed = t0.elapsed();
    assert_eq!(db.count_rows(table).expect("count copied rows"), rows as usize);
    println!();
    println!(
        "  Real row-copy of one tenant ({} rows, {} KiB): {} measured; {} modeled at paper scale",
        report.rows,
        report.bytes / 1024,
        fmt_dur(elapsed),
        fmt_dur(TransferModel::PAPER.transfer_time(production_bytes_per_step)),
    );
    db.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_model_scales_linearly() {
        let m = TransferModel { bandwidth_bytes_per_sec: 100, setup: Duration::from_secs(1) };
        assert_eq!(m.transfer_time(0), Duration::from_secs(1));
        assert_eq!(m.transfer_time(1000), Duration::from_secs(11));
        // Paper scale: 40 GB lands in the few-hundred-seconds range that
        // Fig 8(b) reports.
        let t = TransferModel::PAPER.transfer_time(40 * (1 << 30));
        assert!(t > Duration::from_secs(400) && t < Duration::from_secs(800), "{t:?}");
    }

    #[test]
    fn copy_baseline_moves_every_row_of_the_tenant() {
        let db = PolarDbx::build(ClusterConfig { dns: 2, default_shards: 2, ..Default::default() })
            .unwrap();
        let (tenant, table) = create_tenant(&db, 0, 10);
        let [from, to] = db.gms().dns()[..] else { unreachable!() };
        db.migrate_tenant(tenant, from).unwrap();
        let report = migrate_by_copy(&db, tenant, to).unwrap();
        assert_eq!(report.rows, 10);
        assert!(report.bytes > 10 * 230);
        for (t, shard) in db.gms().tenant_shards(tenant) {
            assert_eq!(db.gms().shard_dn(t, shard).unwrap(), to);
        }
        assert_eq!(db.count_rows(&table).unwrap(), 10);
        db.shutdown();
    }
}
