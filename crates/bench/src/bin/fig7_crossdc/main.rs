//! Fig 7 — Cross-DC distributed transactions: HLC-SI vs TSO-SI vs Clock-SI.
//!
//! Deployment mirrors §VII-A: three datacenters, two CN servers and one DN
//! per DC, ~1 ms cross-DC RTT. For TSO-SI the oracle lives in DC1, so
//! coordinators in DC2/DC3 pay a full cross-DC round trip for every
//! timestamp (two per read-write transaction). Sysbench oltp-write-only
//! and oltp-read-only run in closed loop; the table reports peak
//! throughput and latency per scheme.
//!
//! Fig 7 is the one cluster built by hand: TSO-SI and Clock-SI are
//! baselines no `PolarDbx` runs, and their clocks ([`tso`], [`clocksi`])
//! live here with the [`sysbench`] mixes that drive them.
//!
//! Run: `cargo run --release -p polardbx-bench --bin fig7_crossdc [--quick]`

use std::sync::Arc;
use std::time::Duration;

mod clocksi;
mod sysbench;
mod tso;

use polardbx_bench::{closed_loop, fmt_dur, header, quick, row};
use polardbx_common::{DcId, IdGenerator, NodeId, TableId, TenantId};
use polardbx_hlc::{Clock, Hlc, RealClock, SkewedClock};
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use polardbx_storage::StorageEngine;
use polardbx_txn::{Coordinator, DnService, TxnMetrics, TxnMsg};
use rand::rngs::StdRng;
use rand::SeedableRng;

use clocksi::ClockSiClock;
use sysbench::{RouteFn, SysbenchConfig};
use tso::{TsoClient, TsoMsg, TsoServer};

struct CnStub;
impl Handler<TxnMsg> for CnStub {
    fn handle(&self, _f: NodeId, m: TxnMsg) -> TxnMsg {
        m
    }
}

struct TsoStub;
impl Handler<TsoMsg> for TsoStub {
    fn handle(&self, _f: NodeId, m: TsoMsg) -> TsoMsg {
        m
    }
}

// The paper's own names for the three snapshot-isolation schemes.
#[allow(clippy::enum_variant_names)]
#[derive(Clone, Copy, Debug, PartialEq)]
enum Scheme {
    HlcSi,
    TsoSi,
    ClockSi,
}

struct World {
    coordinators: Vec<Arc<Coordinator>>, // 2 per DC, 6 total
    dns: Vec<Arc<StorageEngine>>,        // 1 per DC
    route: Box<RouteFn>,
    cfg: SysbenchConfig,
    /// Shared across every coordinator, so one report covers the world.
    txn_metrics: Arc<TxnMetrics>,
}

/// The table charges no flush cost: every DN commits over an instant
/// sink, so the cells isolate the SI schemes themselves.
fn build(scheme: Scheme, latency: LatencyMatrix) -> World {
    let net = SimNet::new(latency.clone());
    let trx_ids = Arc::new(IdGenerator::new());
    let cfg = SysbenchConfig { rows: 3000, ..Default::default() };

    // TSO infrastructure (its own fabric, same latency model).
    let tso_net = SimNet::new(latency);
    let tso_node = NodeId(500);
    tso_net.register(tso_node, DcId(1), TsoServer::new());

    // Nodes have imperfect NTP sync: ±3 ms of skew, applied identically to
    // the decentralized schemes. HLC absorbs it through the logical clock;
    // Clock-SI must wait it out (§IV).
    let skew_counter = std::sync::atomic::AtomicI64::new(0);
    let clock_for = |node: NodeId, dc: DcId| -> Arc<dyn Clock> {
        let skew = (skew_counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 7) - 3;
        match scheme {
            Scheme::HlcSi => Hlc::with_physical(SkewedClock::new(Arc::new(RealClock), skew)),
            Scheme::TsoSi => {
                tso_net.register(node, dc, Arc::new(TsoStub) as Arc<dyn Handler<TsoMsg>>);
                TsoClient::new(Arc::clone(&tso_net), node, tso_node)
            }
            Scheme::ClockSi => {
                ClockSiClock::new(SkewedClock::new(Arc::new(RealClock), skew), 8)
            }
        }
    };

    // One DN per DC hosting one shard table.
    let base_table = cfg.table.raw() * 10;
    let mut dns = Vec::new();
    for dc in 1..=3u64 {
        let dn_id = NodeId(100 + dc);
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(base_table + dc), TenantId(1));
        dns.push(Arc::clone(&engine));
        let dn = DnService::new(dn_id, engine, clock_for(dn_id, DcId(dc)));
        net.register(dn_id, DcId(dc), dn as Arc<dyn Handler<TxnMsg>>);
    }
    // Two CNs per DC.
    let txn_metrics = Arc::new(TxnMetrics::new());
    let mut coordinators = Vec::new();
    for dc in 1..=3u64 {
        for c in 0..2u64 {
            let cn_id = NodeId(10 + dc * 2 + c);
            net.register(cn_id, DcId(dc), Arc::new(CnStub));
            coordinators.push(Arc::new(
                Coordinator::new(
                    cn_id,
                    Arc::clone(&net),
                    clock_for(cn_id, DcId(dc)),
                    Arc::clone(&trx_ids),
                )
                .with_metrics(Arc::clone(&txn_metrics)),
            ));
        }
    }
    let route: Box<RouteFn> = Box::new(move |id: i64| {
        let dc = 1 + (id as u64 % 3);
        (TableId(base_table + dc), NodeId(100 + dc))
    });
    World { coordinators, dns, route, cfg, txn_metrics }
}

fn main() {
    // The paper's testbed RTT is ~1 ms — `--quick` keeps it (shrinking the
    // latency would erase the very effect under test) and only shortens the
    // run.
    let latency = LatencyMatrix {
        intra_dc: Duration::from_micros(50),
        inter_dc: Duration::from_micros(500),
        jitter: 0.02,
    };
    let run_secs = if quick() { 1 } else { 3 };
    let threads = if quick() { 24 } else { 48 };

    println!("# Fig 7 — cross-DC transactions (3 DCs, RTT {:?})", latency.inter_dc * 2);
    println!();
    header(&["workload", "scheme", "threads", "tps", "mean lat", "p95 lat", "errors"]);

    for workload in ["oltp-write-only", "oltp-read-only"] {
        let mut peak: Vec<(Scheme, f64)> = Vec::new();
        for scheme in [Scheme::HlcSi, Scheme::TsoSi, Scheme::ClockSi] {
            let world = build(scheme, latency.clone());
            sysbench::seed(&world.cfg, &world.coordinators[0], &world.route, 1).unwrap();
            let cfg = &world.cfg;
            let route = &world.route;
            let coords = &world.coordinators;
            let result = closed_loop(threads, Duration::from_secs(run_secs), |t| {
                let coord = &coords[t % coords.len()];
                let mut rng = StdRng::seed_from_u64((t as u64) << 20 | rand::random::<u16>() as u64);
                let out = match workload {
                    "oltp-write-only" => sysbench::write_only(cfg, coord, route, &mut rng),
                    _ => sysbench::read_only(cfg, coord, route, &mut rng),
                };
                out.is_ok()
            });
            row(&[
                workload.to_string(),
                format!("{scheme:?}"),
                threads.to_string(),
                format!("{:.0}", result.tps()),
                fmt_dur(result.mean_latency),
                fmt_dur(result.p95_latency),
                result.errors.to_string(),
            ]);
            peak.push((scheme, result.tps()));
            // Commit-path shape: how many commits went one-phase vs full
            // 2PC (and any placement re-homes — none in this fixed world).
            if workload == "oltp-write-only" {
                println!("    {scheme:?} txn metrics: {}", world.txn_metrics.report());
            }
            // Concurrent committers on a DN share persists: report how
            // much flushing the workload actually shared (writes only —
            // reads never flush).
            if workload == "oltp-write-only" {
                let (mut commits, mut flushes) = (0u64, 0u64);
                for dn in &world.dns {
                    let m = &dn.pipeline().metrics;
                    commits += m.commits.get();
                    flushes += m.flushes.get();
                }
                println!(
                    "    {scheme:?} DN commit path: {commits} submissions in {flushes} flushes ({:.3} flushes/commit, mean group {:.1})",
                    flushes as f64 / commits.max(1) as f64,
                    commits as f64 / flushes.max(1) as f64,
                );
            }
        }
        let hlc = peak.iter().find(|(s, _)| *s == Scheme::HlcSi).unwrap().1;
        let tso = peak.iter().find(|(s, _)| *s == Scheme::TsoSi).unwrap().1;
        println!();
        println!(
            "  {workload}: HLC-SI vs TSO-SI throughput = {:.2}x (paper: ~1.19x peak write)",
            hlc / tso
        );
        println!();
    }
}
