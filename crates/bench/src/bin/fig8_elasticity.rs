//! Fig 8 — Elasticity: PolarDB-MT tenant migration vs data transfer.
//!
//! §VII-B: a cluster doubles three times while a sysbench oltp-read-write
//! load runs in the background. With PolarDB-MT, each scaling step only
//! re-binds tenants (flush dirty pages + metadata), completing in seconds;
//! with the shared-nothing data-transfer method the same step must copy
//! every row, taking 116–143× longer at the paper's 40 GB scale.
//!
//! This harness runs both methods at laptop scale and additionally prices
//! the copy baseline at the paper's production scale (40 GB per step,
//! 75 MB/s effective) through the bandwidth model.
//!
//! Run: `cargo run --release -p polardbx-bench --bin fig8_elasticity [--quick]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polardbx_bench::{fmt_dur, header, quick, row};
use polardbx_common::{Key, NodeId, Result, Row, TableId, TenantId, Value};
use polardbx_mt::{
    migrate_by_copy, migrate_tenant, BindingTable, DataDictionary, MtRwNode, Router,
};
use polardbx_polarfs::TransferModel;
use polardbx_storage::WriteOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct World {
    bindings: Arc<BindingTable>,
    dict: Arc<DataDictionary>,
    router: Arc<Router>,
    tenants: Vec<TenantId>,
    #[allow(dead_code)]
    rows_per_tenant: i64,
    next_node: u64,
}

fn key(n: i64) -> Key {
    Key::encode(&[Value::Int(n)])
}

fn payload(n: i64) -> Row {
    // ~250 bytes per row, matching the paper's data shape.
    Row::new(vec![Value::Int(n), Value::Str("x".repeat(230))])
}

fn build(initial_nodes: u64, tenants: u64, rows_per_tenant: i64) -> World {
    let bindings = Arc::new(BindingTable::new(Duration::from_secs(60)));
    let dict = DataDictionary::new(NodeId(1));
    let router = Router::new(Arc::clone(&bindings));
    for n in 1..=initial_nodes {
        router.add_node(MtRwNode::new(NodeId(n), Arc::clone(&bindings)));
        bindings.acquire_lease(NodeId(n));
    }
    let mut ids = Vec::new();
    for t in 0..tenants {
        let tenant = TenantId(100 + t);
        let node_id = NodeId(1 + t % initial_nodes);
        bindings.bind(tenant, node_id);
    }
    for n in 1..=initial_nodes {
        bindings.acquire_lease(NodeId(n));
    }
    for t in 0..tenants {
        let tenant = TenantId(100 + t);
        let node_id = NodeId(1 + t % initial_nodes);
        let node = router.node(node_id).unwrap();
        node.create_table(TableId(tenant.raw()), tenant).unwrap();
        for i in 0..rows_per_tenant {
            node.write_row(tenant, TableId(tenant.raw()), key(i), WriteOp::Insert(payload(i)))
                .unwrap();
        }
        ids.push(tenant);
    }
    World {
        bindings,
        dict,
        router,
        tenants: ids,
        rows_per_tenant,
        next_node: initial_nodes + 1,
    }
}

/// One background-load worker op (sysbench oltp-read-write flavoured).
fn bg_op(
    router: &Router,
    tenants: &[TenantId],
    rows_per_tenant: i64,
    rng: &mut StdRng,
) -> Result<()> {
    let tenant = tenants[rng.gen_range(0..tenants.len())];
    let table = TableId(tenant.raw());
    let id = rng.gen_range(0..rows_per_tenant);
    router.execute(tenant, |node| {
        node.read_row(tenant, table, &key(id))?;
        node.write_row(tenant, table, key(id), WriteOp::Update(payload(id)))
    })
}

/// Modeled post-scaling throughput on the paper's hardware: each RW node
/// contributes a fixed service rate until the client fleet saturates. The
/// benchmark host has a single CPU, so the *measured* tps columns verify
/// non-disruption (before ≈ after, sub-ms pauses) while this model carries
/// the capacity story the paper's Fig 8(a) throughput gains show.
fn modeled_tps(nodes: u64) -> f64 {
    // tps(N) = T / (a + b/N): per-op client-side cost `a` plus server work
    // `b` spread over N nodes. b/a ≈ 60 reproduces the paper's tapering
    // gains (+113 %/94 %/68 % in Fig 8a; this model yields +88/79/65).
    const T: f64 = 140_000.0;
    const R: f64 = 59.4;
    T / (1.0 + R / nodes as f64)
}

fn main() {
    let rows_per_tenant: i64 = if quick() { 100 } else { 1000 };
    let tenants: u64 = if quick() { 16 } else { 32 };
    let settle = Duration::from_millis(if quick() { 1000 } else { 2000 });

    println!("# Fig 8 — elasticity: PolarDB-MT vs data transfer");
    println!(
        "  {} tenants × {} rows (~250 B/row); background oltp-read-write load",
        tenants, rows_per_tenant
    );
    println!();

    let mut world = build(4, tenants, rows_per_tenant);
    let model = TransferModel::paper_default();
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

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let bg_router = Arc::clone(&world.router);
    let bg_tenants = world.tenants.clone();
    let bg_threads = if quick() { 8 } else { 16 };
    let mut unmoved = 0usize; // planned migrations that failed, over all steps
    // Background load threads run across the whole experiment.
    std::thread::scope(|s| {
        for t in 0..bg_threads {
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            let router = Arc::clone(&bg_router);
            let tenants = bg_tenants.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    if bg_op(&router, &tenants, rows_per_tenant, &mut rng).is_ok() {
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // MVCC garbage collection (every real deployment runs this): purge
        // superseded versions so throughput reflects steady state, not an
        // ever-growing version chain.
        {
            let stop = Arc::clone(&stop);
            let router = Arc::clone(&bg_router);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for node in router.nodes() {
                        node.rw.engine.purge(u64::MAX);
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }

        let tps = |window: Duration| -> f64 {
            let before = ops.load(Ordering::Relaxed);
            std::thread::sleep(window);
            (ops.load(Ordering::Relaxed) - before) as f64 / window.as_secs_f64()
        };

        let mut nodes = 4u64;
        for step in 1..=3 {
            let tps_before = tps(settle);
            let t0 = Instant::now();
            // Scale out: double the node count, migrate half of each old
            // node's tenants to the newcomers (GMS plans pairs; migrations
            // of distinct pairs can run in parallel, §V).
            let new_nodes: Vec<NodeId> =
                (0..nodes).map(|i| NodeId(world.next_node + i)).collect();
            for &n in &new_nodes {
                world.router.add_node(MtRwNode::new(n, Arc::clone(&world.bindings)));
                world.bindings.acquire_lease(n);
            }
            world.next_node += nodes;
            // Plan: move every tenant currently on node k to new node k'.
            let mut max_pause = Duration::ZERO;
            let (mut planned, mut moved) = (0usize, 0usize);
            for (i, &tenant) in world.tenants.iter().enumerate() {
                if i % 2 == 0 {
                    continue; // half the tenants move each step
                }
                planned += 1;
                let dest = new_nodes[(i / 2) % new_nodes.len()];
                match migrate_tenant(
                    &world.router,
                    &world.dict,
                    &world.bindings,
                    tenant,
                    dest,
                ) {
                    Ok(report) => {
                        max_pause = max_pause.max(report.pause);
                        moved += 1;
                    }
                    Err(e) => eprintln!("  migration of {tenant} failed: {e}"),
                }
            }
            let scale_time = t0.elapsed();
            nodes *= 2;
            let tps_after = tps(settle);

            let copy_time = model.transfer_time(production_bytes_per_step);
            row(&[
                format!("{step}"),
                format!("{}→{}", nodes / 2, nodes),
                format!("{moved} / {planned}"),
                fmt_dur(scale_time),
                fmt_dur(max_pause),
                format!("{tps_before:.0}"),
                format!("{tps_after:.0}"),
                format!(
                    "{:+.0}%",
                    (modeled_tps(nodes) / modeled_tps(nodes / 2) - 1.0) * 100.0
                ),
                fmt_dur(copy_time),
                format!("{:.0}x", copy_time.as_secs_f64() / scale_time.as_secs_f64()),
            ]);
            unmoved += planned - moved;
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(unmoved, 0, "planned migrations that did not happen");

    println!();
    println!("  Paper: MT steps 4.2/4.5/4.6 s; data transfer 489/527/660 s (116–143x).");
    println!("  Laptop-scale MT steps are sub-second; the copy baseline is priced at");
    println!("  the paper's 40 GB volume through the bandwidth model (75 MB/s).");

    // Also demonstrate a real (laptop-scale) row copy for one tenant.
    let t0 = Instant::now();
    let report = migrate_by_copy(
        &world.router,
        &world.bindings,
        world.tenants[0],
        NodeId(world.next_node - 1),
        &model,
    )
    .unwrap();
    println!();
    println!(
        "  Real row-copy of one tenant ({} rows, {} KiB): {} measured; {} modeled at paper scale",
        report.rows,
        report.bytes / 1024,
        fmt_dur(t0.elapsed()),
        fmt_dur(model.transfer_time(production_bytes_per_step)),
    );
}
