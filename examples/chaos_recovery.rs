//! Chaos fabric demo: seeded fault injection + 2PC in-doubt recovery.
//!
//! Cross-DC links drop and duplicate messages under a seeded fault plan
//! while a coordinator runs two-phase commits against three DNs; then a
//! coordinator is crashed right after its participants voted yes, and the
//! stranded participants commit by asking each other for their votes. The
//! same seed replays the exact same fault sequence:
//!
//! ```sh
//! cargo run --release --example chaos_recovery [seed]
//! ```

use std::sync::Arc;
use std::time::Duration;

use polardbx_common::{DcId, IdGenerator, Key, NodeId, Row, TableId, TenantId, Value};
use polardbx_hlc::Hlc;
use polardbx_simnet::{FaultPlan, Handler, LatencyMatrix, LinkFaults, SimNet};
use polardbx_storage::{StorageEngine, TxnState};
use polardbx_txn::{
    Coordinator, DnService, ResolverConfig, TxnConfig, TxnMsg, WireWriteOp,
};

struct CnStub;
impl Handler<TxnMsg> for CnStub {
    fn handle(&self, _f: NodeId, m: TxnMsg) -> TxnMsg {
        m
    }
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xC4A0_5EED);

    // Three DNs in three DCs, a CN in DC1; every DN runs a resolver that
    // settles what the coordinator leaves in doubt by its peers' votes.
    let net: Arc<SimNet<TxnMsg>> = SimNet::new(LatencyMatrix::zero());
    let mut dns = Vec::new();
    for i in 1..=3u64 {
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(i), engine, Hlc::new());
        net.register(NodeId(i), DcId(i), dn.clone() as Arc<dyn Handler<TxnMsg>>);
        dns.push(dn);
    }
    net.register(NodeId(9), DcId(1), Arc::new(CnStub));
    let resolver_cfg = ResolverConfig {
        interval: Duration::from_millis(10),
        in_doubt_after: Duration::from_millis(50),
        abandon_active_after: Duration::from_millis(150),
    };
    let _resolvers: Vec<_> =
        dns.iter().map(|d| d.start_resolver(Arc::clone(&net), resolver_cfg)).collect();
    // Both coordinators draw from one id space: a DN never re-opens a
    // transaction id it has already seen decided.
    let trx_ids = Arc::new(IdGenerator::new());
    let coord = Coordinator::new(NodeId(9), Arc::clone(&net), Hlc::new(), Arc::clone(&trx_ids))
    .with_config(TxnConfig {
        max_attempts: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
    });

    println!("== phase 1: 2PC under seeded chaos (seed {seed:#x}) ==");
    net.set_fault_plan(
        FaultPlan::new(seed).with_cross_dc(LinkFaults::lossy(0.08).with_duplicate(0.05)),
    );
    let (mut committed, mut aborted) = (0, 0);
    for i in 0..20i64 {
        let mut txn = coord.begin();
        let wrote = txn
            .write(NodeId(2), TableId(1), Key::encode(&[Value::Int(i)]),
                   WireWriteOp::Insert(Row::new(vec![Value::Int(i)])))
            .and_then(|_| txn.write(NodeId(3), TableId(1), Key::encode(&[Value::Int(i)]),
                                    WireWriteOp::Insert(Row::new(vec![Value::Int(i)]))))
            .is_ok();
        let ok = wrote && txn.commit().is_ok();
        if ok { committed += 1 } else { aborted += 1 }
    }
    println!("  {committed} committed, {aborted} aborted/in-doubt");
    println!("  fault stats: {}", net.fault_stats.report());
    println!("  coordinator: {}", coord.metrics().report());

    println!("== phase 2: coordinator crash after the votes ==");
    net.clear_fault_plan();
    net.register(NodeId(10), DcId(1), Arc::new(CnStub));
    let net_fp = Arc::clone(&net);
    let doomed = Coordinator::new(NodeId(10), Arc::clone(&net), Hlc::new(), trx_ids)
        .with_failpoint(Arc::new(move |point| {
            if point == "txn.after_votes" {
                println!("  !! crashing CN node10 at {point}");
                net_fp.crash(NodeId(10));
            }
        }));
    let mut txn = doomed.begin();
    let k = Key::encode(&[Value::Int(777)]);
    txn.write(NodeId(2), TableId(1), k.clone(), WireWriteOp::Insert(Row::new(vec![Value::Int(777)]))).unwrap();
    txn.write(NodeId(3), TableId(1), k.clone(), WireWriteOp::Insert(Row::new(vec![Value::Int(777)]))).unwrap();
    let trx = txn.id();
    let commit_ts = txn.commit().expect("every vote was yes before the crash");
    println!("  commit decided at ts {commit_ts}; phase-2 posts were black-holed");

    // The stranded participants must finish the job by their votes.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline
        && dns.iter().any(|d| d.engine.has_active_txns() || d.in_doubt_count() > 0)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    for (i, dn) in dns.iter().enumerate() {
        assert!(!dn.engine.has_active_txns(), "DN{} still has active txns", i + 1);
    }
    for dn in &dns[1..] {
        assert_eq!(
            dn.engine.txn_state(trx),
            Some(TxnState::Committed { commit_ts }),
            "{}: a stranded participant must commit at the max prepare_ts",
            dn.node
        );
        assert!(dn.engine.read(TableId(1), &k, commit_ts, None).unwrap().is_some());
    }
    println!("  the stranded participants committed at ts {commit_ts} on DN2 and DN3");
    for (i, dn) in dns.iter().enumerate() {
        println!("  DN{}: {}", i + 1, dn.metrics.report());
    }
    println!("  fault stats: {}", net.fault_stats.report());
    println!("ok: no transaction left active or in doubt");
}
