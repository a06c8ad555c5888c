//! Distributed-systems integration tests spanning the consensus, storage,
//! transaction and multi-tenancy crates: cross-DC commits riding Paxos,
//! leader failover without losing committed data, per-tenant parallel
//! recovery, and snapshot isolation under real network latency.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, IdGenerator, Key, NodeId, Row, TableId, TenantId, TrxId, Value};
use polardbx_consensus::{GroupConfig, PaxosGroup, Role};
use polardbx_hlc::Hlc;
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use polardbx_storage::engine::RedoApplier;
use polardbx_storage::{StorageEngine, WriteOp};
use polardbx_txn::{
    checker, Coordinator, DnService, ResolverConfig, ResolverHandle, TxnConfig, TxnMsg,
    WireWriteOp,
};

fn key(n: i64) -> Key {
    Key::encode(&[Value::Int(n)])
}

fn row(n: i64) -> Row {
    Row::new(vec![Value::Int(n), Value::str("v")])
}

/// Fabric, coordinator, DN services and their resolver threads.
type ResolverCluster = (Arc<SimNet<TxnMsg>>, Coordinator, Vec<Arc<DnService>>, Vec<ResolverHandle>);

/// Two DNs in two DCs with running in-doubt resolvers, plus a CN in DC1
/// whose coordinator records commit decisions on DN1.
fn resolver_cluster() -> ResolverCluster {
    struct CnStub;
    impl Handler<TxnMsg> for CnStub {
        fn handle(&self, _f: NodeId, m: TxnMsg) -> TxnMsg {
            m
        }
    }
    let net = SimNet::new(LatencyMatrix::zero());
    let resolver_cfg = ResolverConfig {
        interval: Duration::from_millis(10),
        in_doubt_after: Duration::from_millis(40),
        abandon_active_after: Duration::from_millis(80),
    };
    let mut dns = Vec::new();
    let mut resolvers = Vec::new();
    for i in 1..=2u64 {
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(i), engine, Hlc::new());
        net.register(NodeId(i), DcId(i), dn.clone() as Arc<dyn Handler<TxnMsg>>);
        resolvers.push(dn.start_resolver(Arc::clone(&net), resolver_cfg).unwrap());
        dns.push(dn);
    }
    net.register(NodeId(9), DcId(1), Arc::new(CnStub));
    let coord = Coordinator::new(NodeId(9), Arc::clone(&net), Hlc::new(), Arc::new(IdGenerator::new()))
        .with_decision_log(NodeId(1))
        .with_config(TxnConfig {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        });
    (net, coord, dns, resolvers)
}

fn await_drained(dns: &[Arc<DnService>], timeout: Duration) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if dns.iter().all(|d| !d.engine.has_active_txns()) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A partition that strikes during prepare leaves one participant ACTIVE
/// (it never saw the prepare) and everything must drain after heal: the
/// reachable participant aborts on command, the stranded one expires its
/// abandoned transaction locally.
#[test]
fn partition_during_prepare_drains_after_heal() {
    let (net, coord, dns, _resolvers) = resolver_cluster();
    let mut txn = coord.begin();
    txn.write(NodeId(1), TableId(1), key(1), WireWriteOp::Insert(row(1))).unwrap();
    txn.write(NodeId(2), TableId(1), key(2), WireWriteOp::Insert(row(2))).unwrap();
    net.partition(DcId(1), DcId(2));
    let err = txn.commit().unwrap_err();
    assert!(
        matches!(err, polardbx_common::Error::Network { .. } | polardbx_common::Error::Timeout { .. }),
        "partitioned prepare must fail: {err:?}"
    );
    net.heal(DcId(1), DcId(2));
    assert!(await_drained(&dns, Duration::from_secs(3)), "active txns must drain after heal");
    // Atomicity: the aborted transaction left nothing behind on either DN.
    assert_eq!(dns[0].engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), None);
    assert_eq!(dns[1].engine.read(TableId(1), &key(2), u64::MAX, None).unwrap(), None);
}

/// A partition that strikes between the commit decision and phase two
/// strands a PREPARED participant. Its resolver must find the commit in
/// the decision log once the partition heals — the transaction lands as
/// committed everywhere, never "half gone".
#[test]
fn partition_during_commit_decision_drains_after_heal() {
    let (net, coord, dns, _resolvers) = resolver_cluster();
    // Sever the cross-DC link exactly after the decision is logged and
    // before phase-two posts go out.
    let net_fp = Arc::clone(&net);
    let coord = coord.with_failpoint(Arc::new(move |point| {
        if point == "txn.after_decision" {
            net_fp.partition(DcId(1), DcId(2));
        }
    }));
    let mut txn = coord.begin();
    txn.write(NodeId(1), TableId(1), key(1), WireWriteOp::Insert(row(1))).unwrap();
    txn.write(NodeId(2), TableId(1), key(2), WireWriteOp::Insert(row(2))).unwrap();
    let commit_ts = txn.commit().expect("decision was logged; commit succeeds");
    // DN2 is stranded PREPARED behind the partition.
    std::thread::sleep(Duration::from_millis(30));
    net.heal(DcId(1), DcId(2));
    assert!(await_drained(&dns, Duration::from_secs(3)), "prepared txn must drain after heal");
    // Atomicity: the committed transaction is fully visible on BOTH DNs.
    assert_eq!(
        dns[0].engine.read(TableId(1), &key(1), commit_ts, None).unwrap(),
        Some(row(1))
    );
    assert_eq!(
        dns[1].engine.read(TableId(1), &key(2), commit_ts, None).unwrap(),
        Some(row(2))
    );
    assert!(dns[1].metrics.in_doubt_commits.get() >= 1, "resolver must have used the log");
}

/// A DN whose commits ride a 3-DC Paxos group keeps all committed rows
/// visible on the follower after a leader failover — and the follower's
/// replayed state matches the leader's.
#[test]
fn paxos_backed_engine_survives_failover() {
    let group = PaxosGroup::build(
        GroupConfig::three_dc(1).with_latency(LatencyMatrix::uniform(Duration::from_micros(200))),
    );
    let leader = group.leader().unwrap();

    // The follower maintains a replica engine by replaying applied frames.
    let replica_engine = StorageEngine::in_memory();
    replica_engine.create_table(TableId(1), TenantId(1));
    let applier = Arc::new(RedoApplier::new(Arc::clone(&replica_engine)));
    {
        let applier = Arc::clone(&applier);
        group.replicas[1].set_apply(Box::new(move |frame| {
            let _ = applier.apply_bytes(frame.payload.clone());
        }));
    }

    let engine = StorageEngine::in_memory();
    polardbx::durability::enable_paxos_epoch(
        &engine,
        Arc::clone(&leader),
        Duration::from_secs(5),
        polardbx_wal::EpochConfig::default(),
    );
    engine.create_table(TableId(1), TenantId(1));
    for i in 0..30i64 {
        let trx = TrxId(100 + i as u64);
        engine.begin(trx, i as u64);
        engine.write(trx, TableId(1), key(i), WriteOp::Insert(row(i))).unwrap();
        engine.commit(trx, 1000 + i as u64).unwrap();
    }

    // Kill the leader's DC; elect the follower.
    group.net.partition(DcId(1), DcId(2));
    group.net.partition(DcId(1), DcId(3));
    group.replicas[1].campaign();
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while group.replicas[1].status().role != Role::Leader
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(group.replicas[1].status().role, Role::Leader);

    // Every committed row is present in the follower's replayed engine.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let n = replica_engine.count_rows(TableId(1), u64::MAX).unwrap();
        if n == 30 || std::time::Instant::now() > deadline {
            assert_eq!(n, 30, "failover must not lose committed rows");
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Snapshot isolation holds under realistic cross-DC latency: the bank
/// harness's audits always see the conserved total with 1 ms RTTs.
#[test]
fn bank_invariant_under_cross_dc_latency() {
    struct CnStub;
    impl Handler<TxnMsg> for CnStub {
        fn handle(&self, _f: NodeId, m: TxnMsg) -> TxnMsg {
            m
        }
    }
    let net = SimNet::new(LatencyMatrix {
        intra_dc: Duration::from_micros(20),
        inter_dc: Duration::from_micros(200),
        jitter: 0.05,
    });
    let mut dns = Vec::new();
    for i in 1..=3u64 {
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(i), engine, Hlc::new());
        net.register(NodeId(i), DcId(i), dn as Arc<dyn Handler<TxnMsg>>);
        dns.push(NodeId(i));
    }
    let ids = Arc::new(IdGenerator::new());
    let mut coords = Vec::new();
    for c in 0..3u64 {
        let me = NodeId(100 + c);
        net.register(me, DcId(1 + c), Arc::new(CnStub));
        coords.push(Arc::new(Coordinator::new(me, Arc::clone(&net), Hlc::new(), Arc::clone(&ids))));
    }
    let harness = Arc::new(checker::BankHarness { table: TableId(1), dns, accounts: 9, initial: 100 });
    harness.seed(&coords[0]).unwrap();
    std::thread::sleep(Duration::from_millis(3));
    let seed = seed_from_env(0xBA2C_0000);
    eprintln!("bank_invariant_under_cross_dc_latency: POLARDBX_TEST_SEED={}", format_seed(seed));
    let totals = checker::stress_seeded(Arc::clone(&harness), coords.clone(), 3, 10, 2, seed);
    assert!(!totals.is_empty());
    for t in totals {
        assert_eq!(
            t,
            harness.expected_total(),
            "fractured read under latency (replay with POLARDBX_TEST_SEED={})",
            format_seed(seed)
        );
    }
}

/// A failed MT node's tenants recover in parallel onto two survivors from
/// its private redo log, and the survivors serve them afterwards.
#[test]
fn mt_node_failure_takeover() {
    use polardbx_mt::{recovery, BindingTable, MtRwNode};

    let bindings = Arc::new(BindingTable::new(Duration::from_secs(30)));
    let failed = MtRwNode::new(NodeId(1), Arc::clone(&bindings));
    bindings.bind(TenantId(1), NodeId(1));
    bindings.bind(TenantId(2), NodeId(1));
    bindings.acquire_lease(NodeId(1));
    failed.create_table(TableId(1), TenantId(1)).unwrap();
    failed.create_table(TableId(2), TenantId(2)).unwrap();
    for i in 0..25i64 {
        failed
            .write_row(TenantId(1), TableId(1), key(i), WriteOp::Insert(row(i)))
            .unwrap();
        failed
            .write_row(TenantId(2), TableId(2), key(i), WriteOp::Insert(row(i)))
            .unwrap();
    }
    // The node dies; two survivors divide its tenants and replay its log.
    let log = bytes::Bytes::from(failed.rw.log_sink_bytes());
    let survivor_a = MtRwNode::new(NodeId(2), Arc::clone(&bindings));
    let survivor_b = MtRwNode::new(NodeId(3), Arc::clone(&bindings));
    let mut table_tenants = HashMap::new();
    table_tenants.insert(TableId(1), TenantId(1));
    table_tenants.insert(TableId(2), TenantId(2));
    let mut takeover = HashMap::new();
    takeover.insert(TenantId(1), Arc::clone(&survivor_a.rw.engine));
    takeover.insert(TenantId(2), Arc::clone(&survivor_b.rw.engine));
    let counts = recovery::parallel_recover(log, &table_tenants, &takeover).unwrap();
    assert_eq!(counts.len(), 2);

    // Rebind and serve.
    bindings.bind(TenantId(1), NodeId(2));
    bindings.bind(TenantId(2), NodeId(3));
    bindings.acquire_lease(NodeId(2));
    bindings.acquire_lease(NodeId(3));
    assert_eq!(survivor_a.count_rows(TableId(1)).unwrap(), 25);
    assert_eq!(survivor_b.count_rows(TableId(2)).unwrap(), 25);
    survivor_a
        .write_row(TenantId(1), TableId(1), key(100), WriteOp::Insert(row(100)))
        .unwrap();
    assert_eq!(survivor_a.count_rows(TableId(1)).unwrap(), 26);
}

/// A tenant's migration waits for that tenant's write sets only: another
/// tenant's transaction, open on the same source node throughout, neither
/// delays the cutover nor is disturbed by it.
#[test]
fn tenant_migration_does_not_wait_for_another_tenants_open_transaction() {
    use polardbx_mt::{migrate_tenant, BindingTable, DataDictionary, MtRwNode, Router};

    let bindings = Arc::new(BindingTable::new(Duration::from_secs(30)));
    let dict = DataDictionary::new(NodeId(1));
    let router = Router::new(Arc::clone(&bindings));
    for n in 1..=2u64 {
        router.add_node(MtRwNode::new(NodeId(n), Arc::clone(&bindings)));
        bindings.acquire_lease(NodeId(n));
    }
    let (a, b) = (TenantId(1), TenantId(2));
    let src = router.node(NodeId(1)).unwrap();
    for (tenant, table) in [(a, TableId(1)), (b, TableId(2))] {
        bindings.bind(tenant, NodeId(1));
        bindings.acquire_lease(NodeId(1));
        src.create_table(table, tenant).unwrap();
        for i in 0..10i64 {
            src.write_row(tenant, table, key(i), WriteOp::Insert(row(i))).unwrap();
        }
    }
    // Tenant B: one write, not committed.
    src.rw.engine.begin(TrxId(77), 1_000);
    src.rw.engine.write(TrxId(77), TableId(2), key(50), WriteOp::Insert(row(50))).unwrap();

    // A drain that waited for B would run out its timeout and fail here
    // (no wall-clock bound: a loaded runner is slow, not wrong).
    migrate_tenant(&router, &dict, &bindings, a, NodeId(2)).unwrap();
    assert_eq!(bindings.owner(a), Some(NodeId(2)));
    assert_eq!(router.execute(a, |node| node.count_rows(TableId(1))).unwrap(), 10);

    // B's transaction commits where it began.
    src.rw.engine.commit(TrxId(77), 2_000).unwrap();
    assert_eq!(src.read_row(b, TableId(2), &key(50)).unwrap(), Some(row(50)));
}

/// Session consistency on RO replicas: a read carrying the RW's session
/// token never sees a stale snapshot even when the replica applies slowly.
#[test]
fn session_consistency_on_lagging_replica() {
    use polardbx_storage::{RwNode, SessionToken};

    let rw = RwNode::new(NodeId(1));
    rw.create_table(TableId(1), TenantId(1));
    let ro = rw.add_ro();
    ro.set_apply_delay(Duration::from_millis(25));
    rw.execute_write(TrxId(1), 0, 10, TableId(1), key(1), WriteOp::Insert(row(1))).unwrap();
    let token = rw.session_token();
    // Without the token a racing reader could see emptiness; with it the
    // replica blocks until caught up.
    let got = ro.read(TableId(1), &key(1), token, Duration::from_secs(2)).unwrap();
    assert_eq!(got, Some(row(1)));
    // A fabricated future token times out rather than serving stale data.
    let err = ro.wait_for(SessionToken(polardbx_common::Lsn(u64::MAX)), Duration::from_millis(30));
    assert!(err.is_err());
}

/// The DN engine running over PolarFS: commits survive one chunk-server
/// failure (2/3 quorum) and fail cleanly when quorum is lost, resuming
/// when the fleet recovers.
#[test]
fn engine_over_polarfs_with_sn_failures() {
    use polardbx_polarfs::{PolarFs, PolarFsConfig, VolumeLogSink};
    use polardbx_wal::LogSink;

    let fs = PolarFs::new(PolarFsConfig { chunk_size: 1 << 16, ..Default::default() });
    let volume = fs.create_volume(DcId(1)).unwrap();
    let sink = VolumeLogSink::new(Arc::clone(&volume), 0);
    let engine = StorageEngine::with_sink(sink.clone() as Arc<dyn LogSink>);
    engine.create_table(TableId(1), TenantId(1));

    let write_one = |trx: u64, k: i64| -> polardbx_common::Result<()> {
        engine.begin(TrxId(trx), trx);
        engine.write(TrxId(trx), TableId(1), key(k), WriteOp::Insert(row(k)))?;
        engine.commit(TrxId(trx), trx + 1)?;
        Ok(())
    };
    write_one(1, 1).unwrap();

    // One SN down: majority still holds, commits continue.
    let sns = fs.servers(DcId(1));
    sns[0].set_down(true);
    write_one(2, 2).unwrap();

    // Two SNs down: quorum lost — the commit must fail AND roll back.
    sns[1].set_down(true);
    let err = write_one(3, 3).unwrap_err();
    assert!(matches!(err.root(), polardbx_common::Error::NoQuorum { .. }), "{err}");
    assert_eq!(engine.read(TableId(1), &key(3), u64::MAX, None).unwrap(), None);

    // Fleet recovers: service resumes; earlier data intact.
    sns[0].set_down(false);
    sns[1].set_down(false);
    write_one(4, 4).unwrap();
    assert_eq!(engine.count_rows(TableId(1), u64::MAX).unwrap(), 3);

    // The durable log is decodable end-to-end (recovery path).
    let head_len = 4096usize;
    let bytes = sink.read(polardbx_common::Lsn(0), head_len).unwrap();
    assert!(bytes.iter().any(|&b| b != 0), "log region persisted");
}

/// Crash recovery: replaying a DN's durable log into a fresh engine
/// reconstructs exactly the committed state (aborted work is dropped).
#[test]
fn crash_recovery_replays_committed_state() {
    use polardbx_wal::{LogSink, VecSink};

    let sink = VecSink::new();
    let engine = StorageEngine::with_sink(sink.clone() as Arc<dyn LogSink>);
    engine.create_table(TableId(1), TenantId(1));
    for i in 0..10i64 {
        engine.begin(TrxId(i as u64 + 1), i as u64);
        engine
            .write(TrxId(i as u64 + 1), TableId(1), key(i), WriteOp::Insert(row(i)))
            .unwrap();
        engine.commit(TrxId(i as u64 + 1), 100 + i as u64).unwrap();
    }
    // A transaction that dies before commit.
    engine.begin(TrxId(99), 50);
    engine.write(TrxId(99), TableId(1), key(999), WriteOp::Insert(row(999))).unwrap();
    // (no commit — crash now)

    let recovered = StorageEngine::in_memory();
    recovered.create_table(TableId(1), TenantId(1));
    let applier = RedoApplier::new(Arc::clone(&recovered));
    applier.apply_bytes(bytes::Bytes::from(sink.contiguous())).unwrap();
    assert_eq!(recovered.count_rows(TableId(1), u64::MAX).unwrap(), 10);
    assert_eq!(recovered.read(TableId(1), &key(999), u64::MAX, None).unwrap(), None);
    // Snapshots replay faithfully too: nothing visible before first commit.
    assert_eq!(recovered.count_rows(TableId(1), 99).unwrap(), 0);
    assert_eq!(recovered.count_rows(TableId(1), 104).unwrap(), 5);
}
