//! Distributed-systems integration tests spanning the consensus, storage
//! and transaction crates and the assembled cluster: cross-DC commits
//! riding Paxos, leader failover without losing committed data, tenant
//! migration under live traffic, and snapshot isolation under real network
//! latency.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, Error, Key, NodeId, Row, TableId, TenantId, TenantQuotas, TrxId, Value};
use polardbx_front::{FrontClient, FrontDoor};
use polardbx_optimizer::WorkloadClass;
use rand::{Rng, SeedableRng};
use polardbx_consensus::{GroupConfig, PaxosGroup, Role};
use polardbx_hlc::Hlc;
use polardbx_simnet::{FaultPlan, Handler, LatencyMatrix, LinkFaults, SimNet};
use polardbx_sitcheck::bank::{stress_seeded, BankHarness};
use polardbx_storage::{recovered_engine, StorageEngine, TxnAssembler, TxnState, WriteOp};
use polardbx_txn::{Coordinator, DnService, ResolverConfig, TxnConfig, TxnMsg, WireWriteOp};

fn key(n: i64) -> Key {
    Key::encode(&[Value::Int(n)])
}

fn row(n: i64) -> Row {
    Row::new(vec![Value::Int(n), Value::str("v")])
}

/// Fabric, coordinator, DN services and the cluster running their
/// resolvers.
type ResolverCluster = (Arc<SimNet<TxnMsg>>, Coordinator, Vec<Arc<DnService>>, PolarDbx);

/// The cluster's two DNs (DC1, DC2), by the ids it gives them.
const DN1: NodeId = NodeId(1000);
const DN2: NodeId = NodeId(1001);

/// Two DNs in two DCs with running in-doubt resolvers, plus a CN in DC1.
fn resolver_cluster() -> ResolverCluster {
    let db = PolarDbx::builder(ClusterConfig { dcs: 2, cns_per_dc: 1, dns: 2, ..Default::default() })
        .resolver_timing(ResolverConfig {
            interval: Duration::from_millis(10),
            in_doubt_after: Duration::from_millis(40),
            abandon_active_after: Duration::from_millis(80),
        })
        .build()
        .unwrap();
    let dns = (0..2)
        .map(|i| {
            let dn = db.dn(i);
            dn.rw.create_table(TableId(1));
            Arc::clone(&dn.service)
        })
        .collect();
    let coord = db.coordinator(0, Hlc::new()).with_config(TxnConfig {
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
    });
    (Arc::clone(db.net()), coord, dns, db)
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
/// reachable participant, PREPARED, asks the stranded one, which never
/// voted and refuses — the transaction aborts on both.
#[test]
fn partition_during_prepare_drains_after_heal() {
    let (net, coord, dns, _db) = resolver_cluster();
    let mut txn = coord.begin();
    txn.write(DN1, TableId(1), key(1), WireWriteOp::Insert(row(1))).unwrap();
    txn.write(DN2, TableId(1), key(2), WireWriteOp::Insert(row(2))).unwrap();
    net.partition(DcId(1), DcId(2));
    let err = txn.commit().unwrap_err();
    assert!(matches!(err, Error::InDoubt { .. }), "a partitioned vote is unheard: {err:?}");
    net.heal(DcId(1), DcId(2));
    assert!(await_drained(&dns, Duration::from_secs(3)), "active txns must drain after heal");
    // Atomicity: the aborted transaction left nothing behind on either DN.
    assert_eq!(dns[0].engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), None);
    assert_eq!(dns[1].engine.read(TableId(1), &key(2), u64::MAX, None).unwrap(), None);
}

/// A partition that strikes between the votes and phase two strands a
/// PREPARED participant. Once the partition heals its resolver hears that
/// its peer committed — the transaction lands as committed everywhere,
/// never "half gone".
#[test]
fn partition_after_the_votes_drains_after_heal() {
    let (net, coord, dns, _db) = resolver_cluster();
    // Sever the cross-DC link exactly after the votes are in and before
    // phase-two posts go out.
    let net_fp = Arc::clone(&net);
    let coord = coord.with_failpoint(Arc::new(move |point| {
        if point == "txn.after_votes" {
            net_fp.partition(DcId(1), DcId(2));
        }
    }));
    let mut txn = coord.begin();
    txn.write(DN1, TableId(1), key(1), WireWriteOp::Insert(row(1))).unwrap();
    txn.write(DN2, TableId(1), key(2), WireWriteOp::Insert(row(2))).unwrap();
    let commit_ts = txn.commit().expect("every vote was yes; commit succeeds");
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
    assert!(dns[1].metrics.in_doubt_commits.get() >= 1, "DN2 must have settled through DN1");
}

/// A DN's participant service that counts the `Vote`s it is asked and, when
/// `lossy`, swallows the first phase-two `Commit` posted to it.
struct PhaseTwoLoss {
    inner: Arc<DnService>,
    lossy: bool,
    votes: Arc<AtomicU64>,
    /// The swallowed `Commit`: its transaction and commit timestamp.
    swallowed: Mutex<Option<(TrxId, u64)>>,
}

impl Handler<TxnMsg> for PhaseTwoLoss {
    fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
        if matches!(msg, TxnMsg::Vote { .. }) {
            self.votes.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.handle(from, msg)
    }

    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        if let TxnMsg::Commit { trx, commit_ts } = msg {
            let mut swallowed = self.swallowed.lock().unwrap();
            if self.lossy && swallowed.is_none() {
                *swallowed = Some((trx, commit_ts));
                return;
            }
        }
        self.inner.handle_oneway(from, msg)
    }
}

/// A DN that misses phase two of a statement the client saw acked stays
/// PREPARED only until its resolver asks the transaction's peers: it then
/// commits at the acked timestamp, and reads routed to the RO replicas no
/// longer wait behind it. A statement that meets no fault asks no DN for a
/// vote.
#[test]
fn a_dn_that_misses_phase_two_settles_through_its_peers() {
    let db = PolarDbx::build(ClusterConfig { dns: 3, ros_per_dn: 1, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 6",
    )
    .unwrap();
    let values: Vec<String> = (0..24).map(|i| format!("({i}, 0)")).collect();
    s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(", "))).unwrap();
    db.ship_now(); // the load's own phase two
    // Rows `a` and `b` live on two DNs; `a`'s DN will miss phase two.
    let home = |id: i64| s.route("t", &[Value::Int(id)]).unwrap();
    let a = 0;
    let b = (1..24).find(|&id| home(id).1 != home(a).1).unwrap();
    let (stid, lossy) = home(a);
    let votes = Arc::new(AtomicU64::new(0));
    let mut victim = None;
    for dn in db.dns() {
        let wrapped = Arc::new(PhaseTwoLoss {
            inner: Arc::clone(&dn.service),
            lossy: dn.id == lossy,
            votes: Arc::clone(&votes),
            swallowed: Mutex::new(None),
        });
        db.net().register(dn.id, dn.dc, Arc::clone(&wrapped) as Arc<dyn Handler<TxnMsg>>);
        if dn.id == lossy {
            victim = Some((dn, wrapped));
        }
    }
    let (dn, wrapped) = victim.unwrap();
    let update = |v: i64| format!("UPDATE t SET v = {v} WHERE id IN ({a}, {b})");

    assert_eq!(s.execute(&update(1)).unwrap(), 2, "the client gets its ack");
    let acked = Instant::now();
    let (trx, commit_ts) = loop {
        if let Some(lost) = *wrapped.swallowed.lock().unwrap() {
            break lost;
        }
        assert!(acked.elapsed() < Duration::from_secs(1), "phase two never reached the DN");
        std::thread::sleep(Duration::from_millis(1));
    };
    while dn.service.in_doubt_count() > 0 {
        assert!(acked.elapsed() < Duration::from_secs(1), "the DN is still PREPARED after 1 s");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(dn.rw.engine.txn_state(trx), Some(TxnState::Committed { commit_ts }));
    let row = dn.rw.engine.read(stid, &key(a), commit_ts, None).unwrap().unwrap();
    assert_eq!(row.get(1).unwrap(), &Value::Int(1), "committed at the acked timestamp");
    let asked = votes.load(Ordering::SeqCst);
    assert!(asked >= 1, "the DN asked its peer");

    // Reads routed to the RO replicas wait behind nothing any more.
    db.gms().record_rows("t", 10_000_000);
    let started = Instant::now();
    let (rows, class) = s.query_classified("SELECT SUM(v) FROM t").unwrap();
    let took = started.elapsed();
    assert_eq!(class, WorkloadClass::Ap);
    assert_eq!(rows[0].get(0).unwrap(), &Value::Int(2));
    assert!(took < Duration::from_millis(200), "an RO-routed SELECT took {took:?}");

    // The same statement with nothing lost: no DN is asked for a vote, not
    // even once a resolver's in-doubt timeout has passed twice.
    assert_eq!(s.execute(&update(2)).unwrap(), 2);
    std::thread::sleep(2 * ResolverConfig::default().in_doubt_after + Duration::from_millis(50));
    assert_eq!(votes.load(Ordering::SeqCst), asked, "a statement that met no fault sent a Vote");
    db.shutdown();
}

/// `PolarDbx::restart_amnesia` under a `Session`: rows acked before the
/// crash are read after the restart, an UPDATE the crash left PREPARED on
/// the DN — its phase two never arrived — settles through its peer and
/// moves each of its rows once, and the RO replicas keep following.
#[test]
fn an_amnesia_restart_keeps_acked_rows_and_settles_a_prepared_update_once() {
    let db = PolarDbx::build(ClusterConfig { dns: 2, ros_per_dn: 1, ..Default::default() }).unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))").unwrap();
    let values: Vec<String> = (0..16).map(|i| format!("({i}, 0)")).collect();
    s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(", "))).unwrap();
    db.ship_now(); // the insert's phase two
    let victim = db.dn(0);
    let home = |id: i64| s.route("t", &[Value::Int(id)]).unwrap().1;
    let a = (0..16).find(|&id| home(id) == victim.id).unwrap();
    let b = (0..16).find(|&id| home(id) != victim.id).unwrap();
    let wrapped = Arc::new(PhaseTwoLoss {
        inner: Arc::clone(&victim.service),
        lossy: true,
        votes: Arc::new(AtomicU64::new(0)),
        swallowed: Mutex::new(None),
    });
    db.net().register(victim.id, victim.dc, Arc::clone(&wrapped) as Arc<dyn Handler<TxnMsg>>);

    // Acked once both DNs voted; the victim never hears the decision.
    assert_eq!(s.execute(&format!("UPDATE t SET v = v + 1 WHERE id IN ({a}, {b})")).unwrap(), 2);
    while wrapped.swallowed.lock().unwrap().is_none() {
        std::thread::yield_now();
    }
    db.net().crash(victim.id);
    let report = db.restart_amnesia(0).unwrap();
    assert!(report.committed > 0 && report.in_doubt.len() == 1, "{report:?}");

    // The read waits out the PREPARED rows until the restarted DN's
    // resolver learns the commit from its peer.
    let rows = |s: &polardbx::Session| -> Vec<(i64, i64)> {
        let int = |v: &Value| v.as_int().unwrap();
        let rows = s.query("SELECT id, v FROM t ORDER BY id").unwrap();
        rows.iter().map(|r| (int(r.get(0).unwrap()), int(r.get(1).unwrap()))).collect()
    };
    let moved = |id: i64| i64::from(id == a || id == b);
    assert_eq!(rows(&s), (0..16).map(|id| (id, moved(id))).collect::<Vec<_>>());
    assert_eq!(db.dn(0).service.in_doubt_count(), 0);
    // The restarted DN takes writes again.
    assert_eq!(s.execute("UPDATE t SET v = v + 1 WHERE id < 16").unwrap(), 16);
    assert_eq!(rows(&s), (0..16).map(|id| (id, moved(id) + 1)).collect::<Vec<_>>());
    // The replicas follow the restarted DN's feed from where it stopped.
    db.gms().record_rows("t", 10_000_000);
    let (sum, class) = s.query_classified("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(db.dn(0).rw.ros().len(), 1);
    assert_eq!((sum[0].get(0).unwrap(), class), (&Value::Int(18), WorkloadClass::Ap));
    db.shutdown();
}

/// An acked commit whose phase two has not reached one DN — a DN that the
/// partition also keeps from asking its peers — is still in an RO-routed
/// read at a later snapshot. That DN's feed lacks the decision, so the read
/// goes to its RW engine, which waits out the PREPARED row until the heal
/// lets the DN settle, instead of answering from a replica without it.
#[test]
fn an_ro_routed_read_waits_out_a_decision_its_feed_lacks() {
    let db = PolarDbx::build(ClusterConfig { dcs: 2, dns: 3, ros_per_dn: 1, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 6",
    )
    .unwrap();
    let values: Vec<String> = (0..24).map(|i| format!("({i}, 0)")).collect();
    s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(", "))).unwrap();
    db.ship_now(); // the load's own phase two
    // Row `a` lives on a DN in DC 2, which will miss phase two; `b` in DC 1.
    let dns = db.dns();
    let dn_of = |id: i64| {
        let home = s.route("t", &[Value::Int(id)]).unwrap().1;
        dns.iter().find(|d| d.id == home).unwrap()
    };
    let a = (0..24).find(|&id| dn_of(id).dc == DcId(2)).unwrap();
    let b = (0..24).find(|&id| dn_of(id).dc == DcId(1)).unwrap();
    let dn = dn_of(a);
    let wrapped = Arc::new(PhaseTwoLoss {
        inner: Arc::clone(&dn.service),
        lossy: true,
        votes: Arc::new(AtomicU64::new(0)),
        swallowed: Mutex::new(None),
    });
    db.net().register(dn.id, dn.dc, Arc::clone(&wrapped) as Arc<dyn Handler<TxnMsg>>);

    assert_eq!(s.execute(&format!("UPDATE t SET v = 1 WHERE id IN ({a}, {b})")).unwrap(), 2);
    let acked = Instant::now();
    while wrapped.swallowed.lock().unwrap().is_none() {
        assert!(acked.elapsed() < Duration::from_secs(1), "phase two never reached the DN");
        std::thread::sleep(Duration::from_millis(1));
    }
    db.net().partition(DcId(1), DcId(2));
    let net = Arc::clone(db.net());
    let heal = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(500));
        net.heal(DcId(1), DcId(2));
    });

    db.gms().record_rows("t", 10_000_000);
    let (rows, class) = s.query_classified("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert_eq!(rows[0].get(0).unwrap(), &Value::Int(2), "the acked UPDATE is missing");
    heal.join().unwrap();
    db.shutdown();
}

/// A vote whose reply never reaches the coordinator leaves the commit in
/// doubt, and the client hears so with an error that is not retryable. A
/// client that re-runs exactly the statements whose error is retryable
/// therefore never applies `v = v + 1` twice: the in-doubt statement
/// commits once, through the peers, and every other one is acked.
#[test]
fn a_lost_vote_reply_is_in_doubt_and_applied_once() {
    let db = PolarDbx::build(ClusterConfig { dcs: 3, cns_per_dc: 1, dns: 3, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 6",
    )
    .unwrap();
    let values: Vec<String> = (0..24).map(|i| format!("({i}, 0)")).collect();
    s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(", "))).unwrap();
    // One row on the DN of DC 2, one on the DN of DC 3; the session's CN is
    // in DC 1.
    let dns = db.dns();
    let dc_of = |id: i64| {
        let dn = s.route("t", &[Value::Int(id)]).unwrap().1;
        dns.iter().find(|d| d.id == dn).unwrap().dc
    };
    let a = (0..24).find(|&id| dc_of(id) == DcId(2)).unwrap();
    let b = (0..24).find(|&id| dc_of(id) == DcId(3)).unwrap();
    let update = format!("UPDATE t SET v = v + 1 WHERE id IN ({a}, {b})");

    // Every reply from DC 2 to DC 1 is lost while the first statement runs.
    db.net().set_fault_plan(FaultPlan::new(1).with_link(DcId(2), DcId(1), LinkFaults::lossy(1.0)));
    let (mut acked, mut in_doubt) = (0, 0);
    for _ in 0..4 {
        loop {
            let result = s.execute(&update);
            db.net().clear_fault_plan();
            match result {
                Ok(n) => {
                    assert_eq!(n, 2);
                    acked += 1;
                    break;
                }
                Err(e) if e.is_retryable() => continue,
                Err(e) => {
                    assert!(matches!(e, Error::InDoubt { .. }), "{e:?}");
                    in_doubt += 1;
                    break;
                }
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while dns.iter().any(|d| d.service.in_doubt_count() > 0 || d.rw.engine.has_active_txns()) {
        assert!(Instant::now() < deadline, "the in-doubt statement never settled");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Both votes were yes, so the in-doubt statement committed.
    for id in [a, b] {
        let rows = s.query(&format!("SELECT v FROM t WHERE id = {id}")).unwrap();
        let v = rows[0].get(0).unwrap();
        assert_eq!(v, &Value::Int(acked + in_doubt), "row {id}: every statement applied once");
    }
    assert_eq!((acked, in_doubt), (3, 1));
    db.shutdown();
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

    // The follower maintains a replica engine by replaying applied frames:
    // each transaction the assembler completes is applied at its commit
    // timestamp.
    let replica_engine = StorageEngine::in_memory();
    replica_engine.create_table(TableId(1), TenantId(1));
    {
        let replica_engine = Arc::clone(&replica_engine);
        let assembler = Mutex::new(TxnAssembler::default());
        group.replicas[1].set_apply(Box::new(move |frame| {
            if let Ok(committed) = assembler.lock().unwrap().feed(frame.payload.clone()) {
                committed.iter().for_each(|txn| replica_engine.apply_committed(txn));
            }
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
    let latency = LatencyMatrix {
        intra_dc: Duration::from_micros(20),
        inter_dc: Duration::from_micros(200),
        jitter: 0.05,
    };
    let db = PolarDbx::build(ClusterConfig { dcs: 3, cns_per_dc: 1, dns: 3, latency, ..Default::default() })
        .unwrap();
    let dns: Vec<NodeId> = db.dns().iter().map(|dn| dn.id).collect();
    db.dns().iter().for_each(|dn| dn.rw.create_table(TableId(1)));
    let coords: Vec<_> = (0..3).map(|c| Arc::new(db.coordinator(c, Hlc::new()))).collect();
    let harness = Arc::new(BankHarness { table: TableId(1), dns, accounts: 9, initial: 100 });
    harness.seed(&coords[0]).unwrap();
    std::thread::sleep(Duration::from_millis(3));
    let seed = seed_from_env(0xBA2C_0000);
    eprintln!("bank_invariant_under_cross_dc_latency: POLARDBX_TEST_SEED={}", format_seed(seed));
    let totals = stress_seeded(Arc::clone(&harness), coords.clone(), 3, 10, 2, seed);
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

/// A tenant's migration waits for that tenant's write sets only: another
/// tenant's transaction, open on the same source DN throughout, neither
/// delays the cutover nor is disturbed by it.
#[test]
fn tenant_migration_does_not_wait_for_another_tenants_open_transaction() {
    let db = PolarDbx::build(ClusterConfig { dns: 2, default_shards: 1, ..Default::default() })
        .unwrap();
    let [src, dest] = db.gms().dns()[..] else { unreachable!("two DNs") };
    let a = db.register_tenant("a", TenantQuotas::unlimited());
    let b = db.register_tenant("b", TenantQuotas::unlimited());
    for (tenant, table) in [(a, "ta"), (b, "tb")] {
        let s = db.connect(DcId(1)).for_tenant(tenant);
        s.execute(&format!("CREATE TABLE {table} (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))"))
            .unwrap();
        s.execute(&format!("INSERT INTO {table} (id, v) VALUES (1, 1), (2, 2)")).unwrap();
        db.migrate_tenant(tenant, src).unwrap();
    }
    // Tenant B: one write, not committed.
    let s = db.connect(DcId(1));
    let (stid, dn, epoch) = s.route_fenced("tb", &[Value::Int(50)]).unwrap();
    let mut open = s.coordinator().begin();
    open.pin_epoch(stid, epoch).unwrap();
    let row = Row::new(vec![Value::Int(50), Value::Int(50)]);
    open.write(dn, stid, key(50), WireWriteOp::Insert(row)).unwrap();

    // A drain that waited for B would run out its timeout and fail here
    // (no wall-clock bound: a loaded runner is slow, not wrong).
    db.migrate_tenant(a, dest).unwrap();
    assert_eq!(db.gms().shard_dn(db.gms().table("ta").unwrap().id, 0).unwrap(), dest);
    assert_eq!(db.count_rows("ta").unwrap(), 2);

    // B's transaction commits where it began.
    open.commit().unwrap();
    assert_eq!(db.count_rows("tb").unwrap(), 3);
    db.shutdown();
}

/// A tenant migrates twice while wire clients read a row of its two tables
/// and run `v = v + 1` on it: after each move every shard — of both tables
/// and of the hidden global-index table — is on the destination, a read
/// never fails (it follows the store), the writers see only retryable
/// bounces, no acked update is lost, and another tenant's transaction,
/// open on every source throughout, commits afterwards.
#[test]
fn tenant_migration_over_the_wire_loses_no_update() {
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    let seed = seed_from_env(0x7E4A_0F1D);
    eprintln!("tenant migration seed: POLARDBX_TEST_SEED={}", format_seed(seed));
    const ROWS: i64 = 8;
    const TABLES: [&str; 2] = ["a", "b"];
    let db = PolarDbx::build(ClusterConfig { dns: 3, default_shards: 3, ..Default::default() })
        .unwrap();
    let dns = db.gms().dns();
    let tenant = db.register_tenant("app", TenantQuotas::unlimited());
    let front = FrontDoor::start_default(db.clone()).unwrap();
    let mut admin = FrontClient::connect(front.addr(), tenant.raw()).unwrap();
    for table in TABLES {
        admin
            .execute(&format!(
                "CREATE TABLE {table} (id BIGINT NOT NULL, k INT, v INT, PRIMARY KEY (id))"
            ))
            .unwrap();
        let values: Vec<String> = (0..ROWS).map(|i| format!("({i}, {}, 0)", i % 3)).collect();
        admin
            .execute(&format!("INSERT INTO {table} (id, k, v) VALUES {}", values.join(",")))
            .unwrap();
    }
    admin.execute("CREATE GLOBAL INDEX by_k ON b (k)").unwrap();
    let owned: Vec<TableId> =
        ["a", "b", "__gsi_b_by_k"].map(|t| db.gms().table(t).unwrap().id).to_vec();

    // Another tenant's transaction writes one row on every DN, so it is
    // open on the source of each move.
    let other =
        db.connect(DcId(1)).for_tenant(db.register_tenant("other", TenantQuotas::unlimited()));
    other
        .execute(
            "CREATE TABLE o (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 3",
        )
        .unwrap();
    let mut open = other.coordinator().begin();
    let mut touched = HashSet::new();
    for id in 0..1000 {
        let (stid, dn, epoch) = other.route_fenced("o", &[Value::Int(id)]).unwrap();
        if touched.insert(dn) {
            open.pin_epoch(stid, epoch).unwrap();
            let row = Row::new(vec![Value::Int(id), Value::Int(0)]);
            open.write(dn, stid, key(id), WireWriteOp::Insert(row)).unwrap();
        }
    }
    assert_eq!(touched.len(), dns.len(), "the open transaction spans every DN");

    let stop = AtomicBool::new(false);
    let acked = [AtomicI64::new(0), AtomicI64::new(0)];
    let total = || acked.iter().map(|a| a.load(Ordering::Relaxed)).sum::<i64>();
    let progressed = |n: i64| {
        let (target, deadline) = (total() + n, Instant::now() + Duration::from_secs(10));
        while total() < target && Instant::now() < deadline {
            std::thread::yield_now();
        }
        total() >= target
    };
    let (mut stalled, mut misplaced) = (0, Vec::new());
    let writers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3u64)
            .map(|w| {
                let (stop, acked, addr) = (&stop, &acked, front.addr());
                scope.spawn(move || -> polardbx_common::Result<()> {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ w);
                    let mut c = FrontClient::connect(addr, tenant.raw())?;
                    while !stop.load(Ordering::Relaxed) {
                        let (t, id) = (rng.gen_range(0..TABLES.len()), rng.gen_range(0..ROWS));
                        let read = c.query(&format!("SELECT v FROM {} WHERE id = {id}", TABLES[t]))?;
                        if read.len() != 1 {
                            return Err(Error::invalid(format!("read {} rows of id {id}", read.len())));
                        }
                        match c.execute(&format!("UPDATE {} SET v = v + 1 WHERE id = {id}", TABLES[t])) {
                            Ok(1) => drop(acked[t].fetch_add(1, Ordering::Relaxed)),
                            Ok(n) => return Err(Error::invalid(format!("matched {n} rows"))),
                            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_micros(
                                rng.gen_range(20..200),
                            )),
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        for dest in [dns[0], dns[1]] {
            stalled += usize::from(!progressed(20));
            // A drain can time out retryably under the hammering writers;
            // running the move again finishes it.
            let moved = (0..20).any(|attempt| {
                if attempt > 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                db.migrate_tenant(tenant, dest).is_ok()
            });
            for &table in &owned {
                for shard in 0..3 {
                    let home = db.gms().shard_dn(table, shard).unwrap();
                    if !moved || home != dest {
                        misplaced.push((table, shard, home, dest));
                    }
                }
            }
        }
        stalled += usize::from(!progressed(20));
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    for (w, result) in writers.into_iter().enumerate() {
        assert!(result.is_ok(), "wire writer {w} hit a non-retryable error: {result:?}");
    }
    assert!(misplaced.is_empty(), "shards not on the destination: {misplaced:?}");
    assert_eq!(stalled, 0, "writers made no progress around a move");

    open.commit().unwrap();
    assert_eq!(db.count_rows("o").unwrap(), dns.len());
    assert_eq!(db.count_rows("__gsi_b_by_k").unwrap(), ROWS as usize);
    // The admin connection's CN took no part in the writers' last commits:
    // its snapshot covers them once its clock passes their tick.
    std::thread::sleep(Duration::from_millis(2));
    for (t, table) in TABLES.iter().enumerate() {
        let sum = admin.query(&format!("SELECT SUM(v) FROM {table}")).unwrap();
        assert_eq!(
            sum[0].get(0).unwrap(),
            &Value::Int(acked[t].load(Ordering::Relaxed)),
            "final v of {table} must equal its acked UPDATEs (seed {seed:#x})"
        );
    }
    admin.quit().unwrap();
    drop(front);
    db.shutdown();
}

/// Session consistency on RO replicas: a read carrying the RW's session
/// token never sees a stale snapshot even when the replica applies slowly.
#[test]
fn session_consistency_on_lagging_replica() {
    use polardbx_storage::{RwNode, SessionToken};

    let rw = RwNode::new(NodeId(1));
    rw.create_table(TableId(1));
    let ro = rw.add_ro();
    ro.set_apply_delay(Duration::from_millis(25));
    rw.engine.begin(TrxId(1), 0);
    rw.engine.write(TrxId(1), TableId(1), key(1), WriteOp::Insert(row(1))).unwrap();
    rw.engine.commit(TrxId(1), 10).unwrap();
    rw.ship();
    let token = rw.session_token();
    // Without the token a racing reader could see emptiness; with it the
    // replica blocks until caught up.
    let got = ro.read(TableId(1), &key(1), token, Duration::from_secs(2)).unwrap();
    assert_eq!(got, Some(row(1)));
    // A fabricated future token times out rather than serving stale data.
    let err = ro.wait_for(SessionToken(polardbx_common::Lsn(u64::MAX)), Duration::from_millis(30));
    assert!(err.is_err());
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

    let (_log, recovered, _report) = recovered_engine(sink, &[TableId(1)]).unwrap();
    assert_eq!(recovered.count_rows(TableId(1), u64::MAX).unwrap(), 10);
    assert_eq!(recovered.read(TableId(1), &key(999), u64::MAX, None).unwrap(), None);
    // Snapshots replay faithfully too: nothing visible before first commit.
    assert_eq!(recovered.count_rows(TableId(1), 99).unwrap(), 0);
    assert_eq!(recovered.count_rows(TableId(1), 104).unwrap(), 5);
}
