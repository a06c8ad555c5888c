//! Cross-crate integration tests: the whole system driven through the
//! public `PolarDbx` API, exercising every layer the paper describes —
//! SQL front end, GMS catalog + routing, distributed transactions, HTAP
//! classification, RO replicas, column index, workloads.

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::{DcId, Error, Value};
use polardbx_optimizer::WorkloadClass;

fn cluster(dns: u32) -> PolarDbx {
    PolarDbx::build(ClusterConfig { dns, default_shards: 8, ..Default::default() }).unwrap()
}

#[test]
fn full_sql_lifecycle_across_shards() {
    let db = cluster(3);
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE users (id BIGINT NOT NULL, name VARCHAR(24), score DOUBLE, \
         PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 12",
    )
    .unwrap();
    // 120 rows spread over 12 shards on 3 DNs.
    for chunk in 0..4 {
        let values: Vec<String> = (0..30)
            .map(|i| {
                let id = chunk * 30 + i;
                format!("({id}, 'user{id}', {}.5)", id % 10)
            })
            .collect();
        s.execute(&format!("INSERT INTO users (id, name, score) VALUES {}", values.join(",")))
            .unwrap();
    }
    assert_eq!(db.count_rows("users").unwrap(), 120);

    // Point read, range aggregate, group-by, sort/limit — all via SQL.
    let r = s.query("SELECT name FROM users WHERE id = 77").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::str("user77"));
    let r = s.query("SELECT COUNT(*) FROM users WHERE score >= 5.0").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(60));
    let r = s
        .query("SELECT score, COUNT(*) AS n FROM users GROUP BY score ORDER BY n DESC, score LIMIT 3")
        .unwrap();
    assert_eq!(r.len(), 3);
    assert_eq!(r[0].get(1).unwrap(), &Value::Int(12));

    // Predicate update touching many shards in one distributed txn.
    let n = s.execute("UPDATE users SET score = score + 100 WHERE id < 10").unwrap();
    assert_eq!(n, 10);
    let r = s.query("SELECT COUNT(*) FROM users WHERE score > 99").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(10));

    // Delete and verify.
    let n = s.execute("DELETE FROM users WHERE score > 99").unwrap();
    assert_eq!(n, 10);
    assert_eq!(db.count_rows("users").unwrap(), 110);
    db.shutdown();
}

#[test]
fn snapshot_isolation_money_conservation_via_sql() {
    let db = cluster(2);
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE bank (id BIGINT NOT NULL, balance BIGINT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 8",
    )
    .unwrap();
    let values: Vec<String> = (0..16).map(|i| format!("({i}, 100)")).collect();
    s.execute(&format!("INSERT INTO bank (id, balance) VALUES {}", values.join(","))).unwrap();

    // Concurrent transfers via SQL while auditors read the total.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let violations = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..2 {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                let s = db.connect(DcId(1));
                let mut i = t;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    i = (i + 7) % 16;
                    let j = (i + 3) % 16;
                    // A transfer is two statements, each retried until it
                    // lands, so every −1 is followed by its +1: a half
                    // transfer would create or destroy money.
                    for sql in [
                        format!("UPDATE bank SET balance = balance - 1 WHERE id = {i}"),
                        format!("UPDATE bank SET balance = balance + 1 WHERE id = {j}"),
                    ] {
                        loop {
                            match s.execute(&sql) {
                                Ok(n) => {
                                    assert_eq!(n, 1, "{sql}");
                                    break;
                                }
                                Err(e) if matches!(e.root(), Error::WriteConflict { .. }) => {}
                                Err(e) => panic!("{sql}: {e}"),
                            }
                        }
                    }
                }
            });
        }
        {
            let db = db.clone();
            let violations = &violations;
            let stop = &stop;
            scope.spawn(move || {
                let s = db.connect(DcId(1));
                for _ in 0..20 {
                    if let Ok(r) = s.query("SELECT SUM(balance) FROM bank") {
                        let total = r[0].get(0).unwrap().as_int().unwrap();
                        // A transfer is two statements, so a snapshot may
                        // fall between a writer's −1 and its +1: each of the
                        // 2 writers has at most one −1 not yet matched. Each
                        // SUM is one snapshot and never tears an UPDATE.
                        if !(1598..=1600).contains(&total) {
                            violations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    assert_eq!(violations.load(std::sync::atomic::Ordering::Relaxed), 0);
    db.shutdown();
}

#[test]
fn htap_classification_and_column_index_agree_with_row_path() {
    let db = cluster(2);
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE metrics (id BIGINT NOT NULL, grp BIGINT, v DOUBLE, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 8",
    )
    .unwrap();
    let values: Vec<String> =
        (0..300).map(|i| format!("({i}, {}, {}.25)", i % 7, i % 13)).collect();
    s.execute(&format!("INSERT INTO metrics (id, grp, v) VALUES {}", values.join(",")))
        .unwrap();
    db.gms().record_rows("metrics", 5_000_000); // classifier sees production scale

    let agg_sql = "SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM metrics GROUP BY grp ORDER BY grp";
    let (row_result, class) = s.query_classified(agg_sql).unwrap();
    assert_eq!(class, WorkloadClass::Ap);

    db.enable_column_index("metrics").unwrap();
    let (col_result, _) = s.query_classified(agg_sql).unwrap();
    assert_eq!(row_result, col_result, "columnar path must agree with row path");

    let (_, class) = s.query_classified("SELECT v FROM metrics WHERE id = 5").unwrap();
    assert_eq!(class, WorkloadClass::Tp);
    db.shutdown();
}

#[test]
fn ro_replicas_serve_fresh_reads() {
    let db = PolarDbx::build(ClusterConfig { dns: 2, ros_per_dn: 2, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE kv (k BIGINT NOT NULL, v BIGINT, PRIMARY KEY (k))").unwrap();
    s.execute("INSERT INTO kv (k, v) VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    db.ship_now();
    // Every RO replica of every DN holds the replicated rows.
    for dn in db.dns() {
        for ro in dn.rw.ros() {
            let applied = ro.applied_lsn();
            assert!(applied.raw() > 0, "replica {} never applied", ro.id);
        }
    }
    // AP route reads hit the RO engines and still see all data.
    db.gms().record_rows("kv", 10_000_000);
    let (rows, class) = s.query_classified("SELECT COUNT(*), SUM(v) FROM kv").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));
    assert_eq!(rows[0].get(1).unwrap(), &Value::Int(60));
    db.shutdown();
}

/// A DN's RO replicas hold a handed-off shard store *by reference*. The
/// redo feed must not write the destination's commits into that store a
/// second time (a late copy of commit N would shadow the intent of commit
/// N + 2), and a replica added after the move must share the store too —
/// the destination's log has none of the shard's history.
#[test]
fn ro_replicas_of_a_rehomed_shard_neither_lose_nor_double_an_update() {
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    use std::time::Duration;

    let db = PolarDbx::build(ClusterConfig { dns: 2, ros_per_dn: 1, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 2",
    )
    .unwrap();
    s.execute("INSERT INTO t (id, v) VALUES (0, 0), (1, 0)").unwrap();
    // The writers sit on other CNs: their snapshots see the rows once their
    // clocks pass the insert's tick (HLC is causal, not global).
    std::thread::sleep(Duration::from_millis(2));
    let schema = db.gms().table("t").unwrap();
    let (shard, home, _) = db.gms().route_key_fenced(&schema, &[Value::Int(0)]).unwrap();
    let away = db.dns().iter().map(|dn| dn.id).find(|id| *id != home).unwrap();

    let stop = AtomicBool::new(false);
    let acked = AtomicI64::new(0);
    let await_acks = |n: i64| {
        let target = acked.load(Ordering::Relaxed) + n;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while acked.load(Ordering::Relaxed) < target {
            assert!(std::time::Instant::now() < deadline, "writers stalled");
            std::thread::yield_now();
        }
    };
    std::thread::scope(|scope| {
        for w in 0..3 {
            let session = db.connect_nth(w);
            let (stop, acked) = (&stop, &acked);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match session.execute("UPDATE t SET v = v + 1 WHERE id = 0") {
                        Ok(1) => drop(acked.fetch_add(1, Ordering::Relaxed)),
                        Ok(n) => panic!("UPDATE matched {n} rows"),
                        Err(e) => assert!(e.is_retryable(), "writer {w} saw {e:?}"),
                    }
                }
            });
        }
        // One re-home round under the writers: there and back again.
        for dest in [away, home] {
            await_acks(100);
            db.rehome_shard_by_id(schema.id, shard, dest).expect("re-home under live traffic");
        }
        await_acks(100);
        stop.store(true, Ordering::Relaxed);
    });
    let acked = acked.into_inner();
    std::thread::sleep(Duration::from_millis(2));
    let r = s.query("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(acked), "final must equal the acked updates");

    // A replica added now answers like the RW: through SQL on the AP route
    // (which reads the replicas), and replica by replica.
    db.add_ros(1);
    db.ship_now();
    db.gms().record_rows("t", 10_000_000);
    let (rows, class) = s.query_classified("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert_eq!(rows[0].get(0).unwrap(), &Value::Int(acked));
    let (stid, ..) = s.route_fenced("t", &[Value::Int(0)]).unwrap();
    let dn = db.dns().into_iter().find(|dn| dn.id == home).unwrap();
    let on_rw = dn.rw.engine.scan_table(stid, u64::MAX).unwrap();
    assert_eq!(dn.rw.ros().len(), 2);
    for ro in dn.rw.ros() {
        assert_eq!(ro.engine.scan_table(stid, u64::MAX).unwrap(), on_rw, "replica {}", ro.id);
    }
    db.shutdown();
}

#[test]
fn sysbench_tpcc_tpch_smoke() {
    use polardbx_workloads::{tpcc, tpch};
    use rand::SeedableRng;

    let db = cluster(2);
    // TPC-C.
    let driver = tpcc::TpccDriver::setup(
        &db,
        tpcc::TpccConfig {
            warehouses: 1,
            districts: 2,
            customers: 10,
            items: 20,
            ..Default::default()
        },
    )
    .unwrap();
    let s = db.connect(DcId(1));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut committed = 0;
    for _ in 0..40 {
        if let Ok(true) = driver.transaction(&s, &mut rng) {
            committed += 1;
        }
    }
    assert!(committed > 0);

    // TPC-H (all 22 queries on a tiny scale).
    tpch::create_schema(&s, 4).unwrap();
    tpch::load(&db, tpch::ScaleFactor(0.002), 3).unwrap();
    for q in 1..=22 {
        s.query(tpch::query_sql(q)).unwrap_or_else(|e| panic!("Q{q}: {e}"));
    }
    db.shutdown();
}

#[test]
fn locality_aware_load_balancer() {
    let db = PolarDbx::build(ClusterConfig {
        dcs: 3,
        cns_per_dc: 2,
        dns: 3,
        ..Default::default()
    })
    .unwrap();
    for dc in 1..=3u64 {
        assert_eq!(db.connect(DcId(dc)).cn_dc(), DcId(dc));
    }
    db.shutdown();
}

#[test]
fn shard_rebalancing_moves_data_without_copy() {
    let db = cluster(3);
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE events (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 6",
    )
    .unwrap();
    let values: Vec<String> = (0..120).map(|i| format!("({i}, {i})")).collect();
    s.execute(&format!("INSERT INTO events (id, v) VALUES {}", values.join(","))).unwrap();
    db.ship_now();

    // Move shard 0 somewhere else explicitly.
    let schema = db.gms().table("events").unwrap();
    let src = db.gms().shard_dn(schema.id, 0).unwrap();
    let dest = db.dns().into_iter().map(|d| d.id).find(|&id| id != src).unwrap();
    db.rehome_shard_by_id(schema.id, 0, dest).unwrap();
    assert_eq!(db.gms().shard_dn(schema.id, 0).unwrap(), dest);

    // All data still present and queryable after the move.
    assert_eq!(db.count_rows("events").unwrap(), 120);
    let r = s.query("SELECT COUNT(*), SUM(v) FROM events").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(120));
    assert_eq!(r[0].get(1).unwrap(), &Value::Int((0..120).sum::<i64>()));

    // Writes keep flowing to the moved shard via fresh GMS routing.
    s.execute("INSERT INTO events (id, v) VALUES (1000, 1000)").unwrap();
    assert_eq!(db.count_rows("events").unwrap(), 121);

    // Spreading every shard over the DNs preserves every row.
    let dns: Vec<_> = db.dns().iter().map(|d| d.id).collect();
    for (shard, &dest) in (0..6).zip(dns.iter().cycle()) {
        db.rehome_shard_by_id(schema.id, shard, dest).unwrap();
    }
    assert_eq!(db.count_rows("events").unwrap(), 121);
    let r = s.query("SELECT COUNT(*) FROM events WHERE id < 120").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(120));
    db.shutdown();
}

/// Spreading a crowded table over the DNs under live traffic: every move is
/// the per-shard cutover (`rehome_shard_by_id`), so writers only ever see
/// retryable bounces, no acknowledged `v = v + 1` is lost, and a
/// transaction left open on another table of the source DN holds no move
/// up. (An engine-wide drain would wait for that transaction until it
/// timed out.)
#[test]
fn rebalance_under_live_traffic_loses_no_update() {
    use polardbx_common::{Key, Row};
    use polardbx_txn::WireWriteOp;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    use std::time::Duration;

    const ROWS: i64 = 64;
    let seed = polardbx_common::testseed::seed_from_env(0x4EBA_1A2C);
    eprintln!(
        "rebalance_under_live_traffic: POLARDBX_TEST_SEED={}",
        polardbx_common::testseed::format_seed(seed)
    );
    let db = cluster(3);
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 8",
    )
    .unwrap();
    let values: Vec<String> = (0..ROWS).map(|i| format!("({i}, 0)")).collect();
    s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(","))).unwrap();
    s.execute(
        "CREATE TABLE bystander (id BIGINT NOT NULL, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 1",
    )
    .unwrap();
    // Pile every shard on one DN so there are shards to move, and leave a
    // transaction open there on the other table.
    let schema = db.gms().table("t").unwrap();
    let crowded = db.dns()[0].id;
    for shard in 0..8 {
        db.rehome_shard_by_id(schema.id, shard, crowded).unwrap();
    }
    let bystander = db.gms().table("bystander").unwrap().id;
    db.rehome_shard_by_id(bystander, 0, crowded).unwrap();
    let (stid, dn, epoch) = s.route_fenced("bystander", &[Value::Int(1)]).unwrap();
    let mut open = s.coordinator().begin();
    open.pin_epoch(stid, epoch).unwrap();
    let row = WireWriteOp::Insert(Row::new(vec![Value::Int(1)]));
    open.write(dn, stid, Key::encode(&[Value::Int(1)]), row).unwrap();

    let stop = AtomicBool::new(false);
    let acked = AtomicI64::new(0);
    // Traffic is flowing before the first move and still lands after the last.
    let await_acks = |n: i64| {
        let target = acked.load(Ordering::Relaxed) + n;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while acked.load(Ordering::Relaxed) < target {
            assert!(std::time::Instant::now() < deadline, "writers stalled");
            std::thread::yield_now();
        }
    };
    let moved = std::thread::scope(|scope| {
        for w in 0..3u64 {
            let session = db.connect_nth(w as usize);
            let (stop, acked) = (&stop, &acked);
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ w);
                while !stop.load(Ordering::Relaxed) {
                    let id = rng.gen_range(0..ROWS);
                    match session.execute(&format!("UPDATE t SET v = v + 1 WHERE id = {id}")) {
                        Ok(1) => drop(acked.fetch_add(1, Ordering::Relaxed)),
                        Ok(n) => panic!("UPDATE of id {id} matched {n} rows"),
                        Err(e) => assert!(e.is_retryable(), "writer {w} saw {e:?}"),
                    }
                }
            });
        }
        await_acks(50);
        // Deal the crowded shards round-robin over the DNs, one cutover each.
        let dns: Vec<_> = db.dns().iter().map(|d| d.id).collect();
        let spread = || -> polardbx_common::Result<usize> {
            let mut moved = 0;
            for (shard, &dest) in (0..8).zip(dns.iter().cycle()).filter(|&(_, &d)| d != crowded) {
                db.rehome_shard_by_id(schema.id, shard, dest)?;
                moved += 1;
            }
            Ok(moved)
        };
        let moved = spread();
        await_acks(50);
        stop.store(true, Ordering::Relaxed);
        moved
    });
    let acked = acked.into_inner();
    let moved = moved.expect("the moves must succeed under live traffic");
    open.commit().unwrap();
    assert_eq!(db.count_rows("bystander").unwrap(), 1);
    assert!(moved > 0, "a table crowded on one DN has shards to move");
    let homes: std::collections::HashSet<_> =
        (0..8).map(|shard| db.gms().shard_dn(schema.id, shard).unwrap()).collect();
    assert!(homes.len() > 1, "shards still crowded on {crowded:?}");
    // A session on a CN that took no part in the last commits is certain
    // to see them only once its clock passes their tick (HLC is causal).
    std::thread::sleep(Duration::from_millis(2));
    let r = s.query("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(acked), "final must equal the acked updates");
    db.shutdown();
}

#[test]
fn explain_reports_class_and_storage_choice() {
    let db = cluster(1);
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE big (id BIGINT NOT NULL, v DOUBLE, PRIMARY KEY (id))").unwrap();
    db.gms().record_rows("big", 8_000_000);
    db.gms().set_column_index("big", true);

    let plan = s.explain("SELECT v FROM big WHERE id = 7").unwrap();
    assert!(plan.contains("class: Tp"), "{plan}");
    assert!(plan.contains("RowStore"), "point query stays on the row store: {plan}");

    let plan = s.explain("SELECT COUNT(*), SUM(v) FROM big").unwrap();
    assert!(plan.contains("class: Ap"), "{plan}");
    assert!(plan.contains("ColumnIndex"), "bulk aggregate prefers the column index: {plan}");
    assert!(plan.contains("Aggregate"), "{plan}");
    assert!(plan.contains("Scan big"), "{plan}");
    db.shutdown();
}

#[test]
fn errors_are_structured_across_the_stack() {
    let db = cluster(1);
    let s = db.connect(DcId(1));

    // Parse errors carry positions.
    assert!(matches!(
        s.execute("CREATE TABLLE oops (id BIGINT)"),
        Err(polardbx_common::Error::Parse { .. })
    ));
    // Unknown tables and columns are catalog errors, not panics.
    assert!(matches!(
        s.query("SELECT x FROM missing"),
        Err(polardbx_common::Error::UnknownTable { .. })
    ));
    s.execute("CREATE TABLE t2 (id BIGINT NOT NULL, PRIMARY KEY (id))").unwrap();
    assert!(matches!(
        s.query("SELECT missing_col FROM t2"),
        Err(polardbx_common::Error::UnknownColumn { .. })
    ));
    // Schema violations: NULL into NOT NULL, arity mismatch.
    assert!(s.execute("INSERT INTO t2 (id) VALUES (NULL)").is_err());
    assert!(s.execute("INSERT INTO t2 (id) VALUES (1, 2)").is_err());
    // SELECT through execute() and DML through query() are rejected.
    assert!(s.execute("SELECT id FROM t2").is_err());
    assert!(s.query("INSERT INTO t2 (id) VALUES (1)").is_err());
    // GROUP BY violations surface as plan errors.
    s.execute("INSERT INTO t2 (id) VALUES (7)").unwrap();
    assert!(matches!(
        s.query("SELECT id, COUNT(*) FROM t2 GROUP BY id + 1"),
        Err(polardbx_common::Error::Plan { .. })
    ));
    // And the cluster still works after all that abuse.
    let r = s.query("SELECT COUNT(*) FROM t2").unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(1));
    db.shutdown();
}

#[test]
fn table_group_colocates_and_serves_partition_wise_join() {
    let db = cluster(3);
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE orders3 (o_id BIGINT NOT NULL, total DOUBLE, PRIMARY KEY (o_id)) \
         PARTITION BY HASH(o_id) PARTITIONS 6 TABLEGROUP g3",
    )
    .unwrap();
    s.execute(
        "CREATE TABLE lines3 (o_id BIGINT NOT NULL, line BIGINT NOT NULL, qty BIGINT, \
         PRIMARY KEY (o_id, line)) PARTITION BY HASH(o_id) PARTITIONS 6 TABLEGROUP g3",
    )
    .unwrap();
    // Same shard of both tables lives on the same DN (§II-B partition group).
    let a = db.gms().table("orders3").unwrap();
    let b = db.gms().table("lines3").unwrap();
    for shard in 0..6 {
        assert_eq!(
            db.gms().shard_dn(a.id, shard).unwrap(),
            db.gms().shard_dn(b.id, shard).unwrap()
        );
    }
    // Equi-join on the partition key returns correct results.
    for o in 0..12i64 {
        s.execute(&format!("INSERT INTO orders3 (o_id, total) VALUES ({o}, {o}.5)")).unwrap();
        s.execute(&format!(
            "INSERT INTO lines3 (o_id, line, qty) VALUES ({o}, 0, {}), ({o}, 1, {})",
            o + 1,
            o + 2
        ))
        .unwrap();
    }
    let r = s
        .query(
            "SELECT COUNT(*), SUM(qty) FROM orders3 JOIN lines3 ON orders3.o_id = lines3.o_id",
        )
        .unwrap();
    assert_eq!(r[0].get(0).unwrap(), &Value::Int(24));
    let expect: i64 = (0..12).map(|o| (o + 1) + (o + 2)).sum();
    assert_eq!(r[0].get(1).unwrap(), &Value::Int(expect));
    db.shutdown();
}
