//! Tier-1 tests for the SQL front door: the full statement surface over
//! the wire, typed error classification across the boundary, per-tenant
//! admission, quota release on abrupt disconnect, and the same-row
//! multi-writer rehome test lifted from the in-process SQL path to real
//! TCP clients.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{Error, TenantQuotas, Value};
use polardbx_front::wire::{self, ErrCode, Frame, FrameReader};
use polardbx_front::{FrontClient, FrontDoor};
use rand::{Rng, SeedableRng};

fn cluster() -> PolarDbx {
    PolarDbx::build(ClusterConfig { dns: 2, default_shards: 4, ..Default::default() })
        .unwrap()
}

/// Cluster + front door + one unlimited tenant, ready for clients.
fn front_cluster() -> (PolarDbx, FrontDoor, u64) {
    let db = cluster();
    let tenant = db.register_tenant("app", TenantQuotas::unlimited());
    let front = FrontDoor::start_default(db.clone()).unwrap();
    (db, front, tenant.0)
}

#[test]
fn wire_smoke_covers_the_full_statement_surface() {
    let (db, front, tenant) = front_cluster();
    let mut c = FrontClient::connect(front.addr(), tenant).unwrap();

    // DDL and DML over the wire.
    c.execute(
        "CREATE TABLE w (id BIGINT NOT NULL, name VARCHAR(16), score DOUBLE, \
         PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 4",
    )
    .unwrap();
    for i in 0..10 {
        let n = c
            .execute(&format!("INSERT INTO w (id, name, score) VALUES ({i}, 'n{i}', {i}.5)"))
            .unwrap();
        assert_eq!(n, 1);
    }

    // SELECT comes back as typed rows.
    let rows = c.query("SELECT name, score FROM w WHERE id = 7").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0).unwrap(), &Value::str("n7"));
    assert_eq!(rows[0].get(1).unwrap(), &Value::Double(7.5));

    // Aggregates and multi-row updates round-trip.
    let rows = c.query("SELECT COUNT(*) FROM w WHERE score >= 5.0").unwrap();
    assert_eq!(rows[0].get(0).unwrap(), &Value::Int(5));
    assert_eq!(c.execute("UPDATE w SET score = score + 1 WHERE id < 3").unwrap(), 3);
    assert_eq!(c.execute("DELETE FROM w WHERE id = 9").unwrap(), 1);

    // Prepare/Execute: second prepare of the same text is a cache hit and
    // the handle replays without re-parsing.
    let (stmt, cached) = c.prepare("SELECT name FROM w WHERE id = 1").unwrap();
    assert!(!cached);
    let (stmt2, cached) = c.prepare("SELECT name FROM w WHERE id = 1").unwrap();
    assert!(cached, "identical text must hit the statement cache");
    assert_eq!(stmt, stmt2);
    let rows = c.execute_prepared(stmt).unwrap();
    assert_eq!(rows[0].get(0).unwrap(), &Value::str("n1"));
    // Prepared DML executes repeatedly.
    let (upd, _) = c.prepare("UPDATE w SET score = score + 1 WHERE id = 2").unwrap();
    assert_eq!(c.execute_prepared_count(upd).unwrap(), 1);
    assert_eq!(c.execute_prepared_count(upd).unwrap(), 1);
    // Closing invalidates the handle with a typed (non-retryable) error.
    c.close_stmt(stmt).unwrap();
    let err = c.execute_prepared(stmt).unwrap_err();
    assert!(!err.is_retryable());

    // Typed errors across the wire.
    let err = c.query("SELEKT garbage").unwrap_err();
    assert!(matches!(err, Error::Parse { .. }), "parse failure: {err:?}");
    let err = c.query("SELECT x FROM nosuch").unwrap_err();
    assert!(matches!(err, Error::UnknownTable { ref name } if name == "nosuch"));
    let err = c.query("SELECT nosuchcol FROM w").unwrap_err();
    assert!(matches!(err, Error::Schema { .. }), "schema failure: {err:?}");
    // A row cannot be re-keyed in place: typed, and not worth retrying.
    let err = c.execute("UPDATE w SET id = 11 WHERE id = 1").unwrap_err();
    assert!(matches!(err, Error::Schema { .. }) && !err.is_retryable(), "key update: {err:?}");

    // The connection survives all those errors; clean goodbye works.
    assert_eq!(c.query("SELECT COUNT(*) FROM w").unwrap()[0].get(0).unwrap(), &Value::Int(9));
    c.quit().unwrap();

    drop(front);
    db.shutdown();
}

#[test]
fn handshake_rejects_unknown_tenant_and_bad_version() {
    let (db, front, tenant) = front_cluster();

    // Unknown tenant: typed handshake failure.
    let err = FrontClient::connect(front.addr(), 4242).unwrap_err();
    assert!(!err.is_retryable());

    // Wrong protocol version: speak the raw frames.
    let stream = TcpStream::connect(front.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    wire::write_frame(&mut writer, &Frame::Hello { version: 999, tenant }).unwrap();
    match reader.read_frame().unwrap() {
        Frame::Err { code, retryable, .. } => {
            assert_eq!(code, ErrCode::Handshake);
            assert!(!retryable);
        }
        other => panic!("expected handshake rejection, got {other:?}"),
    }

    // A non-Hello first frame is also a handshake failure.
    let stream = TcpStream::connect(front.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    wire::write_frame(&mut writer, &Frame::Query { sql: "SELECT 1".into() }).unwrap();
    match reader.read_frame().unwrap() {
        Frame::Err { code, .. } => assert_eq!(code, ErrCode::Handshake),
        other => panic!("expected handshake rejection, got {other:?}"),
    }

    drop(front);
    db.shutdown();
}

#[test]
fn throttled_tenant_gets_retryable_bounce_over_the_wire() {
    let db = cluster();
    let hot = db.register_tenant("hot", TenantQuotas::rate_limited(1.0, 2.0));
    let quiet = db.register_tenant("quiet", TenantQuotas::unlimited());
    let front = FrontDoor::start_default(db.clone()).unwrap();

    let mut hc = FrontClient::connect(front.addr(), hot.0).unwrap();
    let mut qc = FrontClient::connect(front.addr(), quiet.0).unwrap();
    hc.execute("CREATE TABLE h (id BIGINT NOT NULL, PRIMARY KEY (id))").unwrap();

    // Hammer the hot tenant past its burst: a throttle must arrive, and it
    // must rebuild client-side as a retryable Error::Throttled carrying
    // the tenant-rate rule.
    let mut throttles = 0u64;
    for i in 0..20 {
        match hc.execute(&format!("INSERT INTO h (id) VALUES ({i})")) {
            Ok(_) => {}
            Err(Error::Throttled { ref rule }) => {
                assert!(rule.contains("tenant-rate"), "rule: {rule}");
                throttles += 1;
            }
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }
    assert!(throttles > 0, "hot tenant must get throttled");
    assert!(
        Error::Throttled { rule: "x".into() }.is_retryable(),
        "throttle contract: retryable"
    );

    // The quiet tenant sails through the same instant.
    for _ in 0..50 {
        qc.query("SELECT COUNT(*) FROM h").unwrap();
    }
    assert_eq!(front.admission().stats(quiet).throttled_rate, 0);
    assert!(front.admission().stats(hot).throttled_rate > 0);
    assert_eq!(front.metrics().throttled.get(), throttles);

    drop(front);
    db.shutdown();
}

#[test]
fn abrupt_disconnect_releases_connection_quota() {
    let db = cluster();
    let tenant =
        db.register_tenant("capped", TenantQuotas { max_connections: 1, ..TenantQuotas::unlimited() });
    let front = FrontDoor::start_default(db.clone()).unwrap();

    // Hold the single slot, then vanish without a Quit frame.
    let c1 = FrontClient::connect(front.addr(), tenant.0).unwrap();
    let err = FrontClient::connect(front.addr(), tenant.0).unwrap_err();
    assert!(matches!(err, Error::Throttled { ref rule } if rule.contains("tenant-connections")));
    drop(c1); // TCP close, no goodbye

    // The handler notices the close and the ConnPermit drop frees the
    // slot; a new connection must succeed shortly after.
    let deadline = 200;
    let mut connected = None;
    for _ in 0..deadline {
        match FrontClient::connect(front.addr(), tenant.0) {
            Ok(c) => {
                connected = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(connected.is_some(), "abrupt drop must release the connection slot");
    assert_eq!(front.admission().stats(tenant).connections, 1);

    drop(connected);
    drop(front);
    db.shutdown();
}

/// Snapshot isolation over the wire, under re-homes: four TCP clients all
/// hammer `UPDATE t SET v = v + 1 WHERE id = 0` — the same row — through
/// the front door while the placement layer re-homes every shard twice.
/// Each statement reads and writes in one coordinator transaction, so two
/// racing increments cannot both commit on the same snapshot (the loser
/// sees a retryable conflict), and no ack may be lost to a cutover: the
/// row must end at exactly the sum of the acked updates.
#[test]
fn concurrent_wire_clients_survive_rehome_without_lost_updates() {
    let seed = seed_from_env(0x0F2E_4A3D);
    eprintln!("front rehome seed: POLARDBX_TEST_SEED={}", format_seed(seed));

    let (db, front, tenant) = front_cluster();
    let mut admin = FrontClient::connect(front.addr(), tenant).unwrap();
    admin
        .execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 4",
        )
        .unwrap();
    for i in 0..8 {
        admin.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, 0)")).unwrap();
    }

    const CLIENTS: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    let addr = front.addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, Option<Error>) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (w as u64));
                let mut c = match FrontClient::connect(addr, tenant) {
                    Ok(c) => c,
                    Err(e) => return (0, Some(e)),
                };
                let mut applied = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match c.execute("UPDATE t SET v = v + 1 WHERE id = 0") {
                        Ok(1) => applied += 1,
                        Ok(n) => {
                            return (applied, Some(Error::invalid(format!("matched {n} rows"))))
                        }
                        Err(e) if e.is_retryable() => {
                            // Lost the row to another client, or bounced
                            // off a cutover: back off a hair so the other
                            // writer, or the drain, can win.
                            std::thread::sleep(Duration::from_micros(
                                rng.gen_range(50..500),
                            ));
                        }
                        Err(e) => return (applied, Some(e)),
                    }
                }
                (applied, None)
            })
        })
        .collect();

    // Two full rounds of re-homes across every shard while the wire
    // clients hammer. A drain can time out retryably under load.
    let schema = db.gms().table("t").unwrap();
    let dns = db.gms().dns();
    for _round in 0..2 {
        for shard in 0..4u32 {
            let cur = db.gms().shard_dn(schema.id, shard).unwrap();
            let dest = *dns.iter().find(|&&d| d != cur).unwrap();
            for attempt in 0.. {
                match db.rehome_shard_by_id(schema.id, shard, dest) {
                    Ok(_) => break,
                    Err(_) if attempt < 20 => std::thread::sleep(Duration::from_millis(2)),
                    Err(e) => panic!("rehome never succeeded: {e:?}"),
                }
            }
            assert_eq!(db.gms().shard_dn(schema.id, shard).unwrap(), dest);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    stop.store(true, Ordering::Relaxed);

    let mut acked = 0u64;
    for (w, handle) in workers.into_iter().enumerate() {
        let (applied, fatal) = handle.join().unwrap();
        assert!(fatal.is_none(), "wire writer {w} hit non-retryable error: {fatal:?}");
        acked += applied;
    }
    assert!(acked > 0, "writers made progress across cutovers");
    // HLC orders what is causally related: the admin connection's CN took
    // no part in the other CN's last commits, so its snapshot is certain to
    // cover them only once its physical clock passes their tick.
    std::thread::sleep(Duration::from_millis(2));
    let rows = admin.query("SELECT v FROM t WHERE id = 0").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0].get(0).unwrap(),
        &Value::Int(acked as i64),
        "final v must equal the sum of acked wire UPDATEs (seed {seed:#x})"
    );

    admin.quit().unwrap();
    drop(front);
    db.shutdown();
}
