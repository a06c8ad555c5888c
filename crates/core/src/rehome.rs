//! Moving shards under live traffic: one cutover for any set of shards,
//! and what is built on it — a shard re-home and rebalance (§VIII), and a
//! tenant migration (§V).

use std::collections::BTreeMap;
use std::time::Duration;

use polardbx_common::time::mono_now;
use polardbx_common::{Error, NodeId, Result, TableId, TenantId};

use crate::cluster::PolarDbx;
use crate::gms::shard_table_id;

impl PolarDbx {
    /// Re-home one shard of logical table `table` under **live traffic** —
    /// the adaptive-placement cutover and the rebalancing primitive of
    /// §VIII ("we can migrate shards to achieve a balanced state between
    /// DNs"). Returns how long the shard's traffic was paused.
    pub fn rehome_shard_by_id(&self, table: TableId, shard: u32, dest: NodeId) -> Result<Duration> {
        self.move_shards(&[(table, shard)], dest)
    }

    /// The §V tenant transfer: move every shard of every table `tenant`
    /// owns — hidden global-index tables included — to `dest` in one
    /// routing pause, copying no row. Returns how long the tenant's
    /// traffic was paused. A move that fails leaves each shard routed to
    /// where its store is, so running it again finishes it.
    pub fn migrate_tenant(&self, tenant: TenantId, dest: NodeId) -> Result<Duration> {
        self.move_shards(&self.inner.gms.tenant_shards(tenant), dest)
    }

    /// The cutover. Only the listed shards' routing epochs are frozen — new
    /// routes and stale-pinned commits bounce with a retryable error — and
    /// their commit gates drained (in-flight fenced commits finish). Then
    /// each source DN runs one [`RwNode::hand_off`][polardbx_storage::RwNode::hand_off]
    /// of its shards, the destination clock is raised past the source's, so
    /// moved versions stay in its timestamp past, and placement is updated.
    fn move_shards(&self, shards: &[(TableId, u32)], dest: NodeId) -> Result<Duration> {
        let dst = self
            .inner
            .dns()
            .find(|dn| dn.id == dest)
            .ok_or_else(|| Error::invalid("unknown destination DN"))?;
        let mut by_src: BTreeMap<NodeId, Vec<(TableId, u32)>> = BTreeMap::new();
        for &(table, shard) in shards {
            // lint:allow(fence_completeness, migration source lookup, not DML routing: the cutover freezes the epoch before touching data, and a racing re-home serializes behind the same freeze)
            let src = self.inner.gms.shard_dn(table, shard)?;
            if src != dest {
                by_src.entry(src).or_default().push((table, shard));
            }
        }
        let stids: Vec<TableId> =
            by_src.values().flatten().map(|&(table, shard)| shard_table_id(table, shard)).collect();
        if stids.is_empty() {
            return Ok(Duration::ZERO);
        }
        let epochs = self.inner.gms.epochs();
        let t0 = mono_now();
        for &stid in &stids {
            epochs.freeze(stid);
        }
        // The cutover body runs in a closure so every exit — success or any
        // error, including `?` propagation — flows through the single
        // unfreeze below. A shard left frozen bounces every fenced route
        // and commit retryably forever: a permanent livelock.
        let cutover = || -> Result<()> {
            for &stid in &stids {
                if !epochs.drain(stid, Duration::from_secs(2)) {
                    return Err(Error::Timeout { what: "draining shard commit gate".into() });
                }
            }
            for (src_id, moving) in &by_src {
                let src = self.inner.dn(*src_id);
                let tables: Vec<TableId> =
                    moving.iter().map(|&(table, shard)| shard_table_id(table, shard)).collect();
                src.rw.hand_off(&dst.rw, &tables)?;
                // Commit timestamps at the new home must stay above every
                // version the shards carry (the source's clock may run ahead).
                dst.service.clock.update(src.service.clock.now());
                for &(table, shard) in moving {
                    self.inner.gms.move_shard(table, shard, dest);
                }
            }
            Ok(())
        };
        let result = cutover();
        for &stid in &stids {
            epochs.unfreeze(stid);
        }
        result.map(|()| mono_now() - t0)
    }

    /// Balance a table's shards across all DNs by current row counts
    /// (the GMS background-rebalance task of §II-A). Returns the number of
    /// shards moved.
    pub fn rebalance(&self, table: &str) -> Result<usize> {
        let schema = self.inner.gms.table(table)?;
        let mut loads = Vec::new();
        for shard in 0..schema.partition.shard_count() {
            // lint:allow(fence_completeness, planning-only load count: a stale home at worst mis-weighs one shard, and each move re-checks under its own epoch freeze)
            let dn = self.inner.gms.shard_dn(schema.id, shard)?;
            let rows = self.inner.dn(dn)
                .rw
                .engine
                .count_rows(shard_table_id(schema.id, shard), u64::MAX)
                .unwrap_or(0) as u64;
            loads.push((shard, rows));
        }
        let targets: Vec<NodeId> = self.inner.dns().map(|dn| dn.id).collect();
        let plan = self.inner.gms.plan_rebalance(schema.id, &loads, &targets);
        let mut moved = 0;
        for (shard, dest) in plan {
            self.rehome_shard_by_id(schema.id, shard, dest)?;
            moved += 1;
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use polardbx_common::{DcId, Row, Value};
    use polardbx_txn::WireWriteOp;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn cluster() -> PolarDbx {
        PolarDbx::build(ClusterConfig { dns: 3, default_shards: 6, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn rehome_shard_under_live_traffic() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 4",
        )
        .unwrap();
        for i in 0..40 {
            s.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, {i})")).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let s2 = db.connect(DcId(1));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, Option<Error>) {
                let mut applied = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let attempt = (|| -> Result<()> {
                        let (stid, dn, epoch) =
                            s2.route_fenced("t", &[Value::Int(0)])?;
                        let mut txn = s2.coordinator().begin();
                        txn.pin_epoch(stid, epoch)?;
                        txn.write(
                            dn,
                            stid,
                            polardbx_common::Key::encode(&[Value::Int(0)]),
                            WireWriteOp::Update(Row::new(vec![
                                Value::Int(0),
                                Value::Int(applied as i64),
                            ])),
                        )?;
                        txn.commit()?;
                        Ok(())
                    })();
                    match attempt {
                        Ok(()) => applied += 1,
                        Err(e) if e.is_retryable() => {}
                        Err(e) => return (applied, Some(e)),
                    }
                }
                (applied, None)
            })
        };
        // Move every shard to a different DN while the writer hammers.
        let schema = db.gms().table("t").unwrap();
        let dns: Vec<NodeId> = db.gms().dns();
        for shard in 0..4u32 {
            let cur = db.gms().shard_dn(schema.id, shard).unwrap();
            let dest = *dns.iter().find(|&&d| d != cur).unwrap();
            let pause = db.rehome_shard_by_id(schema.id, shard, dest).unwrap();
            assert!(pause < Duration::from_secs(2), "cutover pause bounded");
            assert_eq!(db.gms().shard_dn(schema.id, shard).unwrap(), dest);
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        let (applied, fatal) = writer.join().unwrap();
        assert!(fatal.is_none(), "writer hit non-retryable error: {fatal:?}");
        assert!(applied > 0, "writer made progress across cutovers");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(db.count_rows("t").unwrap(), 40, "no rows lost or duplicated");
        db.shutdown();
    }

    /// The SQL DML path (not the explicit fenced-driver API above) under a
    /// live re-home, with every writer on the **same row**: snapshot
    /// isolation promises that concurrent `v = v + 1` statements serialize
    /// (first committer wins, the loser gets a retryable `WriteConflict`),
    /// and the routing fence that none of them lands on a detached old
    /// home. So the row must end at exactly the number of acked updates.
    #[test]
    fn sql_dml_survives_rehome_without_lost_updates() {
        use rand::{Rng, SeedableRng};
        let seed = polardbx_common::testseed::seed_from_env(0x5A1_D311);
        eprintln!(
            "core rehome seed: POLARDBX_TEST_SEED={}",
            polardbx_common::testseed::format_seed(seed)
        );
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 4",
        )
        .unwrap();
        for i in 0..8 {
            s.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, 0)")).unwrap();
        }
        const WRITERS: u64 = 3;
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                // One session per CN slot, so writers race across coordinators.
                let s2 = db.connect_nth(w as usize);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || -> (u64, Option<Error>) {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ w);
                    let mut applied = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match s2.execute("UPDATE t SET v = v + 1 WHERE id = 0") {
                            Ok(1) => applied += 1,
                            Ok(n) => {
                                return (
                                    applied,
                                    Some(Error::invalid(format!("matched {n} rows"))),
                                )
                            }
                            // Lost the row to another writer, or bounced off
                            // a cutover: back off a hair and go again.
                            Err(e) if e.is_retryable() => std::thread::sleep(
                                Duration::from_micros(rng.gen_range(20..200)),
                            ),
                            Err(e) => return (applied, Some(e)),
                        }
                    }
                    (applied, None)
                })
            })
            .collect();
        let schema = db.gms().table("t").unwrap();
        let dns: Vec<NodeId> = db.gms().dns();
        for _round in 0..2 {
            for shard in 0..4u32 {
                let cur = db.gms().shard_dn(schema.id, shard).unwrap();
                let dest = *dns.iter().find(|&&d| d != cur).unwrap();
                // A drain can time out retryably under the hammering writers.
                for attempt in 0.. {
                    match db.rehome_shard_by_id(schema.id, shard, dest) {
                        Ok(_) => break,
                        Err(_) if attempt < 20 => {
                            std::thread::sleep(Duration::from_millis(2))
                        }
                        Err(e) => panic!("rehome never succeeded: {e:?}"),
                    }
                }
                assert_eq!(db.gms().shard_dn(schema.id, shard).unwrap(), dest);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let mut acked = 0u64;
        for (w, writer) in writers.into_iter().enumerate() {
            let (applied, fatal) = writer.join().unwrap();
            assert!(fatal.is_none(), "SQL writer {w} hit non-retryable error: {fatal:?}");
            acked += applied;
        }
        assert!(acked > 0, "writers made progress across cutovers");
        // HLC orders what is causally related: this session's CN took no
        // part in the other CN's last commits, so its snapshot is certain
        // to cover them only once its physical clock passes their tick.
        std::thread::sleep(Duration::from_millis(2));
        let rows = s.query("SELECT v FROM t WHERE id = 0").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get(0).unwrap(),
            &Value::Int(acked as i64),
            "final v must equal the sum of acked UPDATEs (seed {seed:#x})"
        );
        db.shutdown();
    }

    /// A point read or scan routed to a shard's old home just before the
    /// cutover detaches its store follows the store to the new home: reads
    /// racing a stream of tenant migrations all answer, none errs.
    #[test]
    fn reads_follow_a_store_across_tenant_migrations() {
        let db = cluster();
        let tenant = db.register_tenant("t", polardbx_common::TenantQuotas::unlimited());
        let s = db.connect(DcId(1)).for_tenant(tenant);
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO t (id, v) VALUES (0, 0), (1, 1), (2, 2), (3, 3)").unwrap();
        let stop = AtomicBool::new(false);
        let dns = db.gms().dns();
        let failures = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|r| {
                    let (session, stop) = (db.connect_nth(r), &stop);
                    scope.spawn(move || {
                        let mut failures = Vec::new();
                        while !stop.load(Ordering::Relaxed) {
                            let sql = ["SELECT v FROM t WHERE id = 2", "SELECT COUNT(*) FROM t"][r % 2];
                            match session.query(sql) {
                                Ok(rows) if rows.len() == 1 => {}
                                other => failures.push(format!("{sql}: {other:?}")),
                            }
                        }
                        failures
                    })
                })
                .collect();
            for round in 0..30 {
                db.migrate_tenant(tenant, dns[round % dns.len()]).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            readers.into_iter().flat_map(|r| r.join().unwrap()).collect::<Vec<_>>()
        });
        assert!(failures.is_empty(), "{failures:?}");
        db.shutdown();
    }
}
