//! The adaptive placer: a background thread that turns the commit-time
//! co-access sketch into throttled shard re-homes.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use polardbx_mt::{RehomeConfig, RehomeExecutor};
use polardbx_placement::{plan as placement_plan, PlannerConfig};

use crate::cluster::PolarDbx;

/// Adaptive-placer knobs (see [`PolarDbx::start_placer`]).
#[derive(Debug, Clone, Copy)]
pub struct PlacerConfig {
    /// How often the placer snapshots the sketch and plans.
    pub interval: Duration,
    /// Affinity-clustering knobs.
    pub planner: PlannerConfig,
    /// Cutover throttle (min gap between moves, per-pass cap).
    pub rehome: RehomeConfig,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            interval: Duration::from_millis(200),
            planner: PlannerConfig::default(),
            rehome: RehomeConfig::default(),
        }
    }
}

impl PolarDbx {
    /// Start the adaptive placer: a background thread that periodically
    /// snapshots the co-access sketch, plans affinity moves, and applies
    /// them through the throttled re-home executor. Stops on
    /// [`PolarDbx::shutdown`].
    pub fn start_placer(&self, cfg: PlacerConfig) {
        // The thread holds only a Weak handle: a strong clone would keep
        // `Inner` alive forever, making the Drop-based stop unreachable —
        // a cluster dropped without shutdown() would leak the thread and
        // all cluster state for the process lifetime.
        let weak = Arc::downgrade(&self.inner);
        let stop = Arc::clone(&self.inner.placer_stop);
        std::thread::Builder::new()
            .name("polardbx-placer".into())
            .spawn(move || {
                let executor = RehomeExecutor::new(cfg.rehome);
                let mut next = polardbx_common::time::mono_now() + cfg.interval;
                while !stop.load(Ordering::Relaxed) {
                    if polardbx_common::time::mono_now() < next {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    next = polardbx_common::time::mono_now() + cfg.interval;
                    // Upgrade per pass and drop the strong handle at the end
                    // of the pass; the cluster going away ends the thread.
                    let Some(inner) = weak.upgrade() else { break };
                    let db = PolarDbx { inner };
                    let mut snap = db.inner.sketch.snapshot();
                    // Tumbling window: plan on this interval's traffic only.
                    // Without the reset, counts from cold placements distort
                    // the balance cap indefinitely.
                    db.inner.sketch.reset();
                    // Sketch homes are commit-time observations and can mix
                    // pre- and post-cutover values inside one window; a plan
                    // built on a stale home proposes moves toward a DN the
                    // partition already left — oscillation. Placement is the
                    // truth: re-resolve every home before planning.
                    snap.parts.retain_mut(|p| {
                        let table = polardbx_common::TableId(p.part / 10_000);
                        let shard = (p.part % 10_000) as u32;
                        // lint:allow(fence_completeness, planning-only home resolution: staleness merely proposes a worse move, and the executed cutover re-checks under its own epoch freeze)
                        match db.inner.gms.shard_dn(table, shard) {
                            Ok(dn) => {
                                p.home = dn;
                                true
                            }
                            Err(_) => false, // shard dropped since observed
                        }
                    });
                    let moves = placement_plan(&snap, &cfg.planner);
                    if moves.is_empty() {
                        continue;
                    }
                    executor.execute(&moves, |mv| {
                        // Shard-table ids encode (table, shard); see
                        // `gms::shard_table_id`.
                        let table = polardbx_common::TableId(mv.part / 10_000);
                        let shard = (mv.part % 10_000) as u32;
                        // The sketch home may lag a move executed after the
                        // snapshot was taken; placement is the truth.
                        // lint:allow(fence_completeness, no-op-move check before a re-home: a stale read at worst skips or repeats a move attempt, and the cutover itself is epoch-fenced)
                        if db.inner.gms.shard_dn(table, shard)? == mv.to {
                            return Ok(Duration::ZERO);
                        }
                        let pause = db.rehome_shard_by_id(table, shard, mv.to)?;
                        db.inner.txn_metrics.rehomes_applied.inc();
                        Ok(pause)
                    });
                }
            })
            .expect("spawn placer");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::gms::shard_table_id;
    use polardbx_common::{DcId, NodeId, Result, Row, Value};
    use polardbx_txn::WireWriteOp;

    fn cluster() -> PolarDbx {
        PolarDbx::build(ClusterConfig { dns: 3, default_shards: 6, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn placer_converts_cross_dn_txns_to_one_phase() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE p (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 6",
        )
        .unwrap();
        for i in 0..12 {
            s.execute(&format!("INSERT INTO p (id, v) VALUES ({i}, 0)")).unwrap();
        }
        // Pick two ids whose shards live on different DNs.
        let (a, b) = (0..12i64)
            .flat_map(|x| (0..12i64).map(move |y| (x, y)))
            .find(|&(x, y)| {
                x != y
                    && s.route("p", &[Value::Int(x)]).unwrap().1
                        != s.route("p", &[Value::Int(y)]).unwrap().1
            })
            .expect("some pair crosses DNs");
        db.start_placer(PlacerConfig {
            interval: Duration::from_millis(20),
            planner: PlannerConfig { max_moves: 4, min_edge_weight: 4, balance_slack: 10.0 },
            rehome: RehomeConfig {
                min_gap: Duration::from_millis(5),
                max_per_pass: 2,
            },
        });
        let metrics = Arc::clone(db.txn_metrics());
        let commit_pair = |val: i64| -> Result<bool> {
            let before_1pc = metrics.one_phase_commits.get();
            let (ta, da, ea) = s.route_fenced("p", &[Value::Int(a)])?;
            let (tb, dbn, eb) = s.route_fenced("p", &[Value::Int(b)])?;
            let mut txn = s.coordinator().begin();
            txn.pin_epoch(ta, ea)?;
            txn.pin_epoch(tb, eb)?;
            txn.write(
                da,
                ta,
                polardbx_common::Key::encode(&[Value::Int(a)]),
                WireWriteOp::Update(Row::new(vec![Value::Int(a), Value::Int(val)])),
            )?;
            txn.write(
                dbn,
                tb,
                polardbx_common::Key::encode(&[Value::Int(b)]),
                WireWriteOp::Update(Row::new(vec![Value::Int(b), Value::Int(val)])),
            )?;
            txn.commit()?;
            Ok(metrics.one_phase_commits.get() > before_1pc)
        };
        let deadline = polardbx_common::time::mono_now() + Duration::from_secs(20);
        let mut converged = false;
        let mut i = 0i64;
        while polardbx_common::time::mono_now() < deadline {
            i += 1;
            match commit_pair(i) {
                Ok(true) if metrics.rehomes_applied.get() > 0 => {
                    converged = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => assert!(e.is_retryable(), "unexpected error: {e:?}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            converged,
            "placer failed to colocate the hot pair (rehomes={}, 1pc={}, 2pc={})",
            metrics.rehomes_applied.get(),
            metrics.one_phase_commits.get(),
            metrics.two_phase_commits.get(),
        );
        db.shutdown();
    }

    /// The placer's tap: a pushed UPDATE of one row on each of three DNs
    /// records its write partitions, each at its home, as one cross-DN
    /// commit.
    #[test]
    fn a_pushed_update_spanning_dns_reaches_the_sketch() {
        let config = ClusterConfig { dcs: 3, cns_per_dc: 1, dns: 3, ..Default::default() };
        let db = PolarDbx::build(config).unwrap();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 8",
        )
        .unwrap();
        let values: Vec<String> = (0..96).map(|i| format!("({i}, 0)")).collect();
        s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(", "))).unwrap();
        let schema = db.gms().table("t").unwrap();
        let home = |id: i64| db.gms().route_key(&schema, &[Value::Int(id)]).unwrap();
        let mut ids: Vec<i64> = Vec::new();
        for id in 0..96 {
            if ids.iter().all(|&other| home(other).1 != home(id).1) {
                ids.push(id);
            }
        }
        assert_eq!(ids.len(), 3, "the table spans the three DNs");

        db.inner.sketch.reset();
        s.execute(&format!("UPDATE t SET v = v + 1 WHERE id IN ({}, {}, {})", ids[0], ids[1], ids[2]))
            .unwrap();
        let mut wrote: Vec<(u64, NodeId)> = ids
            .iter()
            .map(|&id| {
                let (shard, dn) = home(id);
                (shard_table_id(schema.id, shard).raw(), dn)
            })
            .collect();
        wrote.sort_unstable();
        let snap = db.inner.sketch.snapshot();
        let mut seen: Vec<(u64, NodeId)> = snap.parts.iter().map(|p| (p.part, p.home)).collect();
        seen.sort_unstable();
        assert_eq!(seen, wrote);
        assert!(snap.parts.iter().all(|p| p.count == 1));
        assert_eq!((snap.commits, snap.one_phase, snap.edges.len()), (1, 0, 3));
        db.shutdown();
    }
}
