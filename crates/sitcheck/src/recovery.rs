//! Crashpoint torture: amnesia restarts under the isolation checker.
//!
//! Each run builds a small [`PolarDbx`] (two DNs and a CN), drives a bank
//! workload whose transfers always span both DNs plus a ledger insert on
//! the victim, then kills the victim DN at a seeded crashpoint:
//!
//! * **mid-group-flush** — a [`FlushShot`] crashes DN1 on its Nth redo
//!   flush. The failed write is an epoch persist, so what it carried — the
//!   concatenated redo of every submission sharing that epoch — is never
//!   acked (optionally after a torn prefix of it lands on the sink).
//!   Early-released locks mean later txns may have read the doomed epoch's
//!   stamps — recovery must roll the whole torn epoch back and the Adya
//!   checker must still come back clean.
//! * **between prepare and commit** — a coordinator failpoint crashes DN1
//!   at `txn.after_votes`: both DNs voted yes, phase two is not yet
//!   posted. The client holds an ack for a commit the victim never applied
//!   — the sharpest RPO case: recovery must surface the PREPARED txn as
//!   in-doubt, with the peers its prepare record names, and the resolver
//!   must commit it by asking them.
//! * **during paxos drain** — a consensus follower is crashed while the
//!   leader keeps replicating, then rejoins from its durable frames
//!   ([`Replica::recovered`]) and catches up via reject-resend.
//!
//! Restart is *amnesia*: [`PolarDbx::restart_amnesia`] discards the old
//! service object and engine, rebuilds the DN from nothing but its durable
//! log sink ([`polardbx_storage::recovered_engine`]), re-registers it on
//! the same [`NodeId`] and un-crashes it. The harness then measures
//! RTO (crash → first clean audit), RPO (acked ledger entries lost — must
//! be zero), replay idempotence (second replay is a no-op), the conserved
//! bank sum, and runs the Adya checker over the *whole* history, spanning
//! the restart boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::time::mono_now;
use polardbx_common::{DcId, Error, HistoryRecorder, Key, Lsn, NodeId, Result, Row, TableId, Value};
use polardbx_consensus::{GroupConfig, PaxosGroup, Replica, Role};
use polardbx_hlc::{Clock, Hlc, TestClock};
use polardbx_simnet::{FaultPlan, FlushShot, Handler, OneShotFault, SimNet};
use polardbx_storage::replay_records;
use polardbx_txn::{Coordinator, ResolverConfig, TxnMsg, WireWriteOp};
use polardbx_wal::{
    scan_frames, scan_records, EpochConfig, LocalEpochSink, LogBuffer, LogSink, Mtr, RedoPayload,
    VecSink,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::bank::{read_points, BankHarness};
use crate::checker::{check, derived_audit_totals, CheckReport};
use crate::explorer::{await_drained, dn_clock, recorded_coordinator};

/// Bank accounts (conserved sum).
const BANK: TableId = TableId(1);
/// One row per *acked* transfer, inserted on the victim. After recovery,
/// every acked transfer's row must still be there — that is RPO = 0.
const LEDGER: TableId = TableId(2);

/// Where in the run the victim dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Power loss during a redo flush — an epoch persist — on the victim.
    MidGroupFlush,
    /// Victim dies after every vote is yes but before phase two.
    BetweenPrepareAndCommit,
    /// A consensus follower dies while the leader keeps replicating.
    DuringPaxosDrain,
}

impl CrashPoint {
    pub fn label(&self) -> &'static str {
        match self {
            CrashPoint::MidGroupFlush => "mid-group-flush",
            CrashPoint::BetweenPrepareAndCommit => "between-prepare-and-commit",
            CrashPoint::DuringPaxosDrain => "during-paxos-drain",
        }
    }

    /// Every crashpoint class; quick and full runs share the matrix and
    /// differ only in seed count.
    pub fn all() -> Vec<CrashPoint> {
        vec![
            CrashPoint::MidGroupFlush,
            CrashPoint::BetweenPrepareAndCommit,
            CrashPoint::DuringPaxosDrain,
        ]
    }
}

/// One torture-run configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    pub seed: u64,
    pub crashpoint: CrashPoint,
    /// Bank accounts (split even → DN1, odd → DN2).
    pub accounts: usize,
    /// Initial balance per account.
    pub initial: i64,
    /// Transfers attempted (the crash lands somewhere in the middle).
    pub transfers: usize,
    /// Leave a torn (partially written) tail on the victim's sink so the
    /// scanner's truncate path is exercised, not just the clean-cut one.
    pub torn_tail: bool,
}

impl RecoveryConfig {
    pub fn quick(seed: u64, crashpoint: CrashPoint) -> RecoveryConfig {
        RecoveryConfig { seed, crashpoint, accounts: 8, initial: 100, transfers: 24, torn_tail: true }
    }
}

/// Everything measured by one crash-restart run.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    pub crashpoint_label: &'static str,
    pub seed: u64,
    /// Adya check over the full history, spanning the restart.
    pub report: CheckReport,
    /// Bank conserved sum after recovery.
    pub conserved_ok: bool,
    pub expected_total: i64,
    pub observed_total: i64,
    /// Commits acked to the client before/around the crash.
    pub acked_commits: usize,
    /// Acked commits missing after recovery. RPO = 0 ⇔ this is 0.
    pub lost_acked: usize,
    /// Second replay of the same log changed nothing.
    pub replay_idempotent: bool,
    /// Crash → first successful post-restart audit (or dlsn catch-up for
    /// the consensus crashpoint).
    pub rto: Duration,
    /// The victim came back within the harness deadline.
    pub recovered_in_time: bool,
    /// PREPARED-but-undecided txns surfaced by replay.
    pub in_doubt_recovered: usize,
    /// Torn-tail bytes discarded by scan-and-truncate.
    pub truncated_bytes: u64,
    /// Amnesia restarts observed by the fault layer.
    pub amnesia_restarts: u64,
}

impl RecoveryRun {
    /// The acceptance gate: clean history, conserved sum, zero acked
    /// losses, idempotent replay, and the node actually came back.
    pub fn passed(&self) -> bool {
        self.report.is_clean()
            && self.conserved_ok
            && self.lost_acked == 0
            && self.replay_idempotent
            && self.recovered_in_time
    }
}

/// A [`LogSink`] that models power loss: once the fault layer declares the
/// node crashed (possibly *because of* this very flush, via a
/// [`FlushShot`]), every write fails — after optionally persisting a seeded
/// prefix of the triggering write, the "torn tail" a real disk can leave.
struct CrashpointSink {
    node: NodeId,
    net: Arc<SimNet<TxnMsg>>,
    inner: Arc<VecSink>,
    /// `Some(rng)` until the torn prefix has been dealt (at most once).
    torn: Mutex<Option<StdRng>>,
}

impl LogSink for CrashpointSink {
    fn write(&self, at: Lsn, bytes: Bytes) -> Result<()> {
        if self.net.note_flush(self.node) {
            if !bytes.is_empty() {
                if let Some(mut rng) = self.torn.lock().unwrap().take() {
                    let cut = rng.gen_range(0..bytes.len());
                    if cut > 0 {
                        let _ = self.inner.write(at, bytes.slice(0..cut));
                    }
                }
            }
            return Err(Error::storage(format!("{:?} lost power mid-flush", self.node)));
        }
        self.inner.write(at, bytes)
    }
}

fn ledger_key(i: usize) -> Key {
    Key::encode(&[Value::Int(10_000 + i as i64)])
}

/// One two-shard transfer plus a ledger insert on the victim. Returns the
/// commit timestamp when the commit was *acked* to the client. `staged`
/// sends both reads in one round and the three writes inside the commit
/// round; otherwise each is a message of its own.
fn transfer(coord: &Coordinator, bank: &BankHarness, i: usize, a: usize, b: usize, staged: bool) -> Result<u64> {
    let mut txn = coord.begin();
    let (ra, rb) = if staged {
        let reads = vec![(bank.dn_of(a), BANK, bank.key(a)), (bank.dn_of(b), BANK, bank.key(b))];
        let mut found = read_points(&mut txn, reads)?.into_iter();
        (found.next().flatten(), found.next().flatten())
    } else {
        (txn.read(bank.dn_of(a), BANK, &bank.key(a))?, txn.read(bank.dn_of(b), BANK, &bank.key(b))?)
    };
    let balance = |row: Option<Row>| row.ok_or(Error::KeyNotFound)?.get(1)?.as_int();
    let (ba, bb) = (balance(ra)?, balance(rb)?);
    let account = |i: usize, balance: i64| {
        WireWriteOp::Update(Row::new(vec![Value::Int(i as i64), Value::Int(balance)]))
    };
    let ledger = Row::new(vec![Value::Int(10_000 + i as i64), Value::Int(1)]);
    for (dn, table, key, op) in [
        (bank.dn_of(a), BANK, bank.key(a), account(a, ba - 1)),
        (bank.dn_of(b), BANK, bank.key(b), account(b, bb + 1)),
        (bank.dns[0], LEDGER, ledger_key(i), WireWriteOp::Insert(ledger)),
    ] {
        if staged {
            txn.stage_write(dn, table, key, op);
        } else {
            txn.write(dn, table, key, op)?;
        }
    }
    txn.commit()
}

/// Run one crashpoint scenario end to end.
pub fn run_crashpoint(cfg: &RecoveryConfig) -> RecoveryRun {
    match cfg.crashpoint {
        CrashPoint::DuringPaxosDrain => run_paxos_drain(cfg),
        _ => run_txn_crash(cfg),
    }
}

fn run_txn_crash(cfg: &RecoveryConfig) -> RecoveryRun {
    let db = PolarDbx::builder(ClusterConfig { dcs: 2, cns_per_dc: 1, dns: 2, ..Default::default() })
        .dn_clocks(dn_clock)
        .resolver_timing(ResolverConfig {
            interval: Duration::from_millis(10),
            in_doubt_after: Duration::from_millis(50),
            abandon_active_after: Duration::from_millis(150),
        })
        .build()
        .expect("cluster");
    // The crash victim, DN 0 ("DN1"), hosts the even accounts and the ledger.
    let (victim, dn1) = (db.dn(0), db.dn(0).id);
    let net = Arc::clone(db.net());
    let rec = HistoryRecorder::new();
    // All coordinators share one session clock: commit acks raise it above
    // the DNs' timestamps, so later snapshots (including the post-restart
    // audits) can see earlier commits — plain HLC propagation.
    let cn_clock: Arc<dyn Clock> = Hlc::with_physical(TestClock::at(500));
    let coordinator = || recorded_coordinator(&db, 0, Arc::clone(&cn_clock), &rec);
    let bank = BankHarness {
        table: BANK,
        dns: vec![dn1, db.dn(1).id],
        accounts: cfg.accounts,
        initial: cfg.initial,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EC0_4E41);

    // Victim DN: its durable log behind the crash wrapper.
    let cp_sink = Arc::new(CrashpointSink {
        node: dn1,
        net: Arc::clone(&net),
        inner: Arc::clone(victim.rw.log_sink()),
        torn: Mutex::new(
            cfg.torn_tail.then(|| StdRng::seed_from_u64(cfg.seed ^ 0x7042_7A11)),
        ),
    });
    let log = LogBuffer::new(cp_sink as Arc<dyn LogSink>);
    victim.rw.engine.pipeline().replace_sink(LocalEpochSink::new(log), EpochConfig::default());
    victim.rw.create_table(BANK);
    victim.rw.create_table(LEDGER);
    db.dn(1).rw.create_table(BANK);
    for i in 0..2 {
        db.dn(i).service.attach_recorder(Arc::clone(&rec));
    }

    // Seed the bank before arming any crash trigger, so flush counts and
    // vote-round counts are workload-relative (deterministic per seed).
    bank.seed(&coordinator()).expect("seed");
    let expected_total = bank.expected_total();

    // Arm the crash.
    let coord = match cfg.crashpoint {
        CrashPoint::MidGroupFlush => {
            // Each transfer costs the victim ~2 flushes (the epochs
            // carrying its prepare and its commit); fire inside the first
            // handful so plenty of acked state both precedes and follows
            // the crash.
            net.set_fault_plan(
                FaultPlan::new(cfg.seed).with_label("recovery-mid-group-flush").with_flush_shot(
                    FlushShot {
                        node: dn1,
                        after_flushes: rng.gen_range(2..=6),
                        fault: OneShotFault::Crash(dn1),
                    },
                ),
            );
            coordinator()
        }
        CrashPoint::BetweenPrepareAndCommit => {
            // Crash the victim after the Mth round of yes votes, before
            // phase two reaches it. The client still gets its ack.
            let m = rng.gen_range(2..=4u64);
            let seen = AtomicU64::new(0);
            let fp_net = Arc::clone(&net);
            coordinator().with_failpoint(Arc::new(move |point| {
                if point == "txn.after_votes"
                    && seen.fetch_add(1, Ordering::SeqCst) + 1 == m
                {
                    fp_net.crash(dn1);
                }
            }))
        }
        CrashPoint::DuringPaxosDrain => unreachable!(),
    };

    // Workload: sequential transfers, always DN1 (even) → DN2 (odd).
    let mut acked: Vec<usize> = Vec::new();
    let mut crash_at: Option<Duration> = None;
    for i in 0..cfg.transfers {
        let a = 2 * rng.gen_range(0..cfg.accounts as i64 / 2);
        let b = 2 * rng.gen_range(0..cfg.accounts as i64 / 2) + 1;
        if transfer(&coord, &bank, i, a as usize, b as usize, rng.gen()).is_ok() {
            acked.push(i);
        }
        if crash_at.is_none() && net.is_crashed(dn1) {
            crash_at = Some(mono_now());
        }
    }
    // A seed whose trigger never fired still crashes — at a quiescent
    // point, the easiest case, but the recovery path is identical.
    if crash_at.is_none() {
        net.crash(dn1);
        crash_at = Some(mono_now());
    }
    let t_crash = crash_at.unwrap();

    // ---- Amnesia restart -------------------------------------------------
    // The cluster drops the dead service and engine on the floor; all that
    // survives is the durable sink. Scan-and-truncate + replay happen
    // inside the restart.
    let r1 = db.restart_amnesia(0).expect("recovery");
    let recovered = db.dn(0);
    let engine = Arc::clone(&recovered.rw.engine);

    // Idempotence: replaying the recovered prefix of the log into the same
    // engine again must register nothing new — every record is recognised
    // as already applied, whatever the resolver appended since.
    let log = recovered.rw.log_sink_bytes();
    let rescan = scan_records(&log[..r1.durable_lsn.raw() as usize]);
    let r2 = replay_records(&engine, &rescan.records).expect("second replay");
    let replay_idempotent =
        r2.committed == 0 && r2.aborted == 0 && r2.in_doubt.len() == r1.in_doubt.len();

    // ---- RTO: first clean audit through the recovered node ---------------
    let auditor = coordinator();
    let deadline = mono_now() + Duration::from_secs(20);
    let mut rto = Duration::ZERO;
    let mut recovered_in_time = false;
    while mono_now() < deadline {
        match bank.audit(&auditor) {
            Ok(_) => {
                rto = mono_now() - t_crash;
                recovered_in_time = true;
                break;
            }
            Err(e) => {
                if std::env::var_os("POLARDBX_RECOVERY_DEBUG").is_some() {
                    eprintln!("audit retry: {e:?}");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Let the resolvers settle every straggler, then take the final sum.
    let services = [Arc::clone(&db.dn(0).service), Arc::clone(&db.dn(1).service)];
    let drained = await_drained(&services, Duration::from_secs(10));
    let observed_total = bank.audit(&auditor).unwrap_or(i64::MIN);
    let conserved_ok = drained && observed_total == expected_total;

    // ---- RPO: every acked transfer's ledger row survived ------------------
    let ledger = engine.scan_table(LEDGER, u64::MAX).unwrap_or_default();
    let present: std::collections::HashSet<Key> = ledger.into_iter().map(|(k, _)| k).collect();
    let lost_acked = acked.iter().filter(|i| !present.contains(&ledger_key(**i))).count();

    db.shutdown();
    let events = rec.take();
    let report = check(&events);
    if !report.is_clean() && std::env::var_os("POLARDBX_RECOVERY_DEBUG").is_some() {
        let mut touched: std::collections::HashSet<polardbx_common::TrxId> =
            std::collections::HashSet::new();
        for a in &report.anomalies {
            touched.extend(a.txns.iter().copied());
        }
        for ev in &events {
            eprintln!("EV {ev:?}");
        }
        eprintln!("ANOMALY TXNS: {touched:?}");
    }
    // The derived audit re-checks conservation from the history itself.
    let derived_ok = derived_audit_totals(&events, BANK, 1, cfg.accounts)
        .iter()
        .all(|(_, total)| *total == expected_total);
    let amnesia_restarts = net.fault_stats.amnesia_restarts.get();
    net.shutdown();

    RecoveryRun {
        crashpoint_label: cfg.crashpoint.label(),
        seed: cfg.seed,
        report,
        conserved_ok: conserved_ok && derived_ok,
        expected_total,
        observed_total,
        acked_commits: acked.len(),
        lost_acked,
        replay_idempotent,
        rto,
        recovered_in_time,
        in_doubt_recovered: r1.in_doubt.len(),
        truncated_bytes: r1.truncated_bytes,
        amnesia_restarts,
    }
}

fn drain_mtr(n: i64) -> Mtr {
    Mtr::single(RedoPayload::Insert {
        trx: polardbx_common::TrxId(777),
        table: BANK,
        key: Key::encode(&[Value::Int(n)]),
        row: Bytes::from(vec![b'd'; 24]),
    })
}

/// Crash a consensus follower while the leader keeps draining its queue;
/// rejoin from durable frames and catch up before serving.
fn run_paxos_drain(cfg: &RecoveryConfig) -> RecoveryRun {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD4A14);
    let g = PaxosGroup::build(GroupConfig::three_dc(21));
    let leader = g.leader().expect("bootstrap leader");
    let members: Vec<NodeId> = g.replicas.iter().map(|r| r.me).collect();

    // Pre-crash entries, each acked durable before we pull the plug.
    let pre = rng.gen_range(3..=6);
    let mut acked_lsns: Vec<Lsn> = Vec::new();
    for n in 0..pre {
        acked_lsns
            .push(leader.replicate_and_wait(&[drain_mtr(n)], Duration::from_secs(2)).expect("pre"));
    }
    let acked_horizon = leader.status().dlsn;

    // Victim: the non-leader *voter* (DC3 holds the logger).
    let victim_idx = g
        .replicas
        .iter()
        .position(|r| r.me != leader.me && r.status().role == Role::Follower)
        .expect("a follower to crash");
    let victim = g.replicas[victim_idx].me;
    let victim_dc = DcId(victim_idx as u64 + 1);
    g.net.crash(victim);
    let t_crash = mono_now();

    // Drain continues on the surviving majority (leader + logger).
    let post = rng.gen_range(2..=5);
    for n in 0..post {
        leader
            .replicate_and_wait(&[drain_mtr(100 + n)], Duration::from_secs(2))
            .expect("post-crash drain");
    }

    // Amnesia restart from the durable frame log, with an optional torn
    // tail chewing into the last frame.
    let sink = Arc::clone(&g.sinks[victim_idx]);
    let mut truncated_bytes = 0u64;
    if cfg.torn_tail {
        sink.corrupt_tail(rng.gen_range(1..8));
    }
    let stream = sink.frame_stream();
    let scan = scan_frames(&stream);
    // Scanning is read-only, so a second scan must agree exactly.
    let rescan = scan_frames(&sink.frame_stream());
    let mut replay_idempotent =
        scan.frames == rescan.frames && scan.valid_len == rescan.valid_len;
    if scan.torn.is_some() {
        truncated_bytes = (stream.len() - scan.valid_len) as u64;
        let durable = scan.durable_lsn().unwrap_or(Lsn::ZERO);
        sink.truncate_frames_to(durable);
        // After truncation the stream must scan clean — and identically.
        let clean = scan_frames(&sink.frame_stream());
        replay_idempotent =
            replay_idempotent && clean.torn.is_none() && clean.frames == scan.frames;
    }

    let recovered = Replica::recovered(
        victim,
        victim_dc,
        members,
        false,
        Arc::clone(&g.net),
        Arc::clone(&sink) as Arc<dyn LogSink>,
        scan.frames.clone(),
    );
    g.net.register(victim, victim_dc, Arc::clone(&recovered) as Arc<dyn Handler<_>>);
    g.net.restart_amnesia(victim);
    leader.sync_followers();

    // RTO: rejoin → caught up to the leader's full log (reject-resend
    // backfill plus live heartbeats).
    let target = leader.status().last_lsn;
    let deadline = mono_now() + Duration::from_secs(10);
    let mut rto = Duration::ZERO;
    let mut recovered_in_time = false;
    while mono_now() < deadline {
        let st = recovered.status();
        if st.dlsn >= target && st.last_lsn >= target {
            rto = mono_now() - t_crash;
            recovered_in_time = true;
            break;
        }
        leader.sync_followers();
        std::thread::sleep(Duration::from_millis(2));
    }

    // RPO: every entry acked before the crash is in the recovered log.
    let final_last = recovered.status().last_lsn;
    let lost_acked = acked_lsns.iter().filter(|l| **l > final_last).count()
        + usize::from(final_last < acked_horizon);

    let amnesia_restarts = g.net.fault_stats.amnesia_restarts.get();
    g.net.shutdown();

    RecoveryRun {
        crashpoint_label: cfg.crashpoint.label(),
        seed: cfg.seed,
        // No transactional history in this scenario; the checker runs on
        // an empty history and must (trivially) come back clean.
        report: check(&[]),
        conserved_ok: true,
        expected_total: 0,
        observed_total: 0,
        acked_commits: acked_lsns.len(),
        lost_acked,
        replay_idempotent,
        rto,
        recovered_in_time,
        in_doubt_recovered: 0,
        truncated_bytes,
        amnesia_restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_run(r: &RecoveryRun) {
        assert!(r.recovered_in_time, "{}: victim never came back", r.crashpoint_label);
        assert_eq!(r.lost_acked, 0, "{}: acked commits lost (RPO > 0)", r.crashpoint_label);
        assert!(r.replay_idempotent, "{}: replay not idempotent", r.crashpoint_label);
        assert!(r.conserved_ok, "{}: conserved sum broken: {:?}", r.crashpoint_label, r);
        assert!(
            r.report.is_clean(),
            "{}: anomalies across restart: {:?}",
            r.crashpoint_label,
            r.report
        );
        assert!(r.passed());
    }

    #[test]
    fn mid_group_flush_crash_recovers_clean() {
        let r = run_crashpoint(&RecoveryConfig::quick(1, CrashPoint::MidGroupFlush));
        assert!(r.amnesia_restarts >= 1);
        assert_run(&r);
    }

    #[test]
    fn prepare_commit_window_crash_keeps_acked_commit() {
        let r = run_crashpoint(&RecoveryConfig::quick(2, CrashPoint::BetweenPrepareAndCommit));
        assert!(r.acked_commits > 0);
        assert_run(&r);
    }

    #[test]
    fn paxos_drain_crash_rejoins_and_catches_up() {
        let r = run_crashpoint(&RecoveryConfig::quick(3, CrashPoint::DuringPaxosDrain));
        assert!(r.acked_commits > 0);
        assert_run(&r);
    }

    #[test]
    fn torn_tail_off_still_recovers() {
        let mut cfg = RecoveryConfig::quick(4, CrashPoint::MidGroupFlush);
        cfg.torn_tail = false;
        let r = run_crashpoint(&cfg);
        assert_run(&r);
    }
}
