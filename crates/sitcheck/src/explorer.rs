//! Deterministic schedule explorer: seeded cluster runs whose complete
//! histories feed the [`crate::checker`].
//!
//! Each run builds a [`PolarDbx`] — three RW DNs (each with an RO replica
//! fed by log shipping), a register DN, two CN sessions — wires a
//! [`HistoryRecorder`] into every coordinator, participant and replica
//! engine, and drives a mixed workload: multi-DN bank transfers, read-only
//! audits, register read-modify-writes and cross-DN range scans. A
//! [`Schedule`] picks the fault injection: seeded message loss and
//! duplication, a coordinator crash in the middle of its vote round or after
//! its votes, a Paxos leader re-election under the register DN's
//! durability, RO apply lag, or a partition that strands a participant
//! PREPARED mid phase-two.
//!
//! All clocks are `TestClock`-backed HLCs with deliberately skewed bases
//! (the *i*-th DN at `1000·i` ms, CNs at 500/700 ms), so causality is carried by
//! HLC propagation alone — exactly the property the protocol mutations
//! break. The [`Mutation`]s re-run a deterministic scenario with one
//! protocol step disabled; each must surface a named anomaly while its
//! unmutated twin stays clean. That pair of assertions is what makes the
//! checker self-validating.
//!
//! RO replicas are audited only at *watermark* snapshots: after the
//! cluster drains, each RW ships its redo tail and the audit snapshot is
//! the minimum of the DN clocks at that quiescent point. The shipped log
//! then contains every version at or below the watermark, so a clean run
//! can never produce a false fractured read on a replica.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use polardbx_common::time::mono_now;
use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::{DcId, Error, HistoryRecorder, Key, NodeId, Row, TableId, TrxId, Value};
use polardbx_consensus::{GroupConfig, PaxosGroup, Role};
use polardbx_hlc::{Clock, Hlc, TestClock};
use polardbx_placement::EpochMap;
use polardbx_simnet::{FaultPlan, Handler, LinkFaults, SimNet};
use polardbx_txn::{
    Coordinator, DnService, ParticipantMutations, ProtocolMutations, ResolverConfig, RoutingFence,
    TxnConfig, TxnMsg, WireWriteOp,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::bank::{AddInt, BankHarness, WritePath};
use crate::checker::{check, derived_audit_totals, CheckReport};

/// Bank accounts live here (conserved-sum invariant).
pub const BANK: TableId = TableId(1);
/// RMW registers live here (kept out of the conserved sum).
pub const REGISTERS: TableId = TableId(2);

// The cluster's node ids, in build order: DN `i` is `NodeId(1000 + i)` in
// DC `1 + i % 3`, CN `i` is `NodeId(1 + i)` in DC `1 + i`.
const DN_COUNT: usize = 3;
const DN1: NodeId = NodeId(1000);
const REGISTER_DN: NodeId = NodeId(1003);
const CN_A: NodeId = NodeId(1);
const CN_B: NodeId = NodeId(2);

/// A fault schedule for one explorer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// No faults: the baseline interleaving-only run.
    Clean,
    /// Seeded cross-DC message loss and duplication.
    LossyDup,
    /// CN A crashes while its Prepare to DN3 is in flight: the round's
    /// other DN votes yes, DN3 never votes. Resolvers must abort through
    /// DN3's refusal.
    CoordCrashMidPrepare,
    /// CN A crashes at `txn.after_votes` (participants stranded PREPARED;
    /// resolvers must commit at the max `prepare_ts`).
    CoordCrashAfterVotes,
    /// The register DN's durability rides a Paxos group whose leader is
    /// deposed and re-elected mid-wave.
    LeaderReelection,
    /// RO replicas apply with artificial lag.
    RoLag,
    /// A partition severs CN A from DC2 right after a round of yes votes,
    /// stranding DN2 PREPARED mid phase-two.
    PreparedWindow,
    /// The hot REGISTERS partition is re-homed to DN1 mid-workload (the
    /// adaptive-placement cutover: freeze + epoch bump, drain, move the
    /// version store, cut routing over) under seeded cross-DC loss/dup.
    Rehome,
}

impl Schedule {
    /// Stable label used in fault plans and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::Clean => "clean",
            Schedule::LossyDup => "lossy-dup",
            Schedule::CoordCrashMidPrepare => "coord-crash-mid-prepare",
            Schedule::CoordCrashAfterVotes => "coord-crash-after-votes",
            Schedule::LeaderReelection => "leader-reelection",
            Schedule::RoLag => "ro-lag",
            Schedule::PreparedWindow => "prepared-window",
            Schedule::Rehome => "rehome",
        }
    }

    /// The quick CI subset.
    pub fn quick() -> &'static [Schedule] {
        &[
            Schedule::Clean,
            Schedule::LossyDup,
            Schedule::CoordCrashAfterVotes,
            Schedule::RoLag,
            Schedule::Rehome,
        ]
    }

    /// The full matrix.
    pub fn all() -> &'static [Schedule] {
        &[
            Schedule::Clean,
            Schedule::LossyDup,
            Schedule::CoordCrashMidPrepare,
            Schedule::CoordCrashAfterVotes,
            Schedule::LeaderReelection,
            Schedule::RoLag,
            Schedule::PreparedWindow,
            Schedule::Rehome,
        ]
    }
}

/// The self-validation mutations: each disables one protocol step the
/// checker must notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Skip the coordinator's commit-time HLC absorb (paper step ⑥): the
    /// session's next snapshot falls below its own commit → G-SIb.
    SkipCommitClockUpdate,
    /// Readers skip PREPARED versions instead of waiting them out: a
    /// mid-phase-two audit sees half a transaction → G-SIa.
    IgnorePreparedReads,
    /// The coordinator silently forgets one participant: that DN's writes
    /// expire as an abandoned transaction → LostWrite.
    DropPrepare,
    /// A commit skips the routing-epoch fence during a placement cutover:
    /// a transaction that routed before the move commits to the *old*
    /// home, splitting the key's history across two DNs → LostUpdate.
    SkipRoutingEpochFence,
    /// A pushed edit is not checked against its transaction's snapshot: it
    /// reads the row there, then overwrites a version committed since —
    /// first committer no longer wins → LostUpdate.
    SkipEditConflictCheck,
    /// A resolver counts a peer it cannot reach as PREPARED: it commits a
    /// transaction that peer refused → LostWrite.
    ResolveOnPartialView,
    /// A late `Write` re-opens a transaction its DN refused, and the
    /// Prepare behind it votes yes after the refusal → LostWrite.
    ForgetRefusal,
}

impl Mutation {
    /// All mutations, for the self-validation matrix.
    pub fn all() -> &'static [Mutation] {
        &[
            Mutation::SkipCommitClockUpdate,
            Mutation::IgnorePreparedReads,
            Mutation::DropPrepare,
            Mutation::SkipRoutingEpochFence,
            Mutation::SkipEditConflictCheck,
            Mutation::ResolveOnPartialView,
            Mutation::ForgetRefusal,
        ]
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::SkipCommitClockUpdate => "mutation-skip-commit-clock-update",
            Mutation::IgnorePreparedReads => "mutation-ignore-prepared-reads",
            Mutation::DropPrepare => "mutation-drop-prepare",
            Mutation::SkipRoutingEpochFence => "mutation-skip-routing-epoch-fence",
            Mutation::SkipEditConflictCheck => "mutation-skip-edit-conflict-check",
            Mutation::ResolveOnPartialView => "mutation-resolve-on-partial-view",
            Mutation::ForgetRefusal => "mutation-forget-refusal",
        }
    }

    /// How the scenario's writer reaches its DNs on `seed`. The refusal
    /// scenarios send each write as a message: the history sees an abort
    /// only where writes were discarded, and a `Write` can arrive late.
    pub fn path(&self, seed: u64) -> WritePath {
        match self {
            Mutation::ResolveOnPartialView | Mutation::ForgetRefusal => WritePath::PerStatement,
            _ => WritePath::pick(seed),
        }
    }
}

/// Workload shape for one run.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Seed for the fault plan and workload RNGs.
    pub seed: u64,
    /// Fault schedule.
    pub schedule: Schedule,
    /// Bank accounts (spread round-robin over the three RW DNs).
    pub accounts: usize,
    /// Initial balance per account.
    pub initial: i64,
    /// RMW registers on the register DN.
    pub registers: usize,
    /// Concurrent transfer threads per wave.
    pub transfer_threads: usize,
    /// Transfers attempted per thread per wave.
    pub transfers_per_thread: usize,
    /// Concurrent RMW threads per wave.
    pub rmw_threads: usize,
    /// RMW attempts per thread per wave.
    pub rmws_per_thread: usize,
    /// Range-scan transactions per wave.
    pub scans: usize,
    /// Primary audits per wave.
    pub audits: usize,
    /// Workload waves (drain + RO audit after the last).
    pub waves: usize,
}

impl ExplorerConfig {
    /// The quick shape used by CI and the test suite.
    pub fn quick(seed: u64, schedule: Schedule) -> ExplorerConfig {
        ExplorerConfig {
            seed,
            schedule,
            accounts: 12,
            initial: 100,
            registers: 4,
            transfer_threads: 3,
            transfers_per_thread: 6,
            rmw_threads: 2,
            rmws_per_thread: 5,
            scans: 2,
            audits: 2,
            waves: 2,
        }
    }
}

/// One completed run: the history's verdict plus the derived audit totals
/// (every entry must equal the seeded bank total in a correct run).
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// Schedule or mutation label.
    pub schedule_label: String,
    /// The seed that drove it.
    pub seed: u64,
    /// Checker verdict over the recorded history.
    pub report: CheckReport,
    /// Derived conserved-sum totals: every full read-only pass over the
    /// bank table, joined through the history (satellite of the bank
    /// harness's side-channel audit).
    pub audit_totals: Vec<(TrxId, i64)>,
}

struct Cluster {
    db: PolarDbx,
    net: Arc<SimNet<TxnMsg>>,
    rec: Arc<HistoryRecorder>,
    /// The bank DNs' services, then the register DN's.
    dns: Vec<Arc<DnService>>,
    paxos: Option<PaxosGroup>,
}

/// DN *i* gets an HLC whose physical base is `1000·(i+1)` ms: commit
/// timestamps are far above CN snapshots unless HLC propagation carries
/// them back — which is exactly what the mutations sabotage. A DN restarted
/// with amnesia starts its clock over, with no memory of what it issued.
pub(crate) fn dn_clock(i: usize) -> Arc<dyn Clock> {
    Hlc::with_physical(TestClock::at(1000 * (i as u64 + 1)))
}

/// The mutation scenarios settle by hand ([`DnService::resolve_once`]):
/// their resolvers never find anything old enough to act on.
const BY_HAND: ResolverConfig = ResolverConfig {
    interval: Duration::from_millis(10),
    in_doubt_after: Duration::MAX,
    abandon_active_after: Duration::MAX,
};

fn build_cluster(
    with_ro: bool,
    ro_lag: Option<Duration>,
    register_dn_paxos: bool,
    resolver: ResolverConfig,
) -> Cluster {
    let db = PolarDbx::builder(ClusterConfig {
        dcs: 3,
        cns_per_dc: 1,
        dns: DN_COUNT as u32 + 1,
        ..Default::default()
    })
    .dn_clocks(dn_clock)
    .resolver_timing(resolver)
    .build()
    .expect("cluster");
    let ids = (db.dn(0).id, db.dn(DN_COUNT).id, db.cn(0).id, db.cn(1).id);
    assert_eq!(ids, (DN1, REGISTER_DN, CN_A, CN_B));
    let rec = HistoryRecorder::new();
    let mut dns = Vec::new();
    for i in 0..DN_COUNT {
        let dn = db.dn(i);
        dn.rw.create_table(BANK);
        dn.service.attach_recorder(Arc::clone(&rec));
        if with_ro {
            let ro = dn.rw.add_ro();
            ro.engine.set_recorder(Arc::clone(&rec), ro.id, true);
            if let Some(lag) = ro_lag {
                ro.set_apply_delay(lag);
            }
        }
        dns.push(Arc::clone(&dn.service));
    }
    // The register DN: plain in-memory, or commits riding a Paxos group
    // (leader re-election schedule). Consensus decisions show up in the
    // history as Note events via the replicas' event recorder.
    let register = db.dn(DN_COUNT);
    let paxos = register_dn_paxos.then(|| {
        let group = PaxosGroup::build(GroupConfig::three_dc(1));
        for r in &group.replicas {
            r.set_event_recorder(Arc::clone(&rec));
        }
        let leader = group.leader().expect("bootstrap leader");
        polardbx::durability::enable_paxos_epoch(
            &register.rw.engine,
            leader,
            Duration::from_secs(10),
            polardbx_wal::EpochConfig::default(),
        );
        group
    });
    register.rw.create_table(REGISTERS);
    register.service.attach_recorder(Arc::clone(&rec));
    dns.push(Arc::clone(&register.service));
    let net = Arc::clone(db.net());
    Cluster { db, net, rec, dns, paxos }
}

/// A coordinator on CN `cn` of `db` with quick retries, recording into `rec`.
pub(crate) fn recorded_coordinator(
    db: &PolarDbx,
    cn: usize,
    clock: Arc<dyn Clock>,
    rec: &Arc<HistoryRecorder>,
) -> Coordinator {
    let config = TxnConfig {
        max_attempts: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
    };
    db.coordinator(cn, clock).with_config(config).with_recorder(Arc::clone(rec))
}

/// A coordinator on CN A (CN 0) or CN B (CN 1), recording into the history.
fn coordinator(c: &Cluster, cn: NodeId, clock: Arc<dyn Clock>) -> Coordinator {
    recorded_coordinator(&c.db, usize::from(cn == CN_B), clock, &c.rec)
}

/// A DN behind a hook that sees each request first: `Some` answers it in
/// the DN's place.
struct Hooked<F>(Arc<DnService>, F);

impl<F: Fn(NodeId, &TxnMsg) -> Option<TxnMsg> + Send + Sync> Handler<TxnMsg> for Hooked<F> {
    fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
        (self.1)(from, &msg).unwrap_or_else(|| self.0.handle(from, msg))
    }

    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        self.0.handle_oneway(from, msg)
    }
}

/// Put bank DN `dn` (1-based, in DC `dn`) behind `hook`.
fn hook(c: &Cluster, dn: u64, hook: impl Fn(NodeId, &TxnMsg) -> Option<TxnMsg> + Send + Sync + 'static) {
    let inner = Arc::clone(&c.dns[dn as usize - 1]);
    c.net.register(inner.node, DcId(dn), Arc::new(Hooked(inner, hook)));
}

/// CN A dies while its `nth` Prepare to DN3 is in flight: DN3 never sees
/// it, and the other DN of that round, whose Prepare left first (a round
/// puts all its requests on the wire before any lands), votes.
fn crash_cn_a_mid_prepare(c: &Cluster, nth: u64) {
    let (net, rec, seen) = (Arc::clone(&c.net), Arc::clone(&c.rec), AtomicU64::new(0));
    hook(c, 3, move |from, msg| {
        let prepare = from == CN_A && matches!(msg, TxnMsg::Prepare { .. });
        (prepare && seen.fetch_add(1, Ordering::SeqCst) + 1 == nth).then(|| {
            rec.note(CN_A, "crash CN A mid-prepare");
            net.crash(CN_A);
            TxnMsg::Failed(Error::Timeout { what: "CN A crashed mid-prepare".into() })
        })
    });
}

/// Wait until no DN holds an active or in-doubt transaction.
pub(crate) fn await_drained(dns: &[Arc<DnService>], timeout: Duration) -> bool {
    let deadline = mono_now() + timeout;
    while mono_now() < deadline {
        if dns.iter().all(|d| !d.engine.has_active_txns() && d.in_doubt_count() == 0) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn register_key(id: i64) -> Key {
    Key::encode(&[Value::Int(id)])
}

/// Dynamic register routing for the re-home schedule: the current home DN
/// plus the routing-epoch fence both workers and mover agree through.
struct RegisterRoute {
    home: AtomicU64,
    epochs: Arc<EpochMap>,
}

impl RegisterRoute {
    fn new() -> Arc<RegisterRoute> {
        Arc::new(RegisterRoute {
            home: AtomicU64::new(REGISTER_DN.raw()),
            epochs: Arc::new(EpochMap::new()),
        })
    }

    fn home(&self) -> NodeId {
        NodeId(self.home.load(Ordering::SeqCst))
    }
}

/// Live cutover of the REGISTERS partition from the register DN to DN1:
/// [`polardbx_storage::RwNode::hand_off`], the cutover
/// `PolarDbx::rehome_shard_by_id` runs, inside this world's own epoch
/// freeze + drain, destination clock raise (the register DN's HLC base is
/// 3 s ahead of DN1's — without the raise, moved versions would sit in
/// DN1's timestamp future) and route flip.
///
/// `hand_off` attaches REGISTERS to DN1's RO too, which would re-apply DN1's
/// redo into the shared store (ROADMAP item 7): the verdicts rely on the
/// explorer shipping once, at quiescence, and not reading REGISTERS after.
fn rehome_registers(c: &Cluster, route: &RegisterRoute) {
    let src = c.dns.iter().find(|d| d.node == REGISTER_DN).expect("register DN");
    let dst = c.dns.iter().find(|d| d.node == DN1).expect("DN1");
    c.rec.note(NodeId(0), "rehome: freezing registers");
    route.epochs.freeze(REGISTERS);
    let moved = route.epochs.drain(REGISTERS, Duration::from_secs(2))
        && c.db.dn(DN_COUNT).rw.hand_off(&c.db.dn(0).rw, &[REGISTERS]).is_ok();
    if moved {
        dst.clock.update(src.clock.now());
        route.home.store(DN1.raw(), Ordering::SeqCst);
        c.rec.note(NodeId(0), "rehome: registers cut over to DN1");
    } else {
        c.rec.note(NodeId(0), "rehome: drain TIMEOUT, move skipped");
    }
    route.epochs.unfreeze(REGISTERS);
}

/// Seed registers `0..n` with value 0 through `coord`.
fn seed_registers(coord: &Coordinator, n: usize) {
    let mut txn = coord.begin();
    let mut ok = true;
    for r in 0..n {
        let id = 1000 + r as i64;
        let row = Row::new(vec![Value::Int(id), Value::Int(0)]);
        if txn.write(REGISTER_DN, REGISTERS, register_key(id), WireWriteOp::Insert(row)).is_err() {
            ok = false;
            break;
        }
    }
    if ok {
        let _ = txn.commit();
    } else {
        txn.abort();
    }
}

/// The register increment as an edit the register's DN applies.
fn bump_register() -> WireWriteOp {
    WireWriteOp::Edit(Arc::new(AddInt { column: 1, delta: 1 }))
}

/// One register read-modify-write down `path`: read, increment, write back
/// — the write sent on its own or staged into the commit message — or the
/// whole increment pushed to the register's DN as an edit. With a `route`,
/// the register's home is dynamic and the commit is pinned to the routing
/// epoch captured here — a concurrent cutover rejects it retryably instead
/// of letting it land on the old home.
fn rmw_once(coord: &Coordinator, r: usize, route: Option<&RegisterRoute>, path: WritePath) -> bool {
    let (home, pin) = match route {
        Some(rt) => {
            if rt.epochs.is_frozen(REGISTERS) {
                return false; // cutover in progress — back off and retry
            }
            // Epoch first, then home: a move bumps the epoch before it
            // republishes the home, so a torn pair fails fence validation.
            let epoch = rt.epochs.epoch_of(REGISTERS);
            (rt.home(), Some(epoch))
        }
        None => (REGISTER_DN, None),
    };
    let id = 1000 + r as i64;
    let key = register_key(id);
    let mut txn = coord.begin();
    if let Some(epoch) = pin {
        if txn.pin_epoch(REGISTERS, epoch).is_err() {
            txn.abort();
            return false;
        }
    }
    if path == WritePath::Pushed {
        txn.stage_write(home, REGISTERS, key, bump_register());
        return matches!(txn.commit_counting(), Ok((_, 1)));
    }
    let got = match txn.read(home, REGISTERS, &key) {
        Ok(Some(row)) => row.get(1).ok().and_then(|v| v.as_int().ok()),
        _ => None,
    };
    let Some(v) = got else {
        txn.abort();
        return false;
    };
    let op = WireWriteOp::Update(Row::new(vec![Value::Int(id), Value::Int(v + 1)]));
    if path == WritePath::Staged {
        txn.stage_write(home, REGISTERS, key, op);
    } else if txn.write(home, REGISTERS, key, op).is_err() {
        txn.abort();
        return false;
    }
    txn.commit().is_ok()
}

/// One full-bank range scan across all three RW DNs in a single snapshot
/// transaction (a "predicate-ish" read: the checker derives its conserved
/// sum from the per-row observations).
fn scan_once(coord: &Coordinator, dns: &[NodeId]) -> Option<i64> {
    let mut txn = coord.begin();
    let mut total = 0i64;
    for dn in dns {
        match txn.scan(*dn, BANK, None, None) {
            Ok(rows) => {
                for (_, row) in rows {
                    total += row.get(1).ok().and_then(|v| v.as_int().ok()).unwrap_or(0);
                }
            }
            Err(_) => {
                txn.abort();
                return None;
            }
        }
    }
    txn.abort(); // read-only
    Some(total)
}

/// Audit every RW DN's RO replica at the quiescent watermark snapshot: one
/// synthetic read-only transaction whose reads are recorded with
/// `replica = true`.
fn replica_audit(c: &Cluster, harness: &BankHarness, snapshot: u64) {
    // An id from the cluster's id space, begun on a coordinator that
    // records nothing: the reads below are the transaction's only events.
    let cn = c.db.cn(2);
    let txn = cn.coordinator.begin();
    let trx = txn.id();
    for i in 0..harness.accounts {
        let dn = harness.dn_of(i);
        if let Some(ro) = c.db.dn((dn.raw() - DN1.raw()) as usize).rw.ros().first() {
            let _ = ro.engine.read(BANK, &harness.key(i), snapshot, Some(trx));
        }
    }
    txn.abort();
}

/// Depose the Paxos leader mid-wave, elect a follower, then bring the old
/// leader back and re-elect it (the register DN's pinned durability heals).
fn reelection_storm(group: &PaxosGroup) {
    let Some(leader) = group.leader() else { return };
    let old = leader.me;
    group.net.crash(old);
    let follower = Arc::clone(&group.replicas[1]);
    let deadline = mono_now() + Duration::from_secs(2);
    while follower.status().role != Role::Leader && mono_now() < deadline {
        follower.campaign();
        std::thread::sleep(Duration::from_millis(5));
    }
    group.net.restart_resume(old);
    let deadline = mono_now() + Duration::from_secs(2);
    while leader.status().role != Role::Leader && mono_now() < deadline {
        leader.campaign();
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run one seeded schedule and return the checked history.
pub fn run(cfg: &ExplorerConfig) -> ScheduleRun {
    let lag = match cfg.schedule {
        Schedule::RoLag => Some(Duration::from_millis(10)),
        _ => None,
    };
    // Background resolvers keep PREPARED/abandoned work moving throughout.
    let resolver_cfg = ResolverConfig {
        interval: Duration::from_millis(10),
        in_doubt_after: Duration::from_millis(40),
        abandon_active_after: Duration::from_millis(150),
    };
    let c = build_cluster(true, lag, cfg.schedule == Schedule::LeaderReelection, resolver_cfg);

    // The re-home schedule routes registers dynamically through a fenced
    // routing table; every other schedule pins them to the register DN.
    let route = (cfg.schedule == Schedule::Rehome).then(RegisterRoute::new);
    let with_fence = |coord: Coordinator| match &route {
        Some(rt) => coord.with_fence(Arc::clone(&rt.epochs) as Arc<dyn RoutingFence>),
        None => coord,
    };

    // CN A carries the schedule's fault; CN B stays healthy so the
    // workload keeps making progress when A crashes.
    let rounds = Arc::new(AtomicU64::new(0));
    let coord_a = {
        let base = coordinator(&c, CN_A, Hlc::with_physical(TestClock::at(500)));
        let net = Arc::clone(&c.net);
        let rec = Arc::clone(&c.rec);
        let count = Arc::clone(&rounds);
        match cfg.schedule {
            Schedule::CoordCrashMidPrepare => {
                crash_cn_a_mid_prepare(&c, 4);
                base
            }
            Schedule::CoordCrashAfterVotes => base.with_failpoint(Arc::new(move |point| {
                if point == "txn.after_votes" && count.fetch_add(1, Ordering::SeqCst) + 1 == 4 {
                    rec.note(CN_A, "failpoint: crash CN after votes");
                    net.crash(CN_A);
                }
            })),
            Schedule::PreparedWindow => base.with_failpoint(Arc::new(move |point| {
                if point == "txn.after_votes" && count.fetch_add(1, Ordering::SeqCst) + 1 == 3 {
                    rec.note(CN_A, "failpoint: partition dc1/dc2 after votes");
                    net.partition(DcId(1), DcId(2));
                }
            })),
            _ => base,
        }
    };
    let coords = [
        Arc::new(with_fence(coord_a)),
        Arc::new(with_fence(coordinator(&c, CN_B, Hlc::with_physical(TestClock::at(700))))),
    ];

    let harness = Arc::new(BankHarness {
        table: BANK,
        dns: c.dns[..DN_COUNT].iter().map(|d| d.node).collect(),
        accounts: cfg.accounts,
        initial: cfg.initial,
    });
    // Seed through CN B (never failpointed). CN B absorbs each seed
    // commit's timestamp (step ⑥); CN A would not — statements carry the
    // snapshot *to* the DN (step ②/③) but replies do not ship the DN clock
    // back, so with frozen skewed clocks CN A would stay below the seeded
    // data forever and its whole workload would no-op. Real deployments
    // close this gap with the CN↔GMS heartbeat; model one exchange.
    harness.seed(&coords[1]).expect("seeding must succeed on a quiet cluster");
    seed_registers(&coords[1], cfg.registers);
    coords[0].clock().update(coords[1].clock().now());

    if matches!(cfg.schedule, Schedule::LossyDup | Schedule::Rehome) {
        c.net.set_fault_plan(
            FaultPlan::new(cfg.seed)
                .with_label(cfg.schedule.label())
                .with_cross_dc(LinkFaults::lossy(0.08).with_duplicate(0.05)),
        );
    }

    let bank_dns: Vec<NodeId> = c.dns[..DN_COUNT].iter().map(|d| d.node).collect();
    for wave in 0..cfg.waves {
        std::thread::scope(|s| {
            if wave == 0 {
                if let Some(group) = &c.paxos {
                    s.spawn(move || {
                        std::thread::sleep(Duration::from_millis(10));
                        reelection_storm(group);
                    });
                }
                if let Some(rt) = &route {
                    let c = &c;
                    s.spawn(move || {
                        std::thread::sleep(Duration::from_millis(8));
                        rehome_registers(c, rt);
                    });
                }
            }
            for t in 0..cfg.transfer_threads {
                let coord = Arc::clone(&coords[t % coords.len()]);
                let h = Arc::clone(&harness);
                let seed = cfg.seed ^ ((wave as u64) << 32) ^ (t as u64);
                let n = cfg.transfers_per_thread;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x51C4_0000 ^ seed);
                    for _ in 0..n {
                        let a = rng.gen_range(0..h.accounts);
                        let mut b = rng.gen_range(0..h.accounts);
                        if a == b {
                            b = (b + 1) % h.accounts;
                        }
                        // Each writer picks, by seed, how it reaches the
                        // DNs: a message per statement, one read round and
                        // a commit round that carries the writes, or a
                        // commit round that carries the edits.
                        let path = WritePath::pick(rng.gen());
                        for _ in 0..3 {
                            match h.transfer(&coord, a, b, 1, path) {
                                Ok(()) => break,
                                Err(e) if e.is_retryable() => continue,
                                Err(_) => break,
                            }
                        }
                    }
                });
            }
            for t in 0..cfg.rmw_threads {
                let coord = Arc::clone(&coords[(t + 1) % coords.len()]);
                let seed = cfg.seed ^ ((wave as u64) << 40) ^ (t as u64);
                let n = cfg.rmws_per_thread;
                let regs = cfg.registers.max(1);
                let route = route.as_deref();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x4A7_0000 ^ seed);
                    for _ in 0..n {
                        let r = rng.gen_range(0..regs);
                        let path = WritePath::pick(rng.gen());
                        for _ in 0..5 {
                            if rmw_once(&coord, r, route, path) {
                                break;
                            }
                        }
                    }
                });
            }
            for i in 0..cfg.scans {
                let coord = Arc::clone(&coords[i % coords.len()]);
                let dns = bank_dns.clone();
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(2 + i as u64));
                    let _ = scan_once(&coord, &dns);
                });
            }
            for i in 0..cfg.audits {
                let coord = Arc::clone(&coords[(i + 1) % coords.len()]);
                let h = Arc::clone(&harness);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(1 + i as u64));
                    let _ = h.audit(&coord);
                });
            }
        });
    }

    // Heal everything and drain: restart the (possibly crashed) CN, lift
    // partitions and fault plans, then let the resolvers settle the rest.
    c.net.clear_fault_plan();
    c.net.restart_resume(CN_A);
    c.net.heal(DcId(1), DcId(2));
    if let Some(group) = &c.paxos {
        // Make sure a leader exists so pending register commits can land.
        let deadline = mono_now() + Duration::from_secs(2);
        while group.leader().is_none() && mono_now() < deadline {
            group.replicas[0].campaign();
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let drained = await_drained(&c.dns, Duration::from_secs(10));
    c.rec.note(NodeId(0), if drained { "drain: quiesced" } else { "drain: TIMEOUT" });

    // Quiescent watermark: every commit applied on DN i is at or below DN
    // i's clock now, so the minimum is a consistent replica cut.
    let watermark =
        c.dns[..DN_COUNT].iter().map(|d| d.clock.now().raw()).min().unwrap_or(u64::MAX);
    // A ship returns once every replica has applied the shipped tail.
    for dn in &c.db.dns()[..DN_COUNT] {
        dn.rw.ship();
    }
    for _ in 0..2 {
        replica_audit(&c, &harness, watermark);
    }

    finish(c, cfg.schedule.label(), cfg.seed, cfg.accounts)
}

fn finish(c: Cluster, label: &str, seed: u64, accounts: usize) -> ScheduleRun {
    c.db.shutdown();
    let events = c.rec.take();
    let report = check(&events);
    let audit_totals = derived_audit_totals(&events, BANK, 1, accounts);
    c.net.shutdown();
    ScheduleRun { schedule_label: label.into(), seed, report, audit_totals }
}

/// Deterministic scenario for one mutation. `mutated = false` runs the
/// identical schedule with the protocol intact — the twin that must come
/// back clean. The seed picks how the scenario's writer reaches its DNs
/// ([`Mutation::path`]), so three consecutive seeds cover all three.
fn mutation_scenario(m: Mutation, seed: u64, mutated: bool) -> ScheduleRun {
    let path = m.path(seed);
    let c = build_cluster(false, None, false, BY_HAND);
    let accounts = 4usize;
    let harness = BankHarness {
        table: BANK,
        dns: c.dns[..DN_COUNT].iter().map(|d| d.node).collect(),
        accounts,
        initial: 100,
    };
    let drain_cfg = ResolverConfig {
        interval: Duration::from_millis(1),
        in_doubt_after: Duration::ZERO,
        abandon_active_after: if matches!(m, Mutation::DropPrepare | Mutation::ResolveOnPartialView) {
            Duration::ZERO
        } else {
            Duration::from_secs(1)
        },
    };
    let label = if mutated { m.label().to_string() } else { format!("{}-unmutated", m.label()) };

    match m {
        Mutation::SkipCommitClockUpdate => {
            // One session does everything: with step ⑥ gone, its own clock
            // never learns its own commit timestamps, so the next Begin's
            // snapshot falls below the previous commit.
            let coord = coordinator(&c, CN_A, Hlc::with_physical(TestClock::at(500)))
                .with_mutations(ProtocolMutations {
                    skip_commit_clock_update: mutated,
                    ..Default::default()
                });
            let _ = harness.seed(&coord);
            let _ = harness.transfer(&coord, 0, 1, 5, path);
            let _ = harness.audit(&coord);
        }
        Mutation::IgnorePreparedReads => {
            // A shared session clock: the plain coordinator seeds, then the
            // failpointed one commits a transfer whose phase-two post to
            // DN2 is severed by a partition. The audit then runs while DN2
            // is still PREPARED. Correct behaviour: the audit's DN2 read
            // waits until DN2's resolver learns the commit from DN1.
            // Mutated: the read skips the PREPARED version → fracture.
            let clock: Arc<Hlc> = Hlc::with_physical(TestClock::at(500));
            let seeder = coordinator(&c, CN_A, Arc::clone(&clock) as Arc<dyn Clock>);
            let _ = harness.seed(&seeder);
            if mutated {
                c.dns[1].engine.set_ignore_prepared_reads(true);
            }
            let net = Arc::clone(&c.net);
            let coord = coordinator(&c, CN_A, Arc::clone(&clock) as Arc<dyn Clock>)
                .with_failpoint(Arc::new(move |point| {
                    if point == "txn.after_votes" {
                        net.partition(DcId(1), DcId(2));
                    }
                }));
            // Accounts 0 → DN1 (DC1, reachable) and 1 → DN2 (DC2, severed).
            let committed = harness.transfer(&coord, 0, 1, 5, path).is_ok();
            c.net.heal(DcId(1), DcId(2));
            if committed {
                if mutated {
                    // The audit sees DN1's new version and skips DN2's
                    // PREPARED one; resolve afterwards to drain.
                    let _ = harness.audit(&seeder);
                    c.dns[1].resolve_once(&c.net, &drain_cfg);
                } else {
                    // The audit blocks on DN2's PREPARED version until the
                    // resolver learns the commit from DN1's vote.
                    std::thread::scope(|s| {
                        s.spawn(|| {
                            std::thread::sleep(Duration::from_millis(10));
                            c.dns[1].resolve_once(&c.net, &drain_cfg);
                        });
                        let _ = harness.audit(&seeder);
                    });
                }
            }
        }
        Mutation::DropPrepare => {
            // Seed cleanly, then commit a transfer whose coordinator has
            // silently forgotten DN2: the commit succeeds on DN1 alone and
            // DN2's intent dies as an abandoned transaction.
            let clock: Arc<Hlc> = Hlc::with_physical(TestClock::at(500));
            let seeder = coordinator(&c, CN_A, Arc::clone(&clock) as Arc<dyn Clock>);
            let _ = harness.seed(&seeder);
            let coord = coordinator(&c, CN_A, Arc::clone(&clock) as Arc<dyn Clock>)
                .with_mutations(ProtocolMutations {
                    drop_participant: mutated.then_some(c.dns[1].node),
                    ..Default::default()
                });
            let _ = harness.transfer(&coord, 0, 1, 5, path);
            // Expire whatever the dropped participant was left holding.
            c.dns[1].resolve_once(&c.net, &drain_cfg);
            let _ = harness.audit(&seeder);
        }
        Mutation::SkipRoutingEpochFence => {
            // An adaptive-placement cutover with the routing-epoch fence as
            // the only protection: the mover bumps the epoch and copies the
            // register to a new home while an RMW that routed *before* the
            // move still holds a pin on the old epoch. Intact protocol:
            // that commit is rejected and retried at the new home.
            // Mutated: it commits to the old home — both it and the copy
            // transaction read the same pre-move version and committed
            // writes over it, the textbook lost update.
            let clock: Arc<Hlc> = Hlc::with_physical(TestClock::at(500));
            let epochs = Arc::new(EpochMap::new());
            let seeder = coordinator(&c, CN_A, Arc::clone(&clock) as Arc<dyn Clock>);
            seed_registers(&seeder, 1);
            let new_home = DN1;
            c.db.dn(0).rw.create_table(REGISTERS);
            let coord = coordinator(&c, CN_A, Arc::clone(&clock) as Arc<dyn Clock>)
                .with_fence(Arc::clone(&epochs) as Arc<dyn RoutingFence>)
                .with_mutations(ProtocolMutations {
                    skip_routing_epoch_fence: mutated,
                    ..Default::default()
                });
            let key = register_key(1000);
            // The stale transaction: routed to the old home, pinned to the
            // pre-move epoch, held open across the cutover.
            let mut txn = coord.begin();
            let _ = txn.pin_epoch(REGISTERS, epochs.epoch_of(REGISTERS));
            if path == WritePath::Pushed {
                txn.stage_write(REGISTER_DN, REGISTERS, key.clone(), bump_register());
            } else {
                let v = match txn.read(REGISTER_DN, REGISTERS, &key) {
                    Ok(Some(row)) => row.get(1).ok().and_then(|x| x.as_int().ok()).unwrap_or(0),
                    _ => 0,
                };
                let bump = WireWriteOp::Update(Row::new(vec![Value::Int(1000), Value::Int(v + 1)]));
                if path == WritePath::Staged {
                    txn.stage_write(REGISTER_DN, REGISTERS, key.clone(), bump);
                } else {
                    let _ = txn.write(REGISTER_DN, REGISTERS, key.clone(), bump);
                }
            }
            // The cutover: freeze + epoch bump, copy the committed register
            // to DN1 (the mover's own transaction is unfenced — it *is* the
            // cutover), unfreeze. The old home's row is left behind; only
            // the fence keeps anyone from writing to it.
            epochs.freeze(REGISTERS);
            let mut mv = seeder.begin();
            match mv.read(REGISTER_DN, REGISTERS, &key) {
                Ok(Some(row)) => {
                    let _ = mv.write(new_home, REGISTERS, key.clone(), WireWriteOp::Insert(row));
                    let _ = mv.commit();
                }
                _ => mv.abort(),
            }
            epochs.unfreeze(REGISTERS);
            // Commit the stale transaction: the fence rejects it (its epoch
            // moved) unless mutated.
            if txn.commit().is_err() {
                // Intact path: retry where the register now lives, pinned
                // to the current epoch.
                let mut retry = coord.begin();
                let _ = retry.pin_epoch(REGISTERS, epochs.epoch_of(REGISTERS));
                match retry.read(new_home, REGISTERS, &key) {
                    Ok(Some(row)) => {
                        let nv = row.get(1).ok().and_then(|x| x.as_int().ok()).unwrap_or(0);
                        let _ = retry.write(
                            new_home,
                            REGISTERS,
                            key.clone(),
                            WireWriteOp::Update(Row::new(vec![
                                Value::Int(1000),
                                Value::Int(nv + 1),
                            ])),
                        );
                        let _ = retry.commit();
                    }
                    _ => retry.abort(),
                }
            }
            // Post-move traffic only ever sees the new home.
            let mut reader = seeder.begin();
            let _ = reader.read(new_home, REGISTERS, &key);
            reader.abort();
        }
        Mutation::SkipEditConflictCheck => {
            // Two pushed increments of one register: the first to begin is
            // the last to commit, so its edit reads the register at a
            // snapshot the other has since committed over. Intact protocol:
            // its write fails first-committer-wins and the session runs it
            // again. Mutated: the register DN checks an edit's write against
            // the end of time, so it overwrites the other's version — both
            // read the seeded value, both committed a write over it.
            let coord = coordinator(&c, CN_A, Hlc::with_physical(TestClock::at(500)));
            seed_registers(&coord, 1);
            let register_dn = c.dns.iter().find(|d| d.node == REGISTER_DN).expect("register DN");
            register_dn.set_mutations(ParticipantMutations {
                skip_edit_conflict_check: mutated,
                ..Default::default()
            });
            let key = register_key(1000);
            let mut slow = coord.begin();
            slow.stage_write(REGISTER_DN, REGISTERS, key.clone(), bump_register());
            let mut fast = coord.begin();
            fast.stage_write(REGISTER_DN, REGISTERS, key.clone(), bump_register());
            let _ = fast.commit();
            if slow.commit().is_err() {
                let mut again = coord.begin();
                again.stage_write(REGISTER_DN, REGISTERS, key, bump_register());
                let _ = again.commit();
            }
        }
        Mutation::ResolveOnPartialView => {
            // CN A dies with its Prepare to DN3 in flight: DN1 votes yes,
            // DN3 holds the transfer ACTIVE and never votes. DN1 resolves
            // cut off from DN3. Intact: it waits, and after the heal DN3
            // refuses and both abort. Mutated: DN1 counts DN3 as PREPARED
            // and commits; DN3's write expires beside the commit.
            let coord = coordinator(&c, CN_A, Hlc::with_physical(TestClock::at(500)));
            let _ = harness.seed(&coord);
            c.dns[0].set_mutations(ParticipantMutations {
                resolve_on_partial_view: mutated,
                ..Default::default()
            });
            crash_cn_a_mid_prepare(&c, 1);
            let _ = harness.transfer(&coord, 0, 2, 5, path);
            c.net.partition(DcId(1), DcId(3));
            c.dns[0].resolve_once(&c.net, &drain_cfg);
            c.net.heal(DcId(1), DcId(3));
            c.net.restart_resume(CN_A);
        }
        Mutation::ForgetRefusal => {
            // DN2's Prepare is held up past DN1's in-doubt timeout: DN1
            // asks, DN2 (holding the transfer ACTIVE) refuses, DN1 aborts.
            // Then a copy of DN2's `Write` the network delayed lands, and
            // the Prepare. Intact: both are refused. Mutated: the Write
            // re-opens the transaction, DN2 votes yes, and the coordinator
            // commits what DN1 and DN2 aborted.
            let coord = coordinator(&c, CN_A, Hlc::with_physical(TestClock::at(500)));
            let _ = harness.seed(&coord);
            c.dns[1].set_mutations(ParticipantMutations {
                forget_refusals: mutated,
                ..Default::default()
            });
            let (dn1, dn2, net) = (Arc::clone(&c.dns[0]), Arc::clone(&c.dns[1]), Arc::clone(&c.net));
            let writes = Mutex::new(Vec::new());
            hook(&c, 2, move |from, msg| {
                // Not held across `resolve_once`: DN1's question comes back
                // through this hook.
                let log = || writes.lock().expect("no hook panics holding the write log");
                match msg {
                    TxnMsg::Write { .. } => log().push(msg.clone()),
                    TxnMsg::Prepare { .. } => {
                        dn1.resolve_once(&net, &drain_cfg);
                        let late = std::mem::take(&mut *log());
                        late.into_iter().for_each(|w| drop(dn2.handle(from, w)));
                    }
                    _ => {}
                }
                None
            });
            let _ = harness.transfer(&coord, 0, 1, 5, path);
        }
    }

    // Settle any leftovers so the history ends at a quiescent point.
    let deadline = mono_now() + Duration::from_secs(3);
    while mono_now() < deadline
        && c.dns.iter().any(|d| d.engine.has_active_txns() || d.in_doubt_count() > 0)
    {
        for d in &c.dns {
            d.resolve_once(&c.net, &drain_cfg);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    finish(c, &label, seed, accounts)
}

/// Run the deterministic mutated scenario: the checker must flag it.
pub fn run_mutated(m: Mutation, seed: u64) -> ScheduleRun {
    mutation_scenario(m, seed, true)
}

/// Run the identical scenario without the mutation: must check clean.
pub fn run_unmutated_twin(m: Mutation, seed: u64) -> ScheduleRun {
    mutation_scenario(m, seed, false)
}
