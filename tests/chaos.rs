//! Chaos suite: 2PC and the commit path under seeded fault plans.
//!
//! Every scenario here injects faults through the simnet fabric's
//! [`FaultPlan`] — seeded message loss, duplication and node crashes —
//! and asserts the end-to-end safety properties the paper's protocols
//! promise: transactional atomicity (all-or-nothing on every DN), no
//! transaction left PREPARED forever, and bit-for-bit determinism when
//! the same seed is replayed. Paxos convergence after a leader crash under
//! lossy links is `consensus`'s own unit test
//! (`group::tests::consensus_converges_after_leader_crash_under_loss`).
//!
//! Fault seeds honor `POLARDBX_TEST_SEED` (hex or decimal); each scenario
//! announces its seed on stderr, which the test harness surfaces exactly
//! when the test fails — copy it into the env var to replay.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, Error, Key, Lsn, NodeId, Row, TableId, TrxId, Value};
use polardbx_hlc::Hlc;
use polardbx_simnet::{FaultPlan, Handler, LinkFaults, OneShot, OneShotFault, SimNet};
use polardbx_storage::TxnState;
use polardbx_txn::{Coordinator, DnService, ResolverConfig, TxnConfig, TxnMsg, Vote, WireWriteOp};
use polardbx_wal::{EpochConfig, LocalEpochSink, LogBuffer, LogSink, VecSink};

fn key(n: i64) -> Key {
    Key::encode(&[Value::Int(n)])
}

fn row(n: i64) -> Row {
    Row::new(vec![Value::Int(n), Value::str("v")])
}

/// The cluster's first DN (DC1), the two cross-DC participants (DC2 and
/// DC3) and the CN of DC1, by the ids the cluster gives them.
const DN1: NodeId = NodeId(1000);
const DN2: NodeId = NodeId(1001);
const DN3: NodeId = NodeId(1002);
const CN: NodeId = NodeId(1);

/// The suite's resolver timing.
const RESOLVE: ResolverConfig = ResolverConfig {
    interval: Duration::from_millis(10),
    in_doubt_after: Duration::from_millis(50),
    abandon_active_after: Duration::from_millis(150),
};

/// For scenarios that settle by hand, or not at all: the resolvers never
/// find anything old enough to act on.
const BY_HAND: ResolverConfig =
    ResolverConfig { in_doubt_after: Duration::MAX, abandon_active_after: Duration::MAX, ..RESOLVE };

/// The fabric, a coordinator and the DN services of a cluster.
type Chaos = (Arc<SimNet<TxnMsg>>, Coordinator, Vec<Arc<DnService>>, PolarDbx);

/// `dns` DNs, DN `i` in DC `i + 1`, each holding table 1 and running its
/// resolver at `resolver`; and a coordinator on the CN in DC1.
fn cluster(dns: u32, resolver: ResolverConfig) -> Chaos {
    let db = PolarDbx::builder(ClusterConfig { dcs: dns, cns_per_dc: 1, dns, ..Default::default() })
        .resolver_timing(resolver)
        .build()
        .unwrap();
    let services = (0..dns as usize)
        .map(|i| {
            let dn = db.dn(i);
            dn.rw.create_table(TableId(1));
            Arc::clone(&dn.service)
        })
        .collect();
    let coord = db.coordinator(0, Hlc::new()).with_config(TxnConfig {
        max_attempts: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
    });
    (Arc::clone(db.net()), coord, services, db)
}

/// Insert `row(v)` under `key(k)` on both cross-DC participants: a `Write`
/// message each, or — `staged` — nothing until the commit round carries
/// them. False when a write was refused or lost (the caller aborts).
fn write_pair(txn: &mut polardbx_txn::DistTxn<'_>, k: i64, v: i64, staged: bool) -> bool {
    if staged {
        txn.stage_write(DN2, TableId(1), key(k), WireWriteOp::Insert(row(v)));
        txn.stage_write(DN3, TableId(1), key(k), WireWriteOp::Insert(row(v)));
        return true;
    }
    txn.write(DN2, TableId(1), key(k), WireWriteOp::Insert(row(v)))
        .and_then(|_| txn.write(DN3, TableId(1), key(k), WireWriteOp::Insert(row(v))))
        .is_ok()
}

/// Whether every DN is left with nothing active and nothing in doubt
/// within `timeout` (looked at once at least).
fn await_drained(dns: &[Arc<DnService>], timeout: Duration) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if dns.iter().all(|d| !d.engine.has_active_txns() && d.in_doubt_count() == 0) {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance scenario: cross-DC links drop >= 5% of messages and
/// duplicate another 5%, resolvers run throughout, and every transaction
/// must still land all-or-nothing with nothing stuck once the fabric heals.
#[test]
fn two_pc_atomic_under_lossy_duplicating_links() {
    let seed = seed_from_env(0xC4A0_5EED);
    eprintln!("two_pc_atomic_under_lossy_duplicating_links: POLARDBX_TEST_SEED={}", format_seed(seed));
    let (net, coord, dns, _db) = cluster(3, RESOLVE);
    net.set_fault_plan(
        FaultPlan::new(seed).with_cross_dc(LinkFaults::lossy(0.08).with_duplicate(0.05)),
    );

    const TXNS: i64 = 25;
    let mut outcomes = Vec::new();
    for i in 0..TXNS {
        let mut txn = coord.begin();
        // Statement shipping also rides the lossy links: a failed write
        // aborts the transaction, which must still be all-or-nothing. Every
        // other transaction stages its writes into the commit round.
        let wrote = write_pair(&mut txn, 100 + i, i, i % 2 == 1);
        if wrote {
            outcomes.push(txn.commit().ok());
        } else {
            txn.abort();
            outcomes.push(None);
        }
    }

    // Heal and let the resolvers settle whatever the chaos left behind.
    net.clear_fault_plan();
    assert!(await_drained(&dns, Duration::from_secs(5)), "nothing may stay active or in doubt");

    // Atomicity: each transaction is either on BOTH cross-DC participants
    // or on neither; a successful commit must be visible everywhere.
    for i in 0..TXNS {
        let on2 = dns[1].engine.read(TableId(1), &key(100 + i), u64::MAX, None).unwrap();
        let on3 = dns[2].engine.read(TableId(1), &key(100 + i), u64::MAX, None).unwrap();
        assert_eq!(on2.is_some(), on3.is_some(), "txn {i} torn across DNs");
        if outcomes[i as usize].is_some() {
            assert!(on2.is_some(), "txn {i} committed but invisible");
        }
    }
    assert!(
        net.fault_stats.dropped_requests.get()
            + net.fault_stats.dropped_replies.get()
            + net.fault_stats.duplicated_calls.get()
            > 0,
        "the plan must actually have injected faults: {}",
        net.fault_stats.report()
    );
    assert!(
        coord.metrics().rpc_retries.get() > 0,
        "lossy links must have forced coordinator retries"
    );
}

/// Coordinator crashes while its vote round is on the wire: DN2 got its
/// Prepare and voted yes, DN3's Prepare was the message the crash lost. The
/// outcome is in doubt and nobody may commit: DN2's resolver asks DN3,
/// which never voted and refuses, and the transaction aborts everywhere.
#[test]
fn coordinator_crash_mid_prepare_aborts_through_a_refusal() {
    // Votes requested by stand-alone Prepares, then by Prepares that also
    // delivered the writes.
    crash_mid_prepare_aborts_through_a_refusal(false);
    crash_mid_prepare_aborts_through_a_refusal(true);
}

fn crash_mid_prepare_aborts_through_a_refusal(staged: bool) {
    let (net, coord, dns, _db) = cluster(3, RESOLVE);
    // The CN's sends: two Writes unless staged, then Prepare to DN2 and to
    // DN3 — the CN dies on that last one.
    let crash_at = if staged { 2 } else { 4 };
    net.set_fault_plan(FaultPlan {
        one_shots: vec![OneShot { from: CN, after_sends: crash_at, fault: OneShotFault::Crash(CN) }],
        ..FaultPlan::new(1)
    });

    let mut txn = coord.begin();
    let trx = txn.id();
    assert!(write_pair(&mut txn, 1, 1, staged));
    txn.commit().expect_err("a coordinator dead mid-round cannot report success");

    assert!(await_drained(&dns, Duration::from_secs(5)), "in-doubt txn must resolve");
    assert_eq!(dns[1].engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), None);
    assert_eq!(dns[2].engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), None);
    assert!(!dns[1].engine.has_active_writes_on(TableId(1)), "no intent may outlive the abort");
    assert!(!dns[2].engine.has_active_writes_on(TableId(1)), "no intent may outlive the abort");
    assert_eq!(dns[1].metrics.in_doubt_aborts.get(), 1, "DN2 voted yes, then learned the refusal");
    assert_eq!(dns[2].engine.txn_state(trx), Some(TxnState::Aborted), "DN3 refused");
}

/// Coordinator crashes after every vote came back yes, before any
/// phase-two message leaves: every participant is stranded PREPARED and the
/// votes alone commit it, at the coordinator's own timestamp.
#[test]
fn coordinator_crash_after_the_votes_commits_through_the_peers() {
    let (net, coord, dns, _db) = cluster(3, RESOLVE);
    let net_fp = Arc::clone(&net);
    let coord = coord.with_failpoint(Arc::new(move |point| {
        if point == "txn.after_votes" {
            net_fp.crash(CN);
        }
    }));

    let mut txn = coord.begin();
    let trx = txn.id();
    txn.write(DN2, TableId(1), key(1), WireWriteOp::Insert(row(1))).unwrap();
    txn.write(DN3, TableId(1), key(2), WireWriteOp::Insert(row(2))).unwrap();
    let commit_ts = txn.commit().expect("every vote was yes; the commit stands");

    assert!(await_drained(&dns, Duration::from_secs(5)), "prepared txns must resolve");
    for (dn, k) in [(&dns[1], 1), (&dns[2], 2)] {
        assert_eq!(dn.engine.txn_state(trx), Some(TxnState::Committed { commit_ts }));
        assert_eq!(
            dn.engine.read(TableId(1), &key(k), commit_ts, None).unwrap(),
            Some(row(k)),
            "the peers must have committed at the max prepare_ts"
        );
    }
    assert!(dns[1].metrics.in_doubt_commits.get() + dns[2].metrics.in_doubt_commits.get() >= 2);
    assert!(net.fault_stats.blackholed.get() > 0, "the crashed CN must have been black-holed");
}

/// DN2 behind a hook that runs before its first `Prepare` is served, and a
/// log of every vote it returns.
struct FirstPrepareHook {
    inner: Arc<DnService>,
    hook: Box<dyn Fn() + Send + Sync>,
    prepares_seen: std::sync::atomic::AtomicU64,
    votes: std::sync::Mutex<Vec<u64>>,
}

impl Handler<TxnMsg> for FirstPrepareHook {
    fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
        if matches!(msg, TxnMsg::Prepare { .. })
            && self.prepares_seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0
        {
            (self.hook)();
        }
        let reply = self.inner.handle(from, msg);
        if let TxnMsg::Prepared { prepare_ts, .. } = reply {
            self.votes.lock().unwrap().push(prepare_ts);
        }
        reply
    }
    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        self.inner.handle_oneway(from, msg)
    }
}

/// The reply to a commit-round message that carried writes is lost: the
/// coordinator cannot tell whether they were applied, so it sends the whole
/// message again. The participant had applied them and voted; the second
/// copy must re-apply nothing (the write is an Insert — a second
/// application would be a DuplicateKey) and repeat the same vote.
#[test]
fn lost_reply_of_a_write_carrying_prepare_is_retried_without_reapplying() {
    let (net, coord, dns, _db) = cluster(3, BY_HAND);
    // Every reply DN2 → CN is dropped until the hook lifts the plan. A call
    // rolls its reply against the plan in force when its request left, so
    // lifting it while the first Prepare is being served loses exactly that
    // one reply.
    net.set_fault_plan(FaultPlan {
        per_link: vec![((DcId(2), DcId(1)), LinkFaults::lossy(1.0))],
        ..FaultPlan::new(1)
    });
    let hook_net = Arc::clone(&net);
    let dn2 = Arc::new(FirstPrepareHook {
        inner: Arc::clone(&dns[1]),
        hook: Box::new(move || hook_net.clear_fault_plan()),
        prepares_seen: Default::default(),
        votes: Default::default(),
    });
    net.register(DN2, DcId(2), Arc::clone(&dn2) as Arc<dyn Handler<TxnMsg>>);

    let mut txn = coord.begin();
    assert!(write_pair(&mut txn, 7, 7, true));
    let commit_ts = txn.commit().expect("the retry must carry the commit through");

    assert_eq!(net.fault_stats.dropped_replies.get(), 1);
    assert_eq!(coord.metrics().rpc_retries.get(), 1);
    assert_eq!(dns[1].metrics.duplicate_msgs.get(), 1, "the second copy was absorbed");
    let votes = dn2.votes.lock().unwrap().clone();
    assert_eq!(votes.len(), 2, "both copies were answered");
    assert_eq!(votes[0], votes[1], "one prepare_ts");
    assert!(commit_ts >= votes[0]);
    assert!(await_drained(&dns, Duration::from_secs(5)));
    assert_eq!(dns[1].engine.read(TableId(1), &key(7), u64::MAX, None).unwrap(), Some(row(7)));
    assert_eq!(dns[2].engine.read(TableId(1), &key(7), u64::MAX, None).unwrap(), Some(row(7)));
}

/// Every cross-DC message is delivered twice. A staged Insert therefore
/// reaches its DN twice inside the commit round — 2PC and one-phase — and
/// must not fail the transaction with a DuplicateKey against itself.
#[test]
fn duplicated_commit_round_applies_a_staged_insert_once() {
    let (net, coord, dns, _db) = cluster(3, BY_HAND);
    net.set_fault_plan(FaultPlan::new(1).with_cross_dc(LinkFaults::none().with_duplicate(1.0)));
    let mut txn = coord.begin();
    assert!(write_pair(&mut txn, 1, 1, true));
    txn.commit().expect("2PC: a duplicated Prepare must not re-apply its Insert");
    let mut txn = coord.begin();
    txn.stage_write(DN3, TableId(1), key(2), WireWriteOp::Insert(row(2)));
    txn.commit().expect("one-phase: a duplicated CommitLocal must not re-apply its Insert");
    net.clear_fault_plan();

    assert!(net.fault_stats.duplicated_calls.get() >= 3);
    assert!(dns[1].metrics.duplicate_msgs.get() >= 1);
    assert!(dns[2].metrics.duplicate_msgs.get() >= 2);
    assert!(await_drained(&dns, Duration::from_secs(5)));
    assert_eq!(dns[1].engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), Some(row(1)));
    assert_eq!(dns[2].engine.read(TableId(1), &key(1), u64::MAX, None).unwrap(), Some(row(1)));
    assert_eq!(dns[2].engine.read(TableId(1), &key(2), u64::MAX, None).unwrap(), Some(row(2)));
}

/// A log sink that, once armed, holds its next write until the test gives
/// the verdict: `true` persists it, `false` fails it (a lost flush). No
/// verdict within 5 s fails it too, so a failed assertion cannot hang.
struct StalledSink {
    inner: Arc<VecSink>,
    verdict: Mutex<Option<mpsc::Receiver<bool>>>,
}

impl LogSink for StalledSink {
    fn write(&self, at: Lsn, bytes: Bytes) -> polardbx_common::Result<()> {
        let armed = self.verdict.lock().unwrap().take();
        if armed.is_some_and(|rx| !rx.recv_timeout(Duration::from_secs(5)).unwrap_or(false)) {
            return Err(Error::storage("flush failed"));
        }
        self.inner.write(at, bytes)
    }
}

/// A participant is PREPARED in memory before its prepare record is
/// durable. A peer asking in that window must not hear a yes: a failed
/// persist turns the vote into a refusal, and the peer that counted the yes
/// would commit what this DN aborts.
#[test]
fn a_prepare_still_persisting_casts_no_vote() {
    let (net, _coord, dns, db) = cluster(2, BY_HAND);
    let sink = Arc::new(StalledSink {
        inner: Arc::clone(db.dn(0).rw.log_sink()),
        verdict: Mutex::new(None),
    });
    let log = LogBuffer::new(Arc::clone(&sink) as Arc<dyn LogSink>);
    dns[0].engine.pipeline().replace_sink(LocalEpochSink::new(log), EpochConfig::default());
    let now = ResolverConfig { in_doubt_after: Duration::ZERO, ..Default::default() };
    let prepare = |dn: &DnService, trx: TrxId, k: i64| {
        let op = WireWriteOp::Insert(row(k));
        let write = TxnMsg::Write { trx, snapshot_ts: 1, table: TableId(1), key: key(k), op };
        assert!(matches!(dn.handle(CN, write), TxnMsg::Ok));
        let peers = vec![DN1, DN2];
        dn.handle(CN, TxnMsg::Prepare { trx, staged: Default::default(), peers })
    };
    // DN2 voted yes, durably; DN1's prepare record waits on the sink.
    for (trx, persists) in [(TrxId(5), false), (TrxId(6), true)] {
        assert!(matches!(prepare(&dns[1], trx, 2), TxnMsg::Prepared { .. }));
        let (tx, rx) = mpsc::channel();
        *sink.verdict.lock().unwrap() = Some(rx);
        std::thread::scope(|s| {
            let voting = s.spawn(|| prepare(&dns[0], trx, 1));
            while !matches!(dns[0].engine.txn_state(trx), Some(TxnState::Prepared { .. })) {
                std::thread::yield_now();
            }
            let asked = dns[0].handle(DN2, TxnMsg::Vote { trx });
            assert!(matches!(asked, TxnMsg::Failed(_)), "a vote not yet durable: {asked:?}");
            dns[1].resolve_once(&net, &now);
            assert_eq!(dns[1].in_doubt_count(), 1, "DN2 must stay in doubt");
            tx.send(persists).unwrap();
            let vote = voting.join().unwrap();
            assert_eq!(matches!(vote, TxnMsg::Prepared { .. }), persists, "{vote:?}");
        });
        let asked = dns[0].handle(DN2, TxnMsg::Vote { trx });
        assert_eq!(matches!(asked, TxnMsg::Voted(Vote::Prepared(_))), persists, "{asked:?}");
        // DN2 now hears the durable answer: a refusal aborts, two yeses commit.
        dns[1].resolve_once(&net, &now);
        assert_eq!(dns[1].in_doubt_count(), 0);
        let on2 = dns[1].engine.read(TableId(1), &key(2), u64::MAX, None).unwrap();
        assert_eq!(on2.is_some(), persists, "DN2 must follow DN1's durable vote");
        // And DN1 settles the same way, through DN2.
        dns[0].resolve_once(&net, &now);
        let states = dns.iter().map(|dn| dn.engine.txn_state(trx)).collect::<Vec<_>>();
        assert_eq!(states[0], states[1]);
        assert_eq!(matches!(states[0], Some(TxnState::Committed { .. })), persists, "{states:?}");
    }
}

/// One full chaos run: seeded faults during a serialized workload, then
/// heal, then resolver-driven settlement. Returns everything observable
/// that must be identical across same-seed runs.
fn seeded_run(seed: u64) -> (Vec<bool>, Vec<(bool, bool)>, [u64; 5]) {
    let (net, coord, dns, _db) = cluster(3, BY_HAND);
    net.set_fault_plan(
        FaultPlan::new(seed).with_cross_dc(LinkFaults::lossy(0.10).with_duplicate(0.08)),
    );
    let mut outcomes = Vec::new();
    for i in 0..15i64 {
        let mut txn = coord.begin();
        let wrote = write_pair(&mut txn, i, i, i % 2 == 1);
        if wrote {
            outcomes.push(txn.commit().is_ok());
        } else {
            txn.abort();
            outcomes.push(false);
        }
    }
    let stats = [
        net.fault_stats.dropped_requests.get(),
        net.fault_stats.dropped_replies.get(),
        net.fault_stats.dropped_posts.get(),
        net.fault_stats.duplicated_calls.get(),
        net.fault_stats.duplicated_posts.get(),
    ];
    // Heal, then settle the leftovers by their votes over reliable links:
    // ask every peer now, and refuse what never voted.
    net.clear_fault_plan();
    let settle = ResolverConfig {
        in_doubt_after: Duration::ZERO,
        abandon_active_after: Duration::ZERO,
        ..RESOLVE
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !await_drained(&dns, Duration::ZERO) && std::time::Instant::now() < deadline {
        dns.iter().for_each(|dn| dn.resolve_once(&net, &settle));
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(await_drained(&dns, Duration::ZERO));
    let state = (0..15i64)
        .map(|i| {
            (
                dns[1].engine.read(TableId(1), &key(i), u64::MAX, None).unwrap().is_some(),
                dns[2].engine.read(TableId(1), &key(i), u64::MAX, None).unwrap().is_some(),
            )
        })
        .collect();
    (outcomes, state, stats)
}

/// Same seed, same chaos: commit outcomes, injected-fault counters and the
/// final visible state must replay bit-for-bit; a different seed must take
/// a different fault path.
#[test]
fn same_seed_replays_identical_chaos() {
    let seed = seed_from_env(0xD15EA5E);
    eprintln!("same_seed_replays_identical_chaos: POLARDBX_TEST_SEED={}", format_seed(seed));
    let a = seeded_run(seed);
    let b = seeded_run(seed);
    assert_eq!(a.0, b.0, "commit outcomes must be deterministic");
    assert_eq!(a.1, b.1, "final state must be deterministic");
    assert_eq!(a.2, b.2, "fault counters must be deterministic");
    assert!(a.2.iter().sum::<u64>() > 0, "the seed must actually inject faults");
    for (on2, on3) in &a.1 {
        assert_eq!(on2, on3, "atomicity must hold in every run");
    }
    let c = seeded_run(seed ^ 0x0DD_5EED);
    assert_ne!(a.2, c.2, "a different seed should walk a different fault path");
}

/// Group commit under chaos: concurrent committers drive 2PC transactions
/// whose DN-side durability shares persists through the commit pipeline's
/// leader hand-off, over seeded lossy, duplicating cross-DC links; mid-run
/// the coordinator node crashes, stranding in-flight transactions PREPARED
/// on the DNs. After the fabric heals, the resolvers must settle every one
/// of them all-or-nothing by the participants' votes, and the pipeline's flush
/// accounting must balance (every submission released by exactly one
/// persist, no persist lost).
///
/// The fault plan is seeded, so the injected fault path replays bit-for-bit;
/// every assertion is an interleaving-independent safety property, so the
/// test passes deterministically under any thread schedule.
#[test]
fn group_commit_chaos_settles_in_flight_txns() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let seed = seed_from_env(0x6C0_FFEE);
    eprintln!("group_commit_chaos_settles_in_flight_txns: POLARDBX_TEST_SEED={}", format_seed(seed));
    let (net, coord, dns, _db) = cluster(3, RESOLVE);
    net.set_fault_plan(
        FaultPlan::new(seed).with_cross_dc(LinkFaults::lossy(0.08).with_duplicate(0.05)),
    );

    // Crash the CN after a fixed number of rounds of yes votes: whatever is
    // mid-2PC at that point is stranded PREPARED, its fate in the votes.
    let commits_seen = Arc::new(AtomicU64::new(0));
    let net_fp = Arc::clone(&net);
    let commits_fp = Arc::clone(&commits_seen);
    let coord = Arc::new(coord.with_failpoint(Arc::new(move |point| {
        if point == "txn.after_votes" && commits_fp.fetch_add(1, Ordering::SeqCst) + 1 == 12 {
            net_fp.crash(CN);
        }
    })));

    const WORKERS: i64 = 4;
    const PER: i64 = 8;
    let outcomes: Vec<(i64, Option<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let coord = Arc::clone(&coord);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..PER {
                        let n = w * 100 + i;
                        let mut txn = coord.begin();
                        let wrote = txn
                            .write(DN2, TableId(1), key(n), WireWriteOp::Insert(row(n)))
                            .and_then(|_| {
                                txn.write(DN3, TableId(1), key(n), WireWriteOp::Insert(row(n)))
                            })
                            .is_ok();
                        if wrote {
                            out.push((n, txn.commit().ok()));
                        } else {
                            txn.abort();
                            out.push((n, None));
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // Heal and let the resolvers settle everything the crash left behind.
    // Generous deadline: with the whole workspace test suite running in
    // parallel, resolver ticks can be descheduled for a long time.
    net.clear_fault_plan();
    assert!(
        await_drained(&dns, Duration::from_secs(20)),
        "every in-flight transaction must resolve by its votes"
    );

    // Atomicity on the cross-DC participants; reported commits visible.
    for (n, outcome) in &outcomes {
        let on2 = dns[1].engine.read(TableId(1), &key(*n), u64::MAX, None).unwrap();
        let on3 = dns[2].engine.read(TableId(1), &key(*n), u64::MAX, None).unwrap();
        assert_eq!(on2.is_some(), on3.is_some(), "txn {n} torn across DNs");
        if outcome.is_some() {
            assert!(on2.is_some(), "txn {n} committed but invisible");
        }
    }

    // The chaos actually happened: the CN was crashed and black-holed.
    assert!(commits_seen.load(Ordering::SeqCst) >= 12, "the crash trigger must have fired");
    let report = net.fault_stats.report();
    assert!(net.fault_stats.blackholed.get() > 0, "the crashed CN was not black-holed: {report}");

    // Commit-path accounting on every DN: prepares, commits and the
    // resolver's settlement storm all rode the one pipeline, every
    // submission was released by exactly one persist, and no persist ran
    // without work.
    for (i, dn) in dns.iter().enumerate() {
        let m = &dn.engine.pipeline().metrics;
        // DN1 (index 0) takes no part; DN2/DN3 are the write participants
        // and must have paid durable work.
        assert!(i == 0 || m.commits.get() > 0, "participant DN saw no durable work");
        assert!(m.flushes.get() <= m.commits.get());
        assert_eq!(m.failures.get(), 0);
        assert_eq!(
            m.released.get(),
            m.commits.get(),
            "every submission must be released by exactly one persist"
        );
    }
}
