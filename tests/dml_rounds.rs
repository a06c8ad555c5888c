//! Tier-1 tests for the message rounds of an autocommit DML statement.
//!
//! A statement blocks its caller once per *round* (`NetStats::rounds`): one
//! round that carries its whole read set, one that carries its writes
//! together with the vote request — whatever the number of rows, shards or
//! DNs. An UPDATE / DELETE whose predicate names its keys and that changes
//! no global-index entry has no read round: the commit round carries the
//! edit and each DN reads, edits and writes its rows in that one visit. The
//! counts below are exact, on a 3-DC / 3-DN cluster whose DNs sit behind a
//! handler that tallies what they are sent.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use polardbx::{ClusterConfig, PolarDbx, Session};
use polardbx_common::{DcId, Error, NodeId, TrxId, Value};
use polardbx_simnet::Handler;
use polardbx_txn::{DnService, TxnMsg};

/// What one DN was sent.
#[derive(Default)]
struct Tally {
    reads: AtomicU64,
    scans: AtomicU64,
    /// Stand-alone `Write` messages.
    writes: AtomicU64,
    /// `Prepare` / `CommitLocal` that carried no write: a vote on its own.
    bare_votes: AtomicU64,
    /// `Prepare` / `CommitLocal` that carried the DN's writes.
    commit_round: AtomicU64,
    /// Posted phase-two `Commit`s.
    phase_two: AtomicU64,
}

/// A DN's participant service behind its tally and an optional hook that
/// runs when a `Read` arrives, before it is served.
struct CountingDn {
    inner: Arc<DnService>,
    tally: Arc<Tally>,
    on_read: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Handler<TxnMsg> for CountingDn {
    fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
        let t = &self.tally;
        let counter = match &msg {
            TxnMsg::Read { .. } => Some(&t.reads),
            TxnMsg::Scan { .. } => Some(&t.scans),
            TxnMsg::Write { .. } => Some(&t.writes),
            TxnMsg::Prepare { staged, .. } | TxnMsg::CommitLocal { staged, .. } => {
                Some(if staged.writes.is_empty() { &t.bare_votes } else { &t.commit_round })
            }
            _ => None,
        };
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let (TxnMsg::Read { .. }, Some(hook)) = (&msg, &self.on_read) {
            hook();
        }
        self.inner.handle(from, msg)
    }

    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        if matches!(msg, TxnMsg::Commit { .. }) {
            self.tally.phase_two.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.handle_oneway(from, msg)
    }
}

struct Cluster {
    db: PolarDbx,
    s: Session,
    tallies: HashMap<NodeId, Arc<Tally>>,
}

/// Three DCs with one CN and one DN each, a session on DC1's CN, and
/// `t(id, v, pad)`: ids `0..96` over 8 hash shards.
fn cluster() -> Cluster {
    let db = PolarDbx::build(ClusterConfig { dcs: 3, cns_per_dc: 1, dns: 3, ..Default::default() })
        .unwrap();
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE t (id BIGINT NOT NULL, v INT, pad VARCHAR(8), PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 8",
    )
    .unwrap();
    let values: Vec<String> = (0..96).map(|i| format!("({i}, 0, 'p{i}')")).collect();
    s.execute(&format!("INSERT INTO t (id, v, pad) VALUES {}", values.join(", "))).unwrap();
    let mut tallies = HashMap::new();
    for dn in db.dns() {
        let tally = Arc::new(Tally::default());
        let counting =
            CountingDn { inner: Arc::clone(&dn.service), tally: Arc::clone(&tally), on_read: None };
        db.net().register(dn.id, dn.dc, Arc::new(counting));
        tallies.insert(dn.id, tally);
    }
    Cluster { db, s, tallies }
}

impl Cluster {
    fn home(&self, id: i64) -> NodeId {
        self.s.route("t", &[Value::Int(id)]).unwrap().1
    }

    fn total(&self, pick: impl Fn(&Tally) -> &AtomicU64) -> u64 {
        self.tallies.values().map(|t| pick(t).load(Ordering::Relaxed)).sum()
    }

    /// Run `sql`; returns (rounds, sync calls, reads, scans) it cost.
    fn cost(&self, sql: &str, affected: u64) -> (u64, u64, u64, u64) {
        let stats = &self.db.net().stats;
        let before = (
            stats.rounds.load(Ordering::Relaxed),
            stats.snapshot().0,
            self.total(|t| &t.reads),
            self.total(|t| &t.scans),
        );
        assert_eq!(self.s.execute(sql).unwrap(), affected, "{sql}");
        (
            stats.rounds.load(Ordering::Relaxed) - before.0,
            stats.snapshot().0 - before.1,
            self.total(|t| &t.reads) - before.2,
            self.total(|t| &t.scans) - before.3,
        )
    }

    /// Three ids of `t`, one on each DN.
    fn one_id_per_dn(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = Vec::new();
        for id in 0..96 {
            if ids.iter().all(|&other| self.home(other) != self.home(id)) {
                ids.push(id);
            }
        }
        assert_eq!(ids.len(), 3, "the table spans the three DNs");
        ids
    }

    /// `g(id, k, v)`: ids `0..16` over 8 hash shards, a global index on `k`.
    fn with_indexed_table(self) -> Cluster {
        self.s
            .execute(
                "CREATE TABLE g (id BIGINT NOT NULL, k INT, v INT, PRIMARY KEY (id)) \
                 PARTITION BY HASH(id) PARTITIONS 8",
            )
            .unwrap();
        let values: Vec<String> = (0..16).map(|i| format!("({i}, {i}, 0)")).collect();
        self.s.execute(&format!("INSERT INTO g (id, k, v) VALUES {}", values.join(", "))).unwrap();
        self.s.execute("CREATE GLOBAL INDEX by_k ON g (k)").unwrap();
        self
    }

    /// Wait until no DN outside `skip` holds a transaction (posted aborts
    /// and phase-two commits have landed).
    fn await_drained(&self, skip: &[NodeId]) {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while self
            .db
            .dns()
            .iter()
            .any(|dn| !skip.contains(&dn.id) && dn.rw.engine.has_active_txns())
        {
            assert!(std::time::Instant::now() < deadline, "a DN still holds a transaction");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn value_of(&self, id: i64) -> Value {
        let rows = self.s.query(&format!("SELECT v FROM t WHERE id = {id}")).unwrap();
        rows[0].get(0).unwrap().clone()
    }
}

fn await_eq(what: &str, counter: &AtomicU64, want: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while counter.load(Ordering::Relaxed) != want && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(counter.load(Ordering::Relaxed), want, "{what}");
}

#[test]
fn three_row_update_spanning_dns_is_one_round() {
    let c = cluster();
    let ids = c.one_id_per_dn();
    let two_phase = c.db.txn_metrics().two_phase_commits.get();

    let sql = format!("UPDATE t SET v = v + 1 WHERE id IN ({}, {}, {})", ids[0], ids[1], ids[2]);
    // No Read: one Prepare per DN carries that DN's edit.
    assert_eq!(c.cost(&sql, 3), (1, 3, 0, 0));
    assert_eq!(c.total(|t| &t.writes), 0, "no write travels alone");
    assert_eq!(c.total(|t| &t.bare_votes), 0, "no vote travels alone");
    for (dn, tally) in &c.tallies {
        assert_eq!(tally.commit_round.load(Ordering::Relaxed), 1, "{dn}: one commit-round message");
        await_eq("one phase-two post per write DN", &tally.phase_two, 1);
    }
    assert_eq!(c.db.txn_metrics().two_phase_commits.get(), two_phase + 1);
    // What the placer's tap records of such a statement is checked in
    // `core`: `placer::tests::a_pushed_update_spanning_dns_reaches_the_sketch`.

    for id in ids {
        assert_eq!(c.value_of(id), Value::Int(1));
    }
    c.db.shutdown();
}

#[test]
fn one_row_update_is_one_round_and_one_call() {
    let c = cluster();
    let one_phase = c.db.txn_metrics().one_phase_commits.get();
    // A CommitLocal that carries the edit, like a one-row INSERT.
    assert_eq!(c.cost("UPDATE t SET v = v + 1 WHERE id = 42", 1), (1, 1, 0, 0));
    assert_eq!(c.db.txn_metrics().one_phase_commits.get(), one_phase + 1);
    assert_eq!(c.tallies[&c.home(42)].commit_round.load(Ordering::Relaxed), 1);
    assert_eq!(c.total(|t| &t.commit_round), 1);
    assert_eq!(c.total(|t| &t.writes) + c.total(|t| &t.bare_votes), 0);
    assert_eq!(c.total(|t| &t.phase_two), 0, "one-phase: nothing to post");
    assert_eq!(c.value_of(42), Value::Int(1));
    // The same for a DELETE, for a statement that finds no row, and for one
    // whose residual predicate rejects the row it finds.
    assert_eq!(c.cost("DELETE FROM t WHERE id = 43", 1), (1, 1, 0, 0));
    assert_eq!(c.cost("DELETE FROM t WHERE id = 43", 0), (1, 1, 0, 0));
    assert_eq!(c.cost("UPDATE t SET v = v + 1 WHERE id = 42 AND pad = 'nope'", 0), (1, 1, 0, 0));
    let homes: HashSet<NodeId> = [44, 45, 46].into_iter().map(|id| c.home(id)).collect();
    assert_eq!(
        c.cost("DELETE FROM t WHERE id IN (44, 45, 46) AND v = 0", 3),
        (1, homes.len() as u64, 0, 0)
    );
    assert_eq!(c.total(|t| &t.writes) + c.total(|t| &t.bare_votes), 0);
    assert_eq!(c.value_of(42), Value::Int(1));
    assert_eq!(c.db.count_rows("t").unwrap(), 92);
    c.db.shutdown();
}

#[test]
fn hundred_row_insert_over_eight_shards_is_one_round() {
    let c = cluster();
    let values: Vec<String> = (1000..1100).map(|i| format!("({i}, 0, 'x')")).collect();
    let sql = format!("INSERT INTO t (id, v, pad) VALUES {}", values.join(", "));
    // Nothing to read; one Prepare per DN carries that DN's rows.
    assert_eq!(c.cost(&sql, 100), (1, 3, 0, 0));
    assert_eq!(c.total(|t| &t.writes) + c.total(|t| &t.bare_votes), 0);
    assert_eq!(c.total(|t| &t.commit_round), 3);
    for tally in c.tallies.values() {
        await_eq("phase two", &tally.phase_two, 1);
    }
    assert_eq!(c.db.count_rows("t").unwrap(), 196);
    // A duplicate key inside such a statement is still the DN's own error.
    let err = c.s.execute("INSERT INTO t (id, v, pad) VALUES (2000, 0, 'x'), (1000, 0, 'x')");
    assert!(matches!(err, Err(Error::DuplicateKey { .. })), "{err:?}");
    c.db.shutdown();
}

#[test]
fn update_by_a_non_key_predicate_is_two_rounds() {
    let c = cluster();
    // All 8 shards are scanned in one round; the one match commits one-phase.
    assert_eq!(c.cost("UPDATE t SET v = v + 1 WHERE pad = 'p5'", 1), (2, 9, 0, 8));
    assert_eq!(c.value_of(5), Value::Int(1));
    // Every row matches: still two rounds, now with a Prepare per DN.
    assert_eq!(c.cost("UPDATE t SET v = v + 1 WHERE v >= 0", 96), (2, 11, 0, 8));
    assert_eq!(c.total(|t| &t.writes) + c.total(|t| &t.bare_votes), 0);
    c.db.shutdown();
}

/// Holds each phase-two `Commit` back until a commit-round message of a
/// later transaction has reached this DN, and counts the commit-round
/// messages that met an earlier transaction still PREPARED here.
struct LatePhaseTwo {
    inner: Arc<DnService>,
    /// The newest transaction a commit-round message arrived for.
    newest: Mutex<TrxId>,
    arrival: Condvar,
    met_prepared: Arc<AtomicU64>,
}

impl Handler<TxnMsg> for LatePhaseTwo {
    fn handle(&self, from: NodeId, msg: TxnMsg) -> TxnMsg {
        if let TxnMsg::Prepare { trx, .. } | TxnMsg::CommitLocal { trx, .. } = &msg {
            if self.inner.in_doubt_count() > 0 {
                self.met_prepared.fetch_add(1, Ordering::Relaxed);
            }
            *self.newest.lock().unwrap() = *trx;
            self.arrival.notify_all();
        }
        self.inner.handle(from, msg)
    }

    fn handle_oneway(&self, from: NodeId, msg: TxnMsg) {
        if let TxnMsg::Commit { trx, .. } = &msg {
            // The last statement has no successor: give up after a moment.
            let _ = self
                .arrival
                .wait_timeout_while(
                    self.newest.lock().unwrap(),
                    Duration::from_millis(100),
                    |newest| *newest <= *trx,
                )
                .unwrap();
        }
        self.inner.handle_oneway(from, msg)
    }
}

/// A client's next statement can reach a row while its previous statement's
/// posted phase two is still on the way, i.e. while the row's newest version
/// is PREPARED. The pushed edit's read waits that out, exactly as the `Read`
/// message it replaced did; were it a blind write it would bounce off the
/// client's own last transaction with a `WriteConflict`.
#[test]
fn back_to_back_updates_wait_out_their_own_previous_phase_two() {
    let c = cluster();
    let ids = c.one_id_per_dn();
    c.await_drained(&[]); // the load's own phase two
    let met_prepared = Arc::new(AtomicU64::new(0));
    for dn in c.db.dns() {
        let late = LatePhaseTwo {
            inner: Arc::clone(&dn.service),
            newest: Mutex::new(TrxId(0)),
            arrival: Condvar::new(),
            met_prepared: Arc::clone(&met_prepared),
        };
        c.db.net().register(dn.id, dn.dc, Arc::new(late));
    }
    let sql = format!("UPDATE t SET v = v + 1 WHERE id IN ({}, {}, {})", ids[0], ids[1], ids[2]);
    let mut acked = 0;
    for n in 0..200 {
        match c.s.execute(&sql) {
            Ok(rows) => acked += rows,
            Err(e) => panic!("statement {n} collided with statement {}: {e:?}", n - 1),
        }
    }
    // Every statement but the first met its predecessor PREPARED on every DN.
    assert_eq!(met_prepared.load(Ordering::Relaxed), 3 * 199);
    assert_eq!(acked, 3 * 200);
    for id in ids {
        assert_eq!(c.value_of(id), Value::Int(200), "final = sum of acked");
    }
    c.db.shutdown();
}

/// A statement that changes a global-index entry needs the old row on the CN
/// to find that entry, so it keeps its read round.
#[test]
fn statements_that_change_a_global_index_entry_stay_two_rounds() {
    let c = cluster().with_indexed_table();
    let rounds_and_reads = |sql: &str| {
        let (rounds, _, reads, scans) = c.cost(sql, 1);
        (rounds, reads, scans)
    };
    // An assigned column the index stores; a DELETE, which drops the entry.
    assert_eq!(rounds_and_reads("UPDATE g SET k = k + 100 WHERE id = 5"), (2, 1, 0));
    assert_eq!(rounds_and_reads("DELETE FROM g WHERE id = 6"), (2, 1, 0));
    // A column the index does not store: the edit is pushed.
    assert_eq!(c.cost("UPDATE g SET v = v + 1 WHERE id = 5", 1), (1, 1, 0, 0));
    assert_eq!(c.total(|t| &t.writes) + c.total(|t| &t.bare_votes), 0);
    let rows = c.s.query("SELECT id, v FROM g WHERE k = 105").unwrap();
    assert_eq!(rows.len(), 1, "the index entry moved with the row");
    assert_eq!(rows[0].values(), &[Value::Int(5), Value::Int(1)]);
    assert!(c.s.query("SELECT id FROM g WHERE k = 6").unwrap().is_empty());
    c.db.shutdown();
}

/// The CN loses its link to a row's DN after the statement's read and before
/// its commit round (the statement changes a global-index entry, so it has a
/// read round). The row's vote is unheard, so the statement's outcome is in
/// doubt; because the write had not been sent ahead of the vote there is no
/// intent on the DN to outlive it, and once the link heals the row can be
/// written again.
#[test]
fn partition_during_a_point_update_leaves_the_row_writable() {
    let c = cluster().with_indexed_table();
    let home = |id: i64| c.s.route("g", &[Value::Int(id)]).unwrap();
    let dn_of = |id: i64| c.db.dns().into_iter().find(|d| d.id == home(id).1).unwrap();
    let id = (0..16).find(|&id| dn_of(id).dc != DcId(1)).unwrap();
    let dn = dn_of(id);
    let armed = Arc::new(AtomicBool::new(true));
    let hook = {
        let (net, armed, dc) = (Arc::clone(c.db.net()), Arc::clone(&armed), dn.dc);
        move || {
            if armed.swap(false, Ordering::SeqCst) {
                net.partition(DcId(1), dc);
            }
        }
    };
    let counting = CountingDn {
        inner: Arc::clone(&dn.service),
        tally: Arc::clone(&c.tallies[&dn.id]),
        on_read: Some(Box::new(hook)),
    };
    c.db.net().register(dn.id, dn.dc, Arc::new(counting));

    let sql = format!("UPDATE g SET k = k + 100 WHERE id = {id}");
    let commit_rounds = c.tallies[&dn.id].commit_round.load(Ordering::Relaxed);
    let err = c.s.execute(&sql).unwrap_err();
    assert!(matches!(err, Error::InDoubt { .. }), "{err:?}");
    assert!(!armed.load(Ordering::SeqCst), "the partition began during the statement");
    assert_eq!(c.tallies[&dn.id].commit_round.load(Ordering::Relaxed), commit_rounds);
    c.db.net().heal(DcId(1), dn.dc);

    assert!(!dn.rw.engine.has_active_writes_on(home(id).0));
    // The index entries' DNs prepared; their resolvers abort once the row's
    // own DN, which never voted, refuses. (Nothing is posted to that DN: the
    // writeless context its Read opened ends with the refusal, and blocks
    // nothing meanwhile.)
    c.await_drained(&[dn.id]);
    assert_eq!(c.s.execute(&sql).unwrap(), 1, "the row must not be blocked");
    let rows = c.s.query(&format!("SELECT k FROM g WHERE id = {id}")).unwrap();
    assert_eq!(rows[0].get(0).unwrap(), &Value::Int(id + 100), "only the second UPDATE took effect");
    c.db.shutdown();
}

/// A pushed statement sends nothing ahead of its commit round, so one that
/// cannot reach a DN leaves nothing anywhere: its outcome is in doubt until
/// the DNs it did reach hear the unreached one refuse and roll their edits
/// back, and then the statement can simply run again.
#[test]
fn unreachable_dn_fails_a_pushed_update_and_every_edit_rolls_back() {
    let c = cluster();
    let ids = c.one_id_per_dn();
    let far = c.db.dns().into_iter().find(|d| d.dc != DcId(1)).unwrap();
    c.db.net().partition(DcId(1), far.dc);

    let sql = format!("UPDATE t SET v = v + 1 WHERE id IN ({}, {}, {})", ids[0], ids[1], ids[2]);
    let err = c.s.execute(&sql).unwrap_err();
    assert!(matches!(err, Error::InDoubt { .. }), "{err:?}");
    assert_eq!(c.total(|t| &t.reads) + c.total(|t| &t.scans) + c.total(|t| &t.writes), 0);
    for (dn, tally) in &c.tallies {
        let reached = (*dn != far.id) as u64;
        assert_eq!(tally.commit_round.load(Ordering::Relaxed), reached, "{dn}");
    }
    c.db.net().heal(DcId(1), far.dc);
    c.await_drained(&[]);
    for &id in &ids {
        assert_eq!(c.value_of(id), Value::Int(0), "no edit survived the failed statement");
    }
    assert_eq!(c.s.execute(&sql).unwrap(), 3);
    for &id in &ids {
        assert_eq!(c.value_of(id), Value::Int(1), "each row edited once");
    }
    c.db.shutdown();
}
