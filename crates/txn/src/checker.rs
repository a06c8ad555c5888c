//! Snapshot-isolation invariant checking: the bank-transfer harness.
//!
//! The classic SI litmus test: `n` accounts with a conserved total balance.
//! Transfers move money between accounts on *different DNs* inside one
//! distributed transaction; auditors read every account under a single
//! snapshot. Under snapshot isolation every audit must observe the exact
//! conserved total — a fractured read (seeing the debit but not the credit)
//! is precisely the anomaly HLC-SI's §IV proof rules out.

use std::sync::Arc;

use polardbx_common::{Key, NodeId, Result, Row, TableId, Value};

use crate::coordinator::{Coordinator, DistTxn, ReadOp};
use crate::msg::{Edit, RowEdit, WireWriteOp};

/// How a checker's writer reaches its DNs. Checkers run all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePath {
    /// A message per read and per write, then the commit (an interactive
    /// driver).
    PerStatement,
    /// The reads in one round, full rows staged into the commit round (an
    /// autocommit statement that keeps its read).
    Staged,
    /// No read: [`WireWriteOp::Edit`]s staged into the commit round, each
    /// row read and edited on its DN (an autocommit keyed statement).
    Pushed,
}

impl WritePath {
    /// The path a seed or a random draw picks: `n mod 3`.
    pub fn pick(n: u64) -> WritePath {
        [WritePath::PerStatement, WritePath::Staged, WritePath::Pushed][(n % 3) as usize]
    }
}

/// The edit `row[column] ← row[column] + delta` over an integer column.
#[derive(Debug)]
pub struct AddInt {
    /// Column index.
    pub column: usize,
    /// What to add.
    pub delta: i64,
}

impl RowEdit for AddInt {
    fn apply(&self, old: &Row) -> Result<Edit> {
        let mut new = old.clone();
        new.set(self.column, Value::Int(old.get(self.column)?.as_int()? + self.delta))?;
        Ok(Edit::Put(new))
    }
}

/// Point-read every `(dn, table, key)` in one round
/// ([`DistTxn::read_many`]): the row found under each, in the order given.
pub fn read_points(
    txn: &mut DistTxn<'_>,
    reads: Vec<(NodeId, TableId, Key)>,
) -> Result<Vec<Option<Row>>> {
    let ops = reads.into_iter().map(|(dn, table, key)| (dn, table, ReadOp::Point(key))).collect();
    let found = txn.read_many(ops)?;
    Ok(found.into_iter().map(|rows| rows.into_iter().next().map(|(_, row)| row)).collect())
}

/// Account layout helper: account `i` lives on `dns[i % dns.len()]`.
pub struct BankHarness {
    /// Table holding accounts (schema: id, balance).
    pub table: TableId,
    /// Participant DNs.
    pub dns: Vec<NodeId>,
    /// Number of accounts.
    pub accounts: usize,
    /// Initial per-account balance.
    pub initial: i64,
}

impl BankHarness {
    /// Key of account `i`.
    pub fn key(&self, i: usize) -> Key {
        Key::encode(&[Value::Int(i as i64)])
    }

    /// DN hosting account `i`.
    pub fn dn_of(&self, i: usize) -> NodeId {
        self.dns[i % self.dns.len()]
    }

    /// The conserved total.
    pub fn expected_total(&self) -> i64 {
        self.accounts as i64 * self.initial
    }

    /// Create all accounts (one transaction per account to spread load).
    pub fn seed(&self, coord: &Coordinator) -> Result<()> {
        for i in 0..self.accounts {
            let mut txn = coord.begin();
            txn.write(
                self.dn_of(i),
                self.table,
                self.key(i),
                WireWriteOp::Insert(Row::new(vec![
                    Value::Int(i as i64),
                    Value::Int(self.initial),
                ])),
            )?;
            txn.commit()?;
        }
        Ok(())
    }

    /// Transfer `amount` from account `a` to account `b` in one distributed
    /// transaction, reaching the DNs down `path`. Returns Err on conflict
    /// (caller may retry).
    pub fn transfer(
        &self,
        coord: &Coordinator,
        a: usize,
        b: usize,
        amount: i64,
        path: WritePath,
    ) -> Result<()> {
        let mut txn = coord.begin();
        let (dn_a, dn_b) = (self.dn_of(a), self.dn_of(b));
        if path == WritePath::Pushed {
            for (i, dn, delta) in [(a, dn_a, -amount), (b, dn_b, amount)] {
                let edit = WireWriteOp::Edit(Arc::new(AddInt { column: 1, delta }));
                txn.stage_write(dn, self.table, self.key(i), edit);
            }
            // Both accounts exist, so anything but 2 is a miscount (say, a
            // duplicated message's edit counted twice).
            return match txn.commit_counting()? {
                (_, 2) => Ok(()),
                (_, n) => Err(polardbx_common::Error::execution(format!(
                    "pushed transfer {a} -> {b} edited {n} rows, not 2"
                ))),
            };
        }
        let staged = path == WritePath::Staged;
        let (ra, rb) = if staged {
            let reads = vec![(dn_a, self.table, self.key(a)), (dn_b, self.table, self.key(b))];
            let mut found = read_points(&mut txn, reads)?.into_iter();
            (found.next().flatten(), found.next().flatten())
        } else {
            (txn.read(dn_a, self.table, &self.key(a))?, txn.read(dn_b, self.table, &self.key(b))?)
        };
        let ba = ra.ok_or(polardbx_common::Error::KeyNotFound)?.get(1)?.as_int()?;
        let bb = rb.ok_or(polardbx_common::Error::KeyNotFound)?.get(1)?.as_int()?;
        for (i, dn, balance) in [(a, dn_a, ba - amount), (b, dn_b, bb + amount)] {
            let op = WireWriteOp::Update(Row::new(vec![Value::Int(i as i64), Value::Int(balance)]));
            if staged {
                txn.stage_write(dn, self.table, self.key(i), op);
            } else {
                txn.write(dn, self.table, self.key(i), op)?;
            }
        }
        txn.commit()?;
        Ok(())
    }

    /// Audit: read every account under one snapshot and return the total.
    /// May return Err if a read times out.
    pub fn audit(&self, coord: &Coordinator) -> Result<i64> {
        let mut txn = coord.begin();
        let mut total = 0i64;
        for i in 0..self.accounts {
            let row = txn
                .read(self.dn_of(i), self.table, &self.key(i))?
                .ok_or(polardbx_common::Error::KeyNotFound)?;
            total += row.get(1)?.as_int()?;
        }
        txn.abort(); // read-only; release
        Ok(total)
    }
}

/// Run a concurrent transfer/audit stress and return the list of audit
/// totals observed (all must equal `expected_total` under SI).
pub fn stress(
    harness: Arc<BankHarness>,
    coords: Vec<Arc<Coordinator>>,
    transfer_threads: usize,
    transfers_per_thread: usize,
    audits: usize,
) -> Vec<i64> {
    stress_seeded(harness, coords, transfer_threads, transfers_per_thread, audits, 0xBA2C_0000)
}

/// [`stress`] with an explicit base seed (per-thread streams derive from
/// it), so suites can plumb `POLARDBX_TEST_SEED` through and replay a
/// failing interleaving's transfer choices.
pub fn stress_seeded(
    harness: Arc<BankHarness>,
    coords: Vec<Arc<Coordinator>>,
    transfer_threads: usize,
    transfers_per_thread: usize,
    audits: usize,
    base_seed: u64,
) -> Vec<i64> {
    use rand::{Rng, SeedableRng};
    let totals = parking_lot::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..transfer_threads {
            let coord = Arc::clone(&coords[t % coords.len()]);
            let h = Arc::clone(&harness);
            s.spawn(move || {
                // Seeded per thread: the bank checker must replay identically
                // under the same seed (determinism lint).
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(base_seed.wrapping_add(t as u64));
                for _ in 0..transfers_per_thread {
                    let a = rng.gen_range(0..h.accounts);
                    let mut b = rng.gen_range(0..h.accounts);
                    if a == b {
                        b = (b + 1) % h.accounts;
                    }
                    // Conflicts are expected; retry a few times then move on.
                    for _ in 0..3 {
                        match h.transfer(&coord, a, b, 1, WritePath::pick(rng.gen())) {
                            Ok(()) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(_) => break,
                        }
                    }
                }
            });
        }
        for a in 0..audits {
            let coord = Arc::clone(&coords[a % coords.len()]);
            let h = Arc::clone(&harness);
            let totals = &totals;
            s.spawn(move || {
                for _ in 0..4 {
                    if let Ok(total) = h.audit(&coord) {
                        totals.lock().push(total);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
    });
    totals.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{DcId, IdGenerator, TenantId};
    use polardbx_hlc::Hlc;
    use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
    use polardbx_storage::StorageEngine;

    use crate::msg::TxnMsg;
    use crate::participant::DnService;

    struct CnStub;
    impl Handler<TxnMsg> for CnStub {
        fn handle(&self, _f: NodeId, m: TxnMsg) -> TxnMsg {
            m
        }
    }

    const T: TableId = TableId(1);

    fn cluster(n_dn: u64, n_cn: u64) -> (Arc<SimNet<TxnMsg>>, Vec<Arc<Coordinator>>, Vec<NodeId>) {
        let net = SimNet::new(LatencyMatrix::zero());
        let mut dns = Vec::new();
        for i in 1..=n_dn {
            let engine = StorageEngine::in_memory();
            engine.create_table(T, TenantId(1));
            let dn = DnService::new(NodeId(i), engine, Hlc::new());
            net.register(NodeId(i), DcId(1 + i % 3), dn);
            dns.push(NodeId(i));
        }
        let ids = Arc::new(IdGenerator::new());
        let mut coords = Vec::new();
        for c in 0..n_cn {
            let me = NodeId(100 + c);
            net.register(me, DcId(1 + c % 3), Arc::new(CnStub));
            coords.push(Arc::new(Coordinator::new(
                me,
                Arc::clone(&net),
                Hlc::new(),
                Arc::clone(&ids),
            )));
        }
        (net, coords, dns)
    }

    #[test]
    fn audits_always_see_conserved_total() {
        let (_net, coords, dns) = cluster(3, 2);
        let harness = Arc::new(BankHarness { table: T, dns, accounts: 12, initial: 100 });
        harness.seed(&coords[0]).unwrap();
        // HLC gives causality only through message exchange: coords[1] never
        // talked to coords[0], so within the same millisecond its snapshot
        // (lc=0) can predate seed commits whose lc was bumped. One wall-clock
        // tick restores visibility — wait it out before the quiescent audit.
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert_eq!(harness.audit(&coords[1]).unwrap(), harness.expected_total());

        let totals = stress(Arc::clone(&harness), coords.clone(), 4, 25, 3);
        assert!(!totals.is_empty(), "audits must complete");
        for t in &totals {
            assert_eq!(
                *t,
                harness.expected_total(),
                "snapshot isolation violated: audit saw {t}, expected {}",
                harness.expected_total()
            );
        }
        // Final state conserves the total too.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(harness.audit(&coords[0]).unwrap(), harness.expected_total());
    }

    #[test]
    fn transfer_moves_money() {
        let (_net, coords, dns) = cluster(2, 1);
        let harness = BankHarness { table: T, dns, accounts: 2, initial: 100 };
        harness.seed(&coords[0]).unwrap();
        harness.transfer(&coords[0], 0, 1, 30, WritePath::PerStatement).unwrap();
        harness.transfer(&coords[0], 1, 0, 10, WritePath::Staged).unwrap();
        harness.transfer(&coords[0], 0, 1, 5, WritePath::Pushed).unwrap();
        let mut txn = coords[0].begin();
        let a = txn.read(harness.dn_of(0), T, &harness.key(0)).unwrap().unwrap();
        let b = txn.read(harness.dn_of(1), T, &harness.key(1)).unwrap().unwrap();
        txn.abort();
        assert_eq!(a.get(1).unwrap().as_int().unwrap(), 75);
        assert_eq!(b.get(1).unwrap().as_int().unwrap(), 125);
    }
}
