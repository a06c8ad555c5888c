//! Local transaction table: states and PREPARED-waits.
//!
//! §IV's visibility rule needs three facts about a writer transaction:
//! is it ACTIVE (invisible), PREPARED (undecided — the reader must wait),
//! or COMMITTED/ABORTED (decided by `commit_ts`). The table keeps those
//! states and lets readers block until a prepared transaction completes.

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

use polardbx_common::{Error, Result, TrxId};

/// Lifecycle states of a local transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Executing; its writes are invisible to everyone else.
    Active,
    /// 2PC first phase done; commit timestamp still unknown.
    Prepared {
        /// The participant's `prepare_ts` (ClockAdvance result).
        prepare_ts: u64,
    },
    /// Decided: visible to snapshots at or after `commit_ts`.
    Committed {
        /// The transaction's global commit timestamp.
        commit_ts: u64,
    },
    /// Rolled back; its versions are garbage.
    Aborted,
}

impl TxnState {
    /// Is the outcome still undecided?
    pub fn is_pending(&self) -> bool {
        matches!(self, TxnState::Active | TxnState::Prepared { .. })
    }
}

#[derive(Default)]
struct Inner {
    states: HashMap<TrxId, TxnState>,
    /// Epoch pipeline (early lock release): transactions whose commit
    /// stamp has been published but whose epoch has not reached its
    /// durability horizon. Their versions exist and may be overwritten,
    /// but no external read may observe them and no client ack may be
    /// sent until they leave this set.
    unstable: HashSet<TrxId>,
}

/// The node-local transaction table.
#[derive(Default)]
pub struct TxnTable {
    inner: Mutex<Inner>,
    decided: Condvar,
}

impl TxnTable {
    /// Empty table.
    pub fn new() -> TxnTable {
        TxnTable::default()
    }

    /// Register a new ACTIVE transaction. A transaction the table already
    /// knows keeps its state and the call returns false: a late or
    /// duplicated statement never re-opens one this node decided — above
    /// all one it refused, whose NO vote must stand.
    pub fn begin(&self, trx: TrxId) -> bool {
        let mut inner = self.inner.lock();
        let fresh = !inner.states.contains_key(&trx);
        if fresh {
            inner.states.insert(trx, TxnState::Active);
        }
        fresh
    }

    /// Drop what the table knows of `trx`, as if it had never been seen.
    /// Checker validation only (`sitcheck`'s `ForgetRefusal`): forgetting a
    /// refusal lets a late statement re-open the transaction.
    pub fn forget(&self, trx: TrxId) {
        self.inner.lock().states.remove(&trx);
    }

    /// Move `trx` to PREPARED (2PC phase one).
    pub fn prepare(&self, trx: TrxId, prepare_ts: u64) -> Result<()> {
        self.prepare_with(trx, || prepare_ts).map(|_| ())
    }

    /// Move `trx` to PREPARED with the timestamp allocated *inside* the
    /// state-table critical section. Readers decide whether to skip an
    /// undecided version by consulting this table under the same lock, and
    /// a reader that skips an ACTIVE writer is only correct if that
    /// writer's eventual timestamp exceeds the reader's snapshot. When the
    /// clock advance happens outside the lock, a reader can sync a higher
    /// snapshot into the node clock *between* the writer's allocation and
    /// its PREPARED transition, scan past the still-ACTIVE intents, and
    /// miss a transaction about to commit below its snapshot (G-SIb).
    /// Holding the lock across `alloc` makes the reader's state check land
    /// strictly before the allocation or strictly after the transition —
    /// both safe.
    pub fn prepare_with(&self, trx: TrxId, alloc: impl FnOnce() -> u64) -> Result<u64> {
        let mut inner = self.inner.lock();
        match inner.states.get_mut(&trx) {
            Some(s @ TxnState::Active) => {
                let prepare_ts = alloc();
                *s = TxnState::Prepared { prepare_ts };
                Ok(prepare_ts)
            }
            Some(other) => Err(Error::TxnAborted {
                reason: format!("prepare from illegal state {other:?}"),
            }),
            None => Err(Error::TxnAborted { reason: format!("unknown trx {trx}") }),
        }
    }

    /// Decide COMMITTED. Legal from ACTIVE (one-phase local commit) or
    /// PREPARED (2PC). Wakes waiting readers.
    pub fn commit(&self, trx: TrxId, commit_ts: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        match inner.states.get_mut(&trx) {
            Some(s) if s.is_pending() => {
                *s = TxnState::Committed { commit_ts };
                self.decided.notify_all();
                Ok(())
            }
            Some(other) => {
                Err(Error::TxnAborted { reason: format!("commit from {other:?}") })
            }
            None => Err(Error::TxnAborted { reason: format!("unknown trx {trx}") }),
        }
    }

    /// Decide ABORTED. Wakes waiting readers. A duplicate or late Abort for
    /// an already-committed transaction is a no-op: under message loss the
    /// fabric may redeliver an Abort after the commit decision landed, and a
    /// decision, once made, is final.
    pub fn abort(&self, trx: TrxId) {
        let mut inner = self.inner.lock();
        if let Some(TxnState::Committed { .. }) = inner.states.get(&trx) {
            return;
        }
        inner.states.insert(trx, TxnState::Aborted);
        self.decided.notify_all();
    }

    /// Atomically abort `trx` unless it has voted: it is ACTIVE, or this
    /// table never saw it (which records it ABORTED, so a late Prepare is
    /// refused). Returns whether the abort happened. Exactly one of
    /// {prepare, try_abort_unvoted} wins the state transition, and the
    /// loser observes the other's state and backs off.
    pub fn try_abort_unvoted(&self, trx: TrxId) -> bool {
        let mut inner = self.inner.lock();
        if !matches!(inner.states.get(&trx), None | Some(TxnState::Active)) {
            return false;
        }
        inner.states.insert(trx, TxnState::Aborted);
        self.decided.notify_all();
        true
    }

    /// Current state, if known.
    pub fn state(&self, trx: TrxId) -> Option<TxnState> {
        self.inner.lock().states.get(&trx).copied()
    }

    /// §IV case 2: the reader met a PREPARED version. Block until the
    /// writer decides, then return the final state. An ACTIVE writer is not
    /// waited on (case 3: simply invisible) — callers only invoke this for
    /// prepared writers, but a state change racing us is handled by waiting
    /// on anything pending.
    pub fn wait_decided(&self, trx: TrxId, timeout: Duration) -> Result<TxnState> {
        let mut inner = self.inner.lock();
        // lint:allow(determinism, "Condvar::wait_until needs an Instant deadline; bounded by the caller's timeout")
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match inner.states.get(&trx) {
                Some(s) if !s.is_pending() => return Ok(*s),
                None => {
                    // Unknown = never began here (or forgotten by a
                    // checker mutation); nothing of it can commit.
                    return Ok(TxnState::Aborted);
                }
                Some(_) => {
                    if self.decided.wait_until(&mut inner, deadline).timed_out() {
                        return Err(Error::Timeout { what: format!("decision of {trx}") });
                    }
                }
            }
        }
    }

    /// Flag `trx` as unstable *before* its commit stamp is published
    /// (epoch early lock release). Readers that meet its versions gate on
    /// [`TxnTable::wait_stable`]; there is no window in which a stamped
    /// version is observable with the flag unset.
    pub fn mark_unstable(&self, trx: TrxId) {
        self.inner.lock().unstable.insert(trx);
    }

    /// The epoch containing `txns` reached its durability horizon: clear
    /// their unstable flags and wake gated readers.
    pub fn mark_stable_batch(&self, txns: &[TrxId]) {
        let mut inner = self.inner.lock();
        for t in txns {
            inner.unstable.remove(t);
        }
        self.decided.notify_all();
    }

    /// Is `trx` committed-but-not-yet-durable (epoch in flight)?
    pub fn is_unstable(&self, trx: TrxId) -> bool {
        self.inner.lock().unstable.contains(&trx)
    }

    /// Gate for external reads under early lock release: block until
    /// `trx`'s epoch resolves (stable, or rolled back by a torn epoch).
    /// On return the caller re-reads the state table and acts on whatever
    /// the resolution left there.
    pub fn wait_stable(&self, trx: TrxId, timeout: Duration) -> Result<()> {
        let mut inner = self.inner.lock();
        // lint:allow(determinism, "Condvar::wait_until needs an Instant deadline; bounded by the caller's timeout")
        let deadline = std::time::Instant::now() + timeout;
        while inner.unstable.contains(&trx) {
            if self.decided.wait_until(&mut inner, deadline).timed_out() {
                return Err(Error::Timeout { what: format!("epoch stability of {trx}") });
            }
        }
        Ok(())
    }

    /// Torn-epoch rollback of an *undecided* (one-phase) transaction:
    /// demote its early-released COMMITTED state back to ABORTED
    /// (presumed abort — the commit record never became durable). Returns
    /// the stamped commit timestamp if the demotion happened.
    pub fn demote_unstable_to_aborted(&self, trx: TrxId) -> Option<u64> {
        let mut inner = self.inner.lock();
        if !inner.unstable.remove(&trx) {
            return None;
        }
        let ts = match inner.states.get(&trx) {
            Some(TxnState::Committed { commit_ts }) => Some(*commit_ts),
            _ => None,
        };
        inner.states.insert(trx, TxnState::Aborted);
        self.decided.notify_all();
        ts
    }

    /// Torn-epoch rollback of a *decided* (2PC phase-two) transaction: every
    /// participant voted yes, so the decision stands and the transaction must
    /// never abort — it reverts to PREPARED and the decision will be
    /// re-driven (commit record re-logged) when durability returns.
    /// Returns the stamped commit timestamp if the demotion happened.
    pub fn demote_unstable_to_prepared(&self, trx: TrxId, prepare_ts: u64) -> Option<u64> {
        let mut inner = self.inner.lock();
        if !inner.unstable.remove(&trx) {
            return None;
        }
        let ts = match inner.states.get(&trx) {
            Some(TxnState::Committed { commit_ts }) => Some(*commit_ts),
            _ => None,
        };
        inner.states.insert(trx, TxnState::Prepared { prepare_ts });
        self.decided.notify_all();
        ts
    }

    /// Number of tracked transactions.
    pub fn len(&self) -> usize {
        self.inner.lock().states.len()
    }

    /// True when no transactions are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lifecycle_active_prepared_committed() {
        let t = TxnTable::new();
        t.begin(TrxId(1));
        assert_eq!(t.state(TrxId(1)), Some(TxnState::Active));
        t.prepare(TrxId(1), 10).unwrap();
        assert_eq!(t.state(TrxId(1)), Some(TxnState::Prepared { prepare_ts: 10 }));
        t.commit(TrxId(1), 12).unwrap();
        assert_eq!(t.state(TrxId(1)), Some(TxnState::Committed { commit_ts: 12 }));
    }

    #[test]
    fn one_phase_commit_from_active() {
        let t = TxnTable::new();
        t.begin(TrxId(1));
        t.commit(TrxId(1), 5).unwrap();
        assert_eq!(t.state(TrxId(1)), Some(TxnState::Committed { commit_ts: 5 }));
    }

    #[test]
    fn illegal_transitions_rejected() {
        let t = TxnTable::new();
        t.begin(TrxId(1));
        t.commit(TrxId(1), 5).unwrap();
        assert!(t.prepare(TrxId(1), 6).is_err());
        assert!(t.commit(TrxId(1), 7).is_err());
        assert!(t.prepare(TrxId(99), 1).is_err(), "unknown trx");
    }

    #[test]
    fn wait_decided_blocks_until_commit() {
        let t = Arc::new(TxnTable::new());
        t.begin(TrxId(1));
        t.prepare(TrxId(1), 10).unwrap();
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            t2.wait_decided(TrxId(1), Duration::from_secs(2)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        t.commit(TrxId(1), 15).unwrap();
        assert_eq!(waiter.join().unwrap(), TxnState::Committed { commit_ts: 15 });
    }

    #[test]
    fn wait_decided_observes_abort() {
        let t = Arc::new(TxnTable::new());
        t.begin(TrxId(2));
        t.prepare(TrxId(2), 3).unwrap();
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            t2.wait_decided(TrxId(2), Duration::from_secs(2)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(10));
        t.abort(TrxId(2));
        assert_eq!(waiter.join().unwrap(), TxnState::Aborted);
    }

    #[test]
    fn wait_decided_times_out() {
        let t = TxnTable::new();
        t.begin(TrxId(3));
        t.prepare(TrxId(3), 1).unwrap();
        let err = t.wait_decided(TrxId(3), Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }));
    }

    #[test]
    fn try_abort_unvoted_spares_prepared_and_decided() {
        let t = TxnTable::new();
        t.begin(TrxId(1));
        t.prepare(TrxId(1), 5).unwrap();
        assert!(!t.try_abort_unvoted(TrxId(1)), "PREPARED must not be expired");
        t.begin(TrxId(2));
        assert!(t.try_abort_unvoted(TrxId(2)));
        assert_eq!(t.state(TrxId(2)), Some(TxnState::Aborted));
        t.begin(TrxId(3));
        t.commit(TrxId(3), 9).unwrap();
        assert!(!t.try_abort_unvoted(TrxId(3)));
        assert_eq!(t.state(TrxId(3)), Some(TxnState::Committed { commit_ts: 9 }));
        // Never seen: recorded ABORTED, and no later begin re-opens it.
        assert!(t.try_abort_unvoted(TrxId(4)));
        assert!(!t.begin(TrxId(4)));
        assert_eq!(t.state(TrxId(4)), Some(TxnState::Aborted));
        assert!(t.prepare(TrxId(4), 10).is_err());
    }

    #[test]
    fn unstable_flag_gates_until_batch_stability() {
        let t = Arc::new(TxnTable::new());
        t.begin(TrxId(1));
        t.mark_unstable(TrxId(1));
        t.commit(TrxId(1), 10).unwrap();
        assert!(t.is_unstable(TrxId(1)));
        let t2 = Arc::clone(&t);
        let gated = std::thread::spawn(move || {
            t2.wait_stable(TrxId(1), Duration::from_secs(2)).unwrap();
            assert!(!t2.is_unstable(TrxId(1)));
        });
        std::thread::sleep(Duration::from_millis(10));
        t.mark_stable_batch(&[TrxId(1)]);
        gated.join().unwrap();
        assert_eq!(t.state(TrxId(1)), Some(TxnState::Committed { commit_ts: 10 }));
    }

    #[test]
    fn wait_stable_times_out() {
        let t = TxnTable::new();
        t.begin(TrxId(1));
        t.mark_unstable(TrxId(1));
        t.commit(TrxId(1), 10).unwrap();
        let err = t.wait_stable(TrxId(1), Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }));
    }

    #[test]
    fn torn_epoch_demotions() {
        let t = TxnTable::new();
        // Undecided one-phase commit rolls back to ABORTED.
        t.begin(TrxId(1));
        t.mark_unstable(TrxId(1));
        t.commit(TrxId(1), 10).unwrap();
        assert_eq!(t.demote_unstable_to_aborted(TrxId(1)), Some(10));
        assert_eq!(t.state(TrxId(1)), Some(TxnState::Aborted));
        assert!(!t.is_unstable(TrxId(1)));
        // Decided 2PC commit reverts to PREPARED, never aborts.
        t.begin(TrxId(2));
        t.prepare(TrxId(2), 5).unwrap();
        t.mark_unstable(TrxId(2));
        t.commit(TrxId(2), 12).unwrap();
        assert_eq!(t.demote_unstable_to_prepared(TrxId(2), 5), Some(12));
        assert_eq!(t.state(TrxId(2)), Some(TxnState::Prepared { prepare_ts: 5 }));
        // Demoting a stable transaction is a no-op.
        t.begin(TrxId(3));
        t.commit(TrxId(3), 20).unwrap();
        assert_eq!(t.demote_unstable_to_aborted(TrxId(3)), None);
        assert_eq!(t.state(TrxId(3)), Some(TxnState::Committed { commit_ts: 20 }));
    }

    #[test]
    fn begin_leaves_a_known_transaction_as_it_is() {
        let t = TxnTable::new();
        assert!(t.begin(TrxId(1)));
        t.commit(TrxId(1), 1).unwrap();
        assert!(t.begin(TrxId(2)));
        assert!(!t.begin(TrxId(2)), "already ACTIVE");
        t.abort(TrxId(2));
        assert!(!t.begin(TrxId(1)) && !t.begin(TrxId(2)));
        assert_eq!(t.state(TrxId(1)), Some(TxnState::Committed { commit_ts: 1 }));
        assert_eq!(t.state(TrxId(2)), Some(TxnState::Aborted));
    }
}
