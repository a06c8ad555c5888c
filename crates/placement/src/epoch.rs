//! Routing epochs and commit gates: the fence that keeps a live-traffic
//! cutover from split-braining between a partition's old and new home.
//!
//! Every shard table carries a monotonically increasing *routing epoch*.
//! A driver that routes a statement captures the epoch alongside the DN
//! and pins it on the transaction; at commit the coordinator calls
//! [`EpochMap::enter_commit`] for each pinned shard, which
//!
//! * fails (retryably) if the shard is frozen or its epoch moved — the
//!   transaction was routed against a stale map and must retry against the
//!   new home, and
//! * otherwise takes a *commit gate* held (RAII) until the commit's writes
//!   are fully handed to the fabric.
//!
//! A cutover calls [`EpochMap::freeze`]: new commits start bouncing, the
//!   epoch bumps so pinned in-flight transactions bounce too, and
//! [`EpochMap::drain`] waits for already-entered commits to finish. Only
//! then may data move. [`EpochMap::unfreeze`] reopens the shard (routes now
//! resolve to the new home at the new epoch).
//!
//! The gate protects the *commit decision*, not delivery: phase-two
//! `Commit` messages are posted asynchronously, so the cluster layer must
//! additionally drain per-engine in-flight state after the gate drains —
//! see `PolarDbx::rehome_shard_by_id`.

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use polardbx_common::time::mono_now;
use polardbx_common::{Error, Result, TableId};
use polardbx_txn::{CommitGuard, RoutingFence};

/// Epochs start here so a forgotten pin (0) can never validate.
const FIRST_EPOCH: u64 = 1;

#[derive(Debug)]
struct ShardGate {
    epoch: AtomicU64,
    committing: Arc<AtomicU64>,
    frozen: AtomicBool,
}

impl ShardGate {
    fn new() -> ShardGate {
        ShardGate {
            epoch: AtomicU64::new(FIRST_EPOCH),
            committing: Arc::new(AtomicU64::new(0)),
            frozen: AtomicBool::new(false),
        }
    }
}

/// The cluster-wide routing-epoch table. Shared (behind an `Arc`) between
/// the placement map, every coordinator (as its [`RoutingFence`]), and the
/// re-home executor.
#[derive(Default)]
pub struct EpochMap {
    gates: RwLock<HashMap<TableId, Arc<ShardGate>>>,
}

impl EpochMap {
    /// Empty map; gates materialize on first touch at [`FIRST_EPOCH`].
    pub fn new() -> EpochMap {
        EpochMap::default()
    }

    fn gate(&self, table: TableId) -> Arc<ShardGate> {
        if let Some(g) = self.gates.read().get(&table) {
            return Arc::clone(g);
        }
        let mut w = self.gates.write();
        Arc::clone(w.entry(table).or_insert_with(|| Arc::new(ShardGate::new())))
    }

    /// Freeze `table` for cutover: commits start bouncing retryably and the
    /// epoch bumps so stale-pinned transactions bounce as well. Returns the
    /// *new* epoch. Idempotent only in effect — each call bumps the epoch.
    pub fn freeze(&self, table: TableId) -> u64 {
        let gate = self.gate(table);
        gate.frozen.store(true, Ordering::SeqCst);
        let next = gate.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // Pair with the fence in `enter_commit`: any commit that entered
        // the gate before this point is visible to `drain`; any commit
        // that enters after sees `frozen` and bails.
        fence(Ordering::SeqCst);
        next
    }

    /// Wait until no commit holds the gate. Call after [`freeze`]; returns
    /// false on timeout (a stuck commit — the cutover must back off and
    /// unfreeze).
    pub fn drain(&self, table: TableId, timeout: Duration) -> bool {
        let gate = self.gate(table);
        let deadline = mono_now() + timeout;
        while gate.committing.load(Ordering::SeqCst) != 0 {
            if mono_now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Reopen `table` after cutover (routes now resolve to the new home).
    pub fn unfreeze(&self, table: TableId) {
        self.gate(table).frozen.store(false, Ordering::SeqCst);
    }

    /// Is `table` currently frozen for cutover? Routing layers use this to
    /// bounce statements retryably instead of sending them to a home that
    /// is mid-move.
    pub fn is_frozen(&self, table: TableId) -> bool {
        if let Some(g) = self.gates.read().get(&table) {
            return g.frozen.load(Ordering::SeqCst);
        }
        false
    }
}

impl RoutingFence for EpochMap {
    fn epoch_of(&self, table: TableId) -> u64 {
        self.gate(table).epoch.load(Ordering::SeqCst)
    }

    fn enter_commit(&self, table: TableId, captured: u64) -> Result<CommitGuard> {
        let gate = self.gate(table);
        // Take the gate *first*, then re-check: pairs with the SeqCst
        // store+fence+load in `freeze`/`drain` so that either the freeze
        // sees this holder, or this holder sees the freeze.
        let guard = CommitGuard::holding(Arc::clone(&gate.committing));
        fence(Ordering::SeqCst);
        if gate.frozen.load(Ordering::SeqCst) {
            drop(guard);
            return Err(Error::Throttled { rule: format!("rehome-freeze:{table}") });
        }
        if gate.epoch.load(Ordering::SeqCst) != captured {
            drop(guard);
            return Err(Error::Throttled { rule: format!("routing-epoch-moved:{table}") });
        }
        Ok(guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(42);

    #[test]
    fn fresh_shard_admits_current_epoch() {
        let m = EpochMap::new();
        let e = m.epoch_of(T);
        assert_eq!(e, FIRST_EPOCH);
        let g = m.enter_commit(T, e).unwrap();
        drop(g);
        assert!(m.drain(T, Duration::from_millis(100)));
    }

    #[test]
    fn zero_pin_never_validates() {
        let m = EpochMap::new();
        assert!(m.enter_commit(T, 0).is_err());
    }

    #[test]
    fn freeze_bounces_commits_retryably() {
        let m = EpochMap::new();
        let e = m.epoch_of(T);
        m.freeze(T);
        let err = m.enter_commit(T, e).unwrap_err();
        assert!(err.is_retryable());
        m.unfreeze(T);
        // The old epoch stays invalid after unfreeze: routing must re-read.
        assert!(m.enter_commit(T, e).is_err());
        let e2 = m.epoch_of(T);
        assert!(m.enter_commit(T, e2).is_ok());
    }

    #[test]
    fn drain_waits_for_holders() {
        let m = Arc::new(EpochMap::new());
        let e = m.epoch_of(T);
        let guard = m.enter_commit(T, e).unwrap();
        m.freeze(T);
        assert!(!m.drain(T, Duration::from_millis(20)), "holder blocks drain");
        drop(guard);
        assert!(m.drain(T, Duration::from_secs(1)));
        m.unfreeze(T);
    }

    #[test]
    fn freeze_bumps_epoch() {
        let m = EpochMap::new();
        let e1 = m.epoch_of(T);
        m.freeze(T);
        m.unfreeze(T);
        assert_eq!(m.epoch_of(T), e1 + 1);
    }

    #[test]
    fn concurrent_freeze_and_commits_never_split_brain() {
        // Hammer enter_commit from many threads while freezing/unfreezing;
        // after every drain-success the gate must truly be empty.
        let m = Arc::new(EpochMap::new());
        let stop = Arc::new(AtomicBool::new(false));
        let committed_while_frozen = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let e = m.epoch_of(T);
                    if let Ok(g) = m.enter_commit(T, e) {
                        std::hint::spin_loop();
                        drop(g);
                    }
                }
            }));
        }
        for _ in 0..50 {
            m.freeze(T);
            assert!(m.drain(T, Duration::from_secs(5)));
            // Gate drained and frozen: nobody may enter now.
            let e = m.epoch_of(T);
            if m.enter_commit(T, e).is_ok() {
                committed_while_frozen.fetch_add(1, Ordering::Relaxed);
            }
            m.unfreeze(T);
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(committed_while_frozen.load(Ordering::Relaxed), 0);
    }
}
