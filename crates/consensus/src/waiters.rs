//! Asynchronous-commit waiter registry (§III "Asynchronous Commit").
//!
//! "After the foreground thread invokes Paxos to send redo log entries to
//! the followers, it stores the transaction's context in a map data
//! structure and then proceeds to process other transactions. A new
//! `async_log_committer` thread … iterates the map to find a list of
//! transactions whose last MTR's LSN exceeds DLSN … commits them and
//! returns the results to the client."
//!
//! Here the "context" is a channel the foreground thread blocks on (or
//! polls); `advance(dlsn)` plays the role of the committer thread's sweep.

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;

use polardbx_common::{Error, Lsn, Result};

/// Registry of transactions awaiting durability of their last MTR.
#[derive(Default)]
pub struct CommitWaiters {
    // BTreeMap so a DLSN advance drains exactly the ready prefix.
    map: Mutex<BTreeMap<Lsn, Vec<Sender<CommitOutcome>>>>,
    /// Completed-through mark: waits at or below complete immediately.
    durable: Mutex<Lsn>,
}

/// What the committer tells a waiting transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The LSN is durable on a majority; the transaction may commit.
    Durable,
    /// Leadership was lost; the log tail may be truncated — abort.
    LeadershipLost,
}

impl CommitWaiters {
    /// Empty registry.
    pub fn new() -> CommitWaiters {
        CommitWaiters::default()
    }

    /// Register interest in `lsn` becoming durable. Returns a receiver the
    /// foreground thread can block on. If `lsn` is already durable the
    /// receiver is immediately ready.
    pub fn register(&self, lsn: Lsn) -> Receiver<CommitOutcome> {
        let (tx, rx) = bounded(1);
        if *self.durable.lock() >= lsn {
            let _ = tx.send(CommitOutcome::Durable);
            return rx;
        }
        self.map.lock().entry(lsn).or_default().push(tx);
        // Double-check: DLSN may have advanced between the check and insert.
        // Copy the mark out first — `self.advance(*self.durable.lock())`
        // would hold the guard (argument temporaries live to the end of
        // the statement) across advance(), which re-locks `durable`:
        // a self-deadlock on the race path. polarlint's lockdep witness
        // catches exactly this shape at runtime.
        let durable_now = *self.durable.lock();
        if durable_now >= lsn {
            self.advance(durable_now);
        }
        rx
    }

    /// DLSN advanced to `dlsn`: complete every waiter at or below it.
    pub fn advance(&self, dlsn: Lsn) {
        {
            let mut d = self.durable.lock();
            if *d < dlsn {
                *d = dlsn;
            }
        }
        let ready: Vec<(Lsn, Vec<Sender<CommitOutcome>>)> = {
            let mut map = self.map.lock();
            let keep = map.split_off(&Lsn(dlsn.raw() + 1));
            std::mem::replace(&mut *map, keep).into_iter().collect()
        };
        for (_, senders) in ready {
            for tx in senders {
                let _ = tx.send(CommitOutcome::Durable);
            }
        }
    }

    /// Leadership lost: fail everything still waiting.
    pub fn fail_all(&self) {
        let all: Vec<_> = std::mem::take(&mut *self.map.lock()).into_iter().collect();
        for (_, senders) in all {
            for tx in senders {
                let _ = tx.send(CommitOutcome::LeadershipLost);
            }
        }
    }

    /// Convenience: block until `lsn` durable or `timeout`.
    pub fn wait(&self, lsn: Lsn, timeout: Duration) -> Result<()> {
        let rx = self.register(lsn);
        match rx.recv_timeout(timeout) {
            Ok(CommitOutcome::Durable) => Ok(()),
            Ok(CommitOutcome::LeadershipLost) => {
                Err(Error::LeaseLost { holder: 0 })
            }
            Err(_) => Err(Error::Timeout { what: format!("durability of {lsn}") }),
        }
    }

    /// Number of transactions parked.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.map.lock().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn waiter_completes_on_advance() {
        let w = CommitWaiters::new();
        let rx = w.register(Lsn(100));
        assert!(rx.try_recv().is_err());
        w.advance(Lsn(99));
        assert!(rx.try_recv().is_err(), "99 < 100 must not complete");
        w.advance(Lsn(100));
        assert_eq!(rx.recv().unwrap(), CommitOutcome::Durable);
    }

    #[test]
    fn already_durable_completes_immediately() {
        let w = CommitWaiters::new();
        w.advance(Lsn(500));
        let rx = w.register(Lsn(200));
        assert_eq!(rx.try_recv().unwrap(), CommitOutcome::Durable);
    }

    #[test]
    fn advance_drains_prefix_only() {
        let w = CommitWaiters::new();
        let a = w.register(Lsn(10));
        let b = w.register(Lsn(20));
        let c = w.register(Lsn(30));
        w.advance(Lsn(20));
        assert_eq!(a.try_recv().unwrap(), CommitOutcome::Durable);
        assert_eq!(b.try_recv().unwrap(), CommitOutcome::Durable);
        assert!(c.try_recv().is_err());
        assert_eq!(w.pending(), 1);
    }

    #[test]
    fn fail_all_aborts_waiters() {
        let w = CommitWaiters::new();
        let rx = w.register(Lsn(10));
        w.fail_all();
        assert_eq!(rx.recv().unwrap(), CommitOutcome::LeadershipLost);
    }

    #[test]
    fn wait_timeout() {
        let w = CommitWaiters::new();
        let err = w.wait(Lsn(10), Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }));
    }

    /// Regression: register()'s double-check path used to call
    /// `self.advance(*self.durable.lock())`, holding the `durable` guard
    /// across advance()'s own `durable.lock()` — a self-deadlock whenever
    /// the DLSN advanced between the fast-path check and the map insert.
    /// Hammering register/advance from both sides exercises that window;
    /// with the lockdep witness enabled the old code aborts on the
    /// recursive acquisition instead of hanging.
    #[test]
    fn register_races_advance_without_deadlock() {
        for round in 0..16u64 {
            let w = Arc::new(CommitWaiters::new());
            let adv = {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for lsn in 1..=400u64 {
                        w.advance(Lsn(lsn));
                    }
                })
            };
            let mut regs = vec![];
            for t in 0..2u64 {
                let w = Arc::clone(&w);
                regs.push(std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let lsn = Lsn((round * 13 + t * 7 + i) % 400 + 1);
                        let _rx = w.register(lsn);
                    }
                }));
            }
            adv.join().unwrap();
            for r in regs {
                r.join().unwrap();
            }
            // Everything at or below the final DLSN must have drained.
            w.advance(Lsn(400));
            assert_eq!(w.pending(), 0);
        }
    }

    #[test]
    fn many_threads_wait_one_committer() {
        let w = Arc::new(CommitWaiters::new());
        let mut handles = vec![];
        for i in 1..=32u64 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                w.wait(Lsn(i * 10), Duration::from_secs(5))
            }));
        }
        // Committer thread advances in steps, like DLSN does.
        let committer = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || {
                for step in 1..=8u64 {
                    std::thread::sleep(Duration::from_millis(2));
                    w.advance(Lsn(step * 40));
                }
            })
        };
        for h in handles {
            h.join().unwrap().unwrap();
        }
        committer.join().unwrap();
        assert_eq!(w.pending(), 0);
    }
}
