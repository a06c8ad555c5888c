//! The per-node hybrid logical clock and the `Clock` abstraction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::timestamp::HlcTimestamp;

/// Source of physical time in milliseconds. Pluggable so tests can freeze or
/// skew time and so Clock-SI's skew sensitivity can be demonstrated.
pub trait PhysicalClock: Send + Sync {
    /// Current physical time in milliseconds.
    fn now_millis(&self) -> u64;
}

/// Wall-clock physical time.
#[derive(Debug, Default)]
pub struct RealClock;

impl PhysicalClock for RealClock {
    fn now_millis(&self) -> u64 {
        SystemTime::now().duration_since(UNIX_EPOCH).expect("clock before epoch").as_millis()
            as u64
    }
}

/// A manually controlled clock for tests.
#[derive(Debug, Default)]
pub struct TestClock {
    millis: AtomicU64,
}

impl TestClock {
    /// Start at `millis`.
    pub fn at(millis: u64) -> Arc<TestClock> {
        Arc::new(TestClock { millis: AtomicU64::new(millis) })
    }

    /// Set absolute time.
    pub fn set(&self, millis: u64) {
        self.millis.store(millis, Ordering::SeqCst);
    }
}

impl PhysicalClock for TestClock {
    fn now_millis(&self) -> u64 {
        self.millis.load(Ordering::SeqCst)
    }
}

/// Wraps another physical clock with a constant skew (positive or negative
/// milliseconds) — models imperfect NTP sync across nodes, the failure mode
/// that hurts Clock-SI.
pub struct SkewedClock {
    inner: Arc<dyn PhysicalClock>,
    skew_millis: i64,
}

impl SkewedClock {
    /// Wrap `inner` with a constant skew.
    pub fn new(inner: Arc<dyn PhysicalClock>, skew_millis: i64) -> Arc<SkewedClock> {
        Arc::new(SkewedClock { inner, skew_millis })
    }
}

impl PhysicalClock for SkewedClock {
    fn now_millis(&self) -> u64 {
        let base = self.inner.now_millis() as i64;
        (base + self.skew_millis).max(0) as u64
    }
}

/// The timestamp interface the transaction layer programs against.
///
/// `now` = the paper's `ClockNow` (read, no logical increment),
/// `advance` = `ClockAdvance` (allocate a strictly increasing timestamp),
/// `update` = `ClockUpdate` (absorb a timestamp observed from a peer).
/// `causality_wait_millis` is nonzero only for Clock-SI, which must wait out
/// the worst-case skew before using a snapshot remotely.
pub trait Clock: Send + Sync {
    /// Latest timestamp without incrementing the logical part.
    fn now(&self) -> HlcTimestamp;
    /// Next strictly-increasing timestamp.
    fn advance(&self) -> HlcTimestamp;
    /// Absorb an externally observed timestamp (no-op for centralized TSO).
    fn update(&self, seen: HlcTimestamp);
    /// Extra wait (ms) a remote participant must impose before serving a
    /// snapshot from this clock family. Zero for HLC and TSO.
    fn causality_wait_millis(&self) -> u64 {
        0
    }
}

/// A node's hybrid logical clock (§IV "HLC Primitives").
///
/// The whole timestamp lives in one `AtomicU64`; all three primitives are
/// lock-free CAS loops. Two paper optimizations are embedded:
///
/// 1. `now` and `update` never increment `lc`, preserving the 16-bit logical
///    space;
/// 2. `update` is a single max-CAS, so a 2PC coordinator absorbs the max
///    of all participant timestamps (the commit timestamp) with one call.
pub struct Hlc {
    hlc: AtomicU64,
    physical: Arc<dyn PhysicalClock>,
}

impl Hlc {
    /// A clock backed by wall time.
    pub fn new() -> Arc<Hlc> {
        Hlc::with_physical(Arc::new(RealClock))
    }

    /// A clock backed by an arbitrary physical source.
    pub fn with_physical(physical: Arc<dyn PhysicalClock>) -> Arc<Hlc> {
        let start = HlcTimestamp::at_pt(physical.now_millis());
        Arc::new(Hlc { hlc: AtomicU64::new(start.raw()), physical })
    }

    /// Raw value for debugging/tests.
    pub fn peek(&self) -> HlcTimestamp {
        HlcTimestamp::from_raw(self.hlc.load(Ordering::SeqCst))
    }
}

impl Clock for Hlc {
    fn now(&self) -> HlcTimestamp {
        // ClockNow: like advance but without incrementing lc. If physical
        // time has moved past the stored hlc's pt, catch up to it.
        let pt_now = self.physical.now_millis();
        let floor = HlcTimestamp::at_pt(pt_now).raw();
        let mut cur = self.hlc.load(Ordering::SeqCst);
        loop {
            if cur >= floor {
                return HlcTimestamp::from_raw(cur);
            }
            match self.hlc.compare_exchange_weak(cur, floor, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return HlcTimestamp::from_raw(floor),
                Err(actual) => cur = actual,
            }
        }
    }

    fn advance(&self) -> HlcTimestamp {
        // ClockAdvance: increment lc by one; if the local physical clock is
        // ahead, overwrite with it instead.
        let pt_now = self.physical.now_millis();
        let floor = HlcTimestamp::at_pt(pt_now).raw();
        let mut cur = self.hlc.load(Ordering::SeqCst);
        loop {
            let next = if floor > cur { floor } else { cur + 1 };
            match self.hlc.compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return HlcTimestamp::from_raw(next),
                Err(actual) => cur = actual,
            }
        }
    }

    fn update(&self, seen: HlcTimestamp) {
        // ClockUpdate: advance to `seen` if it is ahead; never increments lc.
        self.hlc.fetch_max(seen.raw(), Ordering::SeqCst);
    }
}

/// The difference bound the paper states: after `advance`, the HLC's
/// physical part is at least the node's physical clock (it never falls
/// behind local time).
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_catches_up_to_physical_time() {
        let pc = TestClock::at(1000);
        let hlc = Hlc::with_physical(pc.clone());
        let t1 = hlc.now();
        assert_eq!(t1.pt(), 1000);
        assert_eq!(t1.lc(), 0);
        pc.set(1005);
        let t2 = hlc.now();
        assert_eq!(t2.pt(), 1005);
        // now() does not increment lc.
        assert_eq!(t2.lc(), 0);
        assert!(hlc.now() >= t2, "now is monotone non-decreasing");
    }

    #[test]
    fn advance_is_strictly_increasing() {
        let pc = TestClock::at(1000);
        let hlc = Hlc::with_physical(pc);
        let mut prev = hlc.advance();
        for _ in 0..100 {
            let next = hlc.advance();
            assert!(next > prev);
            prev = next;
        }
        // Frozen physical time => increments land in lc (101 advances total).
        assert_eq!(prev.pt(), 1000);
        assert_eq!(prev.lc(), 101);
    }

    #[test]
    fn advance_overwrites_when_physical_ahead() {
        let pc = TestClock::at(1000);
        let hlc = Hlc::with_physical(pc.clone());
        for _ in 0..10 {
            hlc.advance();
        }
        pc.set(1050);
        let t = hlc.advance();
        assert_eq!(t.pt(), 1050);
        assert_eq!(t.lc(), 0);
    }

    #[test]
    fn update_absorbs_future_timestamps_without_lc_bump() {
        let pc = TestClock::at(1000);
        let hlc = Hlc::with_physical(pc);
        let remote = HlcTimestamp::new(2000, 7);
        hlc.update(remote);
        assert_eq!(hlc.peek(), remote, "update must not increment lc");
        // A stale update is a no-op.
        hlc.update(HlcTimestamp::new(1500, 0));
        assert_eq!(hlc.peek(), remote);
    }

    #[test]
    fn bounded_drift_from_physical_clock() {
        // The paper: "the difference between the two is bounded". With
        // physical time advancing, advance() keeps pt equal to wall time.
        let pc = TestClock::at(0);
        let hlc = Hlc::with_physical(pc.clone());
        for t in 1..100 {
            pc.set(t);
            let ts = hlc.advance();
            assert_eq!(ts.pt(), t);
            assert_eq!(ts.lc(), 0);
        }
    }

    #[test]
    fn concurrent_advances_unique_and_increasing() {
        use std::collections::HashSet;
        let hlc = Hlc::new();
        let mut handles = vec![];
        for _ in 0..8 {
            let hlc = Arc::clone(&hlc);
            handles.push(std::thread::spawn(move || {
                (0..2000).map(|_| hlc.advance().raw()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for ts in h.join().unwrap() {
                assert!(all.insert(ts), "duplicate timestamp from ClockAdvance");
            }
        }
        assert_eq!(all.len(), 16_000);
    }

    #[test]
    fn skewed_clock_applies_offset() {
        let base = TestClock::at(1000);
        let behind = SkewedClock::new(base.clone(), -200);
        assert_eq!(behind.now_millis(), 800);
        let ahead = SkewedClock::new(base.clone(), 300);
        assert_eq!(ahead.now_millis(), 1300);
    }

    #[test]
    fn happens_before_is_tracked_across_nodes() {
        // Message from node A (fast clock) to node B (slow clock): B's next
        // timestamp must exceed the received one — causality.
        let pc_a = TestClock::at(5000);
        let pc_b = TestClock::at(1000);
        let a = Hlc::with_physical(pc_a);
        let b = Hlc::with_physical(pc_b);
        let sent = a.advance();
        b.update(sent);
        let received_then_issued = b.advance();
        assert!(received_then_issued > sent);
    }
}
