//! Clock-SI baseline: loosely synchronized physical clocks.
//!
//! Clock-SI (Du et al. \[31\] in the paper) assigns snapshot timestamps from
//! each node's local physical clock. No logical component tracks causality,
//! so a participant whose clock lags the coordinator's must *delay* the
//! request until its own clock passes the snapshot timestamp — the "delay
//! caused by clock skew" §IV cites as its weakness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polardbx_hlc::{Clock, HlcTimestamp, PhysicalClock};

/// A Clock-SI node clock: physical time only, with a configured worst-case
/// skew bound that remote participants must wait out.
pub struct ClockSiClock {
    physical: Arc<dyn PhysicalClock>,
    /// Strictly-increasing floor so `advance` never repeats a timestamp
    /// even within one millisecond.
    last: AtomicU64,
    /// Worst-case cross-node skew in milliseconds.
    max_skew_millis: u64,
}

impl ClockSiClock {
    /// New clock over `physical` with the given worst-case skew bound.
    pub fn new(physical: Arc<dyn PhysicalClock>, max_skew_millis: u64) -> Arc<ClockSiClock> {
        Arc::new(ClockSiClock { physical, last: AtomicU64::new(0), max_skew_millis })
    }
}

impl Clock for ClockSiClock {
    fn now(&self) -> HlcTimestamp {
        let ts = HlcTimestamp::at_pt(self.physical.now_millis()).raw();
        let prev = self.last.fetch_max(ts, Ordering::SeqCst).max(ts);
        HlcTimestamp::from_raw(prev)
    }

    fn advance(&self) -> HlcTimestamp {
        // Physical clocks have millisecond granularity; disambiguate within
        // a millisecond by bumping the (conceptually unused) low bits.
        let ts = HlcTimestamp::at_pt(self.physical.now_millis()).raw();
        let mut cur = self.last.load(Ordering::SeqCst);
        loop {
            let next = if ts > cur { ts } else { cur + 1 };
            match self.last.compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return HlcTimestamp::from_raw(next),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Clock-SI has no causality propagation — that is its defining
    /// weakness; received timestamps are ignored.
    fn update(&self, _seen: HlcTimestamp) {}

    fn causality_wait_millis(&self) -> u64 {
        self.max_skew_millis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{Key, NodeId, TableId, TenantId, TrxId, Value};
    use polardbx_hlc::TestClock;
    use polardbx_simnet::Handler;
    use polardbx_storage::StorageEngine;
    use polardbx_txn::{DnService, TxnMsg};
    use std::time::Duration;

    #[test]
    fn now_tracks_physical_time() {
        let pc = TestClock::at(500);
        let c = ClockSiClock::new(pc.clone(), 5);
        assert_eq!(c.now(), HlcTimestamp::at_pt(500));
        pc.set(600);
        assert_eq!(c.now(), HlcTimestamp::at_pt(600));
    }

    #[test]
    fn advance_unique_within_millisecond() {
        let pc = TestClock::at(500);
        let c = ClockSiClock::new(pc, 5);
        let a = c.advance();
        let b = c.advance();
        assert!(b > a);
    }

    #[test]
    fn update_is_ignored_no_causality() {
        let pc = TestClock::at(500);
        let c = ClockSiClock::new(pc, 5);
        c.update(HlcTimestamp::at_pt(10_000));
        // Unlike HLC, the clock does NOT jump forward.
        assert_eq!(c.now(), HlcTimestamp::at_pt(500));
    }

    #[test]
    fn skew_wait_exposed() {
        let pc = TestClock::at(0);
        let c = ClockSiClock::new(pc, 7);
        assert_eq!(c.causality_wait_millis(), 7);
    }

    #[test]
    fn now_never_regresses() {
        let pc = TestClock::at(1000);
        let c = ClockSiClock::new(pc.clone(), 5);
        let a = c.advance();
        pc.set(900); // physical clock steps backwards (NTP correction)
        let b = c.now();
        assert!(b >= a, "logical floor must prevent regression");
    }

    #[test]
    fn clock_si_participant_waits_out_skew() {
        // Participant's physical clock is 5 ms behind the coordinator's.
        let pc = TestClock::at(1000);
        let clock = ClockSiClock::new(pc.clone(), 50);
        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        let dn = DnService::new(NodeId(1), Arc::clone(&engine), clock);
        // Ticker moves the physical clock forward in real time.
        let pc2 = Arc::clone(&pc);
        let ticker = std::thread::spawn(move || {
            for ms in 1001..=1060 {
                std::thread::sleep(Duration::from_millis(1));
                pc2.set(ms);
            }
        });
        let future_snapshot = HlcTimestamp::at_pt(1010).raw();
        let t0 = std::time::Instant::now();
        let reply = dn.handle(
            NodeId(9),
            TxnMsg::Read {
                trx: TrxId(0),
                snapshot_ts: future_snapshot,
                table: TableId(1),
                key: Key::encode(&[Value::Int(1)]),
            },
        );
        assert!(matches!(reply, TxnMsg::RowResult(None)));
        assert!(
            t0.elapsed() >= Duration::from_millis(5),
            "Clock-SI must delay until local clock passes the snapshot"
        );
        ticker.join().unwrap();
    }
}
