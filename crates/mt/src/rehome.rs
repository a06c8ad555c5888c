//! Throttled executor for placement-driven partition re-homes.
//!
//! The adaptive placer (crate `polardbx-placement`) may propose a burst of
//! moves in one pass; applying them back-to-back would stack cutover
//! pauses and violate the Fig 8 non-disruption claim. This executor is the
//! policy layer between plan and mechanism: it spaces moves by a minimum
//! gap (measured with `common::time`, so chaos tests can crank a
//! [`polardbx_common::time::ManualTime`]), caps the number applied per
//! pass, and *skips* — rather than waits for — anything the throttle
//! rejects, leaving it for a later pass when the co-access pattern still
//! warrants it.
//!
//! The executor moves nothing itself: the placer hands it
//! `PolarDbx::rehome_shard_by_id` per move and it gets back the per-move
//! pause, which the report aggregates for the bench's p99-disruption bar.

use std::time::Duration;

use parking_lot::Mutex;
use polardbx_common::time::mono_now;
use polardbx_common::Result;
use polardbx_placement::RehomeMove;

/// Throttle knobs.
#[derive(Debug, Clone, Copy)]
pub struct RehomeConfig {
    /// Minimum spacing between two applied moves.
    pub min_gap: Duration,
    /// Most moves applied in a single [`RehomeExecutor::execute`] pass.
    pub max_per_pass: usize,
}

impl Default for RehomeConfig {
    fn default() -> Self {
        RehomeConfig { min_gap: Duration::from_millis(50), max_per_pass: 4 }
    }
}

/// Outcome of one executor pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RehomeReport {
    /// Moves the plan proposed.
    pub proposed: usize,
    /// Moves actually applied.
    pub applied: usize,
    /// Moves skipped by the min-gap / per-pass throttle.
    pub throttled: usize,
    /// Moves whose cutover returned an error (left in place).
    pub failed: usize,
    /// Longest single-cutover pause observed (disruption bound).
    pub max_pause: Duration,
}

/// Applies planned moves through a cutover callback under the throttle.
/// One instance per cluster; the gap state persists across passes.
pub struct RehomeExecutor {
    cfg: RehomeConfig,
    last_applied: Mutex<Option<Duration>>,
}

impl RehomeExecutor {
    /// Executor with the given throttle.
    pub fn new(cfg: RehomeConfig) -> RehomeExecutor {
        RehomeExecutor { cfg, last_applied: Mutex::new(None) }
    }

    /// Apply `moves` through `cutover`, which performs the actual
    /// freeze/drain/move/unfreeze and returns the traffic pause it caused.
    /// Failed moves are recorded and skipped — the placer will re-propose
    /// them if the pattern persists.
    pub fn execute<F>(&self, moves: &[RehomeMove], mut cutover: F) -> RehomeReport
    where
        F: FnMut(&RehomeMove) -> Result<Duration>,
    {
        let mut report = RehomeReport { proposed: moves.len(), ..RehomeReport::default() };
        for mv in moves {
            if report.applied >= self.cfg.max_per_pass {
                report.throttled += 1;
                continue;
            }
            {
                let last = self.last_applied.lock();
                if let Some(at) = *last {
                    if mono_now() < at + self.cfg.min_gap {
                        report.throttled += 1;
                        continue;
                    }
                }
            }
            match cutover(mv) {
                Ok(pause) => {
                    *self.last_applied.lock() = Some(mono_now());
                    report.applied += 1;
                    report.max_pause = report.max_pause.max(pause);
                }
                Err(_) => report.failed += 1,
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::time::{reset_time_source, set_time_source, ManualTime};
    use polardbx_common::{Error, NodeId};
    use std::sync::Arc;

    fn mv(part: u64) -> RehomeMove {
        RehomeMove { part, from: NodeId(1), to: NodeId(2), weight: 10 }
    }

    #[test]
    fn applies_up_to_the_pass_cap() {
        let ex = RehomeExecutor::new(RehomeConfig {
            min_gap: Duration::ZERO,
            max_per_pass: 2,
        });
        let moves = [mv(1), mv(2), mv(3)];
        let r = ex.execute(&moves, |_| Ok(Duration::from_millis(1)));
        assert_eq!(r.applied, 2);
        assert_eq!(r.throttled, 1);
        assert_eq!(r.max_pause, Duration::from_millis(1));
    }

    #[test]
    fn min_gap_spaces_moves_across_passes() {
        let clock = Arc::new(ManualTime::new());
        set_time_source(Arc::clone(&clock) as _);
        let ex = RehomeExecutor::new(RehomeConfig {
            min_gap: Duration::from_secs(1),
            max_per_pass: 10,
        });
        let moves = [mv(1), mv(2)];
        let r1 = ex.execute(&moves, |_| Ok(Duration::ZERO));
        assert_eq!((r1.applied, r1.throttled), (1, 1), "second move inside the gap");
        let r2 = ex.execute(&moves[1..], |_| Ok(Duration::ZERO));
        assert_eq!(r2.applied, 0, "gap not yet elapsed");
        clock.advance(Duration::from_secs(2));
        let r3 = ex.execute(&moves[1..], |_| Ok(Duration::ZERO));
        assert_eq!(r3.applied, 1);
        reset_time_source();
    }

    #[test]
    fn failures_do_not_consume_the_gap() {
        let ex = RehomeExecutor::new(RehomeConfig {
            min_gap: Duration::from_secs(3600),
            max_per_pass: 10,
        });
        let moves = [mv(1), mv(2)];
        let mut calls = 0;
        let r = ex.execute(&moves, |_| {
            calls += 1;
            if calls == 1 {
                Err(Error::invalid("cutover lost the race"))
            } else {
                Ok(Duration::ZERO)
            }
        });
        assert_eq!(r.failed, 1);
        assert_eq!(r.applied, 1, "a failed move leaves the throttle open");
    }
}
