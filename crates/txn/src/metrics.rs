//! Chaos observability: counters for retries, duplicate deliveries, and
//! in-doubt resolutions, built on [`polardbx_common::metrics::Counter`].

use polardbx_common::metrics::Counter;

/// Counters shared by coordinators and participants. One instance per node
/// (or per test) — hand the same `Arc` to a [`crate::Coordinator`] via
/// `with_metrics` to aggregate across roles.
#[derive(Debug, Default)]
pub struct TxnMetrics {
    /// Commit-path RPCs retried after a timeout or network error.
    pub rpc_retries: Counter,
    /// In-doubt PREPARED transactions the peers' votes resolved to COMMIT.
    pub in_doubt_commits: Counter,
    /// In-doubt PREPARED transactions the peers' votes resolved to ABORT.
    pub in_doubt_aborts: Counter,
    /// Duplicate Prepare/Commit/Abort deliveries absorbed idempotently.
    pub duplicate_msgs: Counter,
    /// Abandoned ACTIVE transactions expired by the resolver.
    pub expired_active: Counter,
    /// Commits taken down the one-phase `CommitLocal` path (all writes on
    /// one DN — whether by luck or by adaptive placement).
    pub one_phase_commits: Counter,
    /// Commits that paid full 2PC (writes spanned multiple DNs).
    pub two_phase_commits: Counter,
    /// Partition re-homes applied by the adaptive placer.
    pub rehomes_applied: Counter,
}

impl TxnMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> TxnMetrics {
        TxnMetrics::default()
    }

    /// One-line summary for harness output.
    pub fn report(&self) -> String {
        format!(
            "retries={} · in-doubt: commit={} abort={} · dups={} · expired-active={} \
             · 1pc={} 2pc={} rehomes={}",
            self.rpc_retries.get(),
            self.in_doubt_commits.get(),
            self.in_doubt_aborts.get(),
            self.duplicate_msgs.get(),
            self.expired_active.get(),
            self.one_phase_commits.get(),
            self.two_phase_commits.get(),
            self.rehomes_applied.get(),
        )
    }

    /// Fraction of commits that paid 2PC (0.0 when nothing committed).
    pub fn two_phase_fraction(&self) -> f64 {
        let one = self.one_phase_commits.get() as f64;
        let two = self.two_phase_commits.get() as f64;
        if one + two == 0.0 {
            0.0
        } else {
            two / (one + two)
        }
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.rpc_retries.reset();
        self.in_doubt_commits.reset();
        self.in_doubt_aborts.reset();
        self.duplicate_msgs.reset();
        self.expired_active.reset();
        self.one_phase_commits.reset();
        self.two_phase_commits.reset();
        self.rehomes_applied.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_and_reset() {
        let m = TxnMetrics::new();
        m.rpc_retries.add(2);
        m.in_doubt_aborts.inc();
        assert!(m.report().contains("retries=2"));
        assert!(m.report().contains("abort=1"));
        m.reset();
        assert!(m.report().contains("retries=0"));
    }
}
