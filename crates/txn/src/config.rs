//! Tunables for 2PC under an unreliable fabric: coordinator RPC retries and
//! participant-side in-doubt resolution.

use std::time::Duration;

/// Coordinator retry policy for commit-path RPCs (Prepare, CommitLocal).
/// Backoff is exponential, capped, and deliberately
/// jitter-free: under a seeded fault plan the retry schedule must replay
/// identically run to run.
#[derive(Debug, Clone, Copy)]
pub struct TxnConfig {
    /// Total attempts per RPC (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff.
    pub backoff_cap: Duration,
}

impl Default for TxnConfig {
    fn default() -> TxnConfig {
        TxnConfig {
            max_attempts: 5,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl TxnConfig {
    /// Backoff to sleep after the `attempt`-th failure (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        self.backoff_base.saturating_mul(1u32 << exp).min(self.backoff_cap)
    }
}

/// Participant resolver policy: how long a PREPARED transaction may sit
/// undecided before the participant asks its peers for their votes, and
/// how long an ACTIVE transaction may sit idle before it is presumed
/// abandoned (its coordinator died before prepare, so a local abort — a
/// refusal — is always safe).
#[derive(Debug, Clone, Copy)]
pub struct ResolverConfig {
    /// Sweep period of the resolver thread.
    pub interval: Duration,
    /// A PREPARED transaction older than this is in doubt.
    pub in_doubt_after: Duration,
    /// An ACTIVE transaction older than this is abandoned. Must comfortably
    /// exceed the longest legitimate statement-to-prepare gap — including a
    /// transaction a client holds open between statements.
    pub abandon_active_after: Duration,
}

impl Default for ResolverConfig {
    fn default() -> ResolverConfig {
        ResolverConfig {
            interval: Duration::from_millis(25),
            in_doubt_after: Duration::from_millis(100),
            abandon_active_after: Duration::from_secs(60),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let c = TxnConfig {
            max_attempts: 8,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
        };
        assert_eq!(c.backoff(1), Duration::from_millis(2));
        assert_eq!(c.backoff(2), Duration::from_millis(4));
        assert_eq!(c.backoff(3), Duration::from_millis(8));
        assert_eq!(c.backoff(4), Duration::from_millis(10), "capped");
        assert_eq!(c.backoff(30), Duration::from_millis(10), "no overflow");
    }
}
