//! Front-door tenant metadata.
//!
//! The SQL front door admits queries per tenant: every wire connection
//! handshakes with a tenant id, and the admission controller enforces that
//! tenant's quotas (token-bucket rate limit, concurrent-query cap,
//! connection cap). The quotas live in the GMS tenant catalog — the
//! control plane owns them, the front door only reads them — so they are
//! defined here in `common`, below both crates in the dependency graph.

use crate::TenantId;

/// Admission-control quotas for one tenant.
///
/// A query is admitted when the tenant's token bucket holds at least one
/// token *and* its in-flight query count is below `max_concurrent`;
/// otherwise it bounces with a retryable `Throttled` error — the front
/// door never queues unboundedly on behalf of a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuotas {
    /// Token-bucket refill rate: sustained queries per second.
    pub rate_per_sec: f64,
    /// Token-bucket depth: how large a burst is absorbed before rate
    /// limiting kicks in.
    pub burst: f64,
    /// Maximum in-flight queries; the N+1st bounces retryably.
    pub max_concurrent: u32,
    /// Maximum concurrent wire connections.
    pub max_connections: u32,
}

impl TenantQuotas {
    /// Quotas that never throttle (system tenants, benchmark drivers
    /// measuring the un-throttled path).
    pub fn unlimited() -> TenantQuotas {
        TenantQuotas {
            rate_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
            max_concurrent: u32::MAX,
            max_connections: u32::MAX,
        }
    }

    /// Rate-limited quotas with a burst allowance.
    pub fn rate_limited(rate_per_sec: f64, burst: f64) -> TenantQuotas {
        TenantQuotas { rate_per_sec, burst, ..TenantQuotas::unlimited() }
    }
}

impl Default for TenantQuotas {
    fn default() -> TenantQuotas {
        TenantQuotas::unlimited()
    }
}

/// One tenant catalog entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMeta {
    /// Stable tenant id (the wire handshake carries its raw value).
    pub id: TenantId,
    /// Human-readable name.
    pub name: String,
    /// Admission quotas.
    pub quotas: TenantQuotas,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limited_caps_only_the_rate() {
        let q = TenantQuotas::rate_limited(100.0, 10.0);
        assert_eq!(q.rate_per_sec, 100.0);
        assert_eq!(q.burst, 10.0);
        assert_eq!(q.max_concurrent, u32::MAX);
        assert_eq!(q.max_connections, u32::MAX);
        let u = TenantQuotas::unlimited();
        assert!(u.rate_per_sec.is_infinite());
        assert_eq!(u.max_concurrent, u32::MAX);
    }
}
