//! Per-tenant admission control.
//!
//! Every query entering the front door passes two gates for its tenant:
//!
//! 1. a **token bucket** (`rate_per_sec` refill, `burst` depth) — the
//!    sustained-rate limit, and
//! 2. a **concurrent-query quota** (`max_concurrent`) — the in-flight cap.
//!
//! Either gate bounces the request with a retryable
//! [`Error::Throttled`] instead of queueing it: unbounded server-side
//! queues convert overload into tail-latency collapse for *every* tenant,
//! while a bounce pushes the wait to the offending client. This is the
//! cluster's one admission step; an embedded `Session` is admitted by
//! nothing. (§VIII of the paper also limits anomalous query fingerprints
//! in the CN; the reproduction does not model that throttle.)
//!
//! Connections hold a [`ConnPermit`] and queries a [`QueryPermit`]; both
//! release on `Drop`, so an abrupt disconnect can never leak quota — the
//! connection handler's stack unwinds, the permits drop, the counters
//! return.
//!
//! The unit tests drive the bucket with a hand-cranked clock of their own
//! instead of sleeping; the product build reads `mono_now`.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx_common::time::mono_now;
use polardbx_common::{Error, Result, TenantId, TenantQuotas};

/// Token-bucket state (guarded; the arithmetic is a handful of flops).
struct Bucket {
    tokens: f64,
    last_refill: Duration,
    quotas: TenantQuotas,
}

/// Per-tenant admission state.
struct TenantState {
    bucket: Mutex<Bucket>,
    in_flight: AtomicU32,
    connections: AtomicU32,
}

/// The front door's admission controller.
pub struct AdmissionControl {
    tenants: RwLock<HashMap<TenantId, Arc<TenantState>>>,
    /// The unit tests' hand-cranked clock; `None` reads
    /// [`polardbx_common::time::mono_now`]. The product build has no
    /// such field and reads `mono_now` directly.
    #[cfg(test)]
    time: Option<Arc<tests::FakeClock>>,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl::new()
    }
}

impl AdmissionControl {
    /// Controller on the process monotonic clock.
    pub fn new() -> AdmissionControl {
        AdmissionControl {
            tenants: RwLock::new(HashMap::new()),
            #[cfg(test)]
            time: None,
        }
    }

    /// Controller on a hand-cranked clock (deterministic bucket tests).
    #[cfg(test)]
    fn with_time(time: Arc<tests::FakeClock>) -> AdmissionControl {
        AdmissionControl { tenants: RwLock::new(HashMap::new()), time: Some(time) }
    }

    #[cfg(not(test))]
    fn now(&self) -> Duration {
        mono_now()
    }

    #[cfg(test)]
    fn now(&self) -> Duration {
        match &self.time {
            Some(t) => t.now(),
            None => mono_now(),
        }
    }

    /// Install (or refresh) a tenant's quotas. Called at handshake with
    /// the quotas read from the GMS tenant catalog; a refreshed bucket
    /// keeps its current fill so re-connects don't reset rate limiting.
    pub fn register(&self, tenant: TenantId, quotas: TenantQuotas) {
        let mut tenants = self.tenants.write();
        match tenants.get(&tenant) {
            Some(state) => {
                let mut b = state.bucket.lock();
                // Shrinking the burst clamps accumulated credit.
                b.tokens = b.tokens.min(quotas.burst);
                b.quotas = quotas;
            }
            None => {
                let state = Arc::new(TenantState {
                    bucket: Mutex::new(Bucket {
                        // Buckets start full: a fresh tenant gets its burst.
                        tokens: quotas.burst,
                        last_refill: self.now(),
                        quotas,
                    }),
                    in_flight: AtomicU32::new(0),
                    connections: AtomicU32::new(0),
                });
                tenants.insert(tenant, state);
            }
        }
    }

    fn state(&self, tenant: TenantId) -> Result<Arc<TenantState>> {
        self.tenants
            .read()
            .get(&tenant)
            .cloned()
            .ok_or_else(|| Error::invalid(format!("unregistered tenant {tenant}")))
    }

    /// Open a connection for `tenant`; the permit's drop closes it.
    pub fn connect(&self, tenant: TenantId) -> Result<ConnPermit> {
        let state = self.state(tenant)?;
        let cap = state.bucket.lock().quotas.max_connections;
        let cur = state.connections.fetch_add(1, Ordering::Relaxed) + 1;
        if cur > cap {
            state.connections.fetch_sub(1, Ordering::Relaxed);
            return Err(Error::Throttled { rule: format!("tenant-connections:{tenant}") });
        }
        Ok(ConnPermit { state })
    }

    /// Admit one query for `tenant`; the permit's drop releases the
    /// concurrency slot. Bounces with a retryable [`Error::Throttled`]
    /// when the token bucket is empty or the in-flight quota is full.
    pub fn admit(&self, tenant: TenantId) -> Result<QueryPermit> {
        let state = self.state(tenant)?;
        let now = self.now();
        {
            let mut b = state.bucket.lock();
            let dt = now.saturating_sub(b.last_refill).as_secs_f64();
            b.tokens = (b.tokens + dt * b.quotas.rate_per_sec).min(b.quotas.burst);
            b.last_refill = now;
            if b.tokens < 1.0 {
                return Err(Error::Throttled { rule: format!("tenant-rate:{tenant}") });
            }
            b.tokens -= 1.0;
            let cur = state.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            if cur > b.quotas.max_concurrent {
                state.in_flight.fetch_sub(1, Ordering::Relaxed);
                // Refund the token: the query never ran.
                b.tokens += 1.0;
                return Err(Error::Throttled { rule: format!("tenant-quota:{tenant}") });
            }
        }
        Ok(QueryPermit { state })
    }
}

/// Holds one of a tenant's connection slots; drop releases it.
pub struct ConnPermit {
    state: Arc<TenantState>,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.state.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Holds one of a tenant's in-flight query slots; drop releases it.
pub struct QueryPermit {
    state: Arc<TenantState>,
}

impl std::fmt::Debug for QueryPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueryPermit")
    }
}

impl Drop for QueryPermit {
    fn drop(&mut self) {
        self.state.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A clock that moves only when a test advances it.
    #[derive(Default)]
    pub(super) struct FakeClock(AtomicU64);

    impl FakeClock {
        pub(super) fn now(&self) -> Duration {
            Duration::from_nanos(self.0.load(Ordering::SeqCst))
        }

        fn advance(&self, d: Duration) {
            self.0.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
        }
    }

    fn controller() -> (Arc<FakeClock>, AdmissionControl) {
        let clock = Arc::new(FakeClock::default());
        let ac = AdmissionControl::with_time(Arc::clone(&clock));
        (clock, ac)
    }

    /// A tenant's (in-flight queries, open connections).
    fn held(ac: &AdmissionControl, t: TenantId) -> (u32, u32) {
        let s = ac.state(t).unwrap();
        (s.in_flight.load(Ordering::Relaxed), s.connections.load(Ordering::Relaxed))
    }

    #[test]
    fn token_bucket_rate_limits_and_refills() {
        let (clock, ac) = controller();
        let t = TenantId(1);
        ac.register(t, TenantQuotas::rate_limited(10.0, 3.0));
        let (mut admitted, mut throttled) = (0, 0);
        let mut admit = |want: bool| {
            let got = ac.admit(t);
            assert_eq!(got.is_ok(), want, "{got:?}");
            if let Err(err) = got {
                assert!(err.is_retryable(), "rate bounce must be retryable: {err:?}");
                assert!(matches!(err, Error::Throttled { ref rule } if rule.contains("tenant-rate")));
                throttled += 1;
            } else {
                admitted += 1;
            }
        };
        // Burst of 3 admitted, 4th bounced.
        (0..3).for_each(|_| admit(true));
        admit(false);
        // 100 ms at 10/s refills one token.
        clock.advance(Duration::from_millis(100));
        admit(true);
        admit(false);
        // Refill never exceeds the burst depth.
        clock.advance(Duration::from_secs(60));
        (0..3).for_each(|_| admit(true));
        admit(false);
        assert_eq!((admitted, throttled), (7, 3));
    }

    #[test]
    fn concurrency_quota_bounces_and_releases() {
        let (_clock, ac) = controller();
        let t = TenantId(2);
        ac.register(t, TenantQuotas { max_concurrent: 2, ..TenantQuotas::unlimited() });
        let a = ac.admit(t).unwrap();
        let _b = ac.admit(t).unwrap();
        let err = ac.admit(t).unwrap_err();
        assert!(matches!(err, Error::Throttled { ref rule } if rule.contains("tenant-quota")));
        assert_eq!(held(&ac, t).0, 2);
        drop(a);
        assert_eq!(held(&ac, t).0, 1);
        let _c = ac.admit(t).expect("slot released by drop");
    }

    #[test]
    fn connection_cap_bounces_and_releases() {
        let (_clock, ac) = controller();
        let t = TenantId(3);
        ac.register(t, TenantQuotas { max_connections: 1, ..TenantQuotas::unlimited() });
        let c1 = ac.connect(t).unwrap();
        let err = ac.connect(t).err().expect("the cap bounces a second connection");
        assert!(matches!(err, Error::Throttled { ref rule } if rule.contains("tenant-connections")));
        drop(c1);
        let _c2 = ac.connect(t).expect("slot released");
        assert_eq!(held(&ac, t).1, 1);
    }

    #[test]
    fn one_tenant_cannot_starve_another() {
        let (_clock, ac) = controller();
        let hot = TenantId(4);
        let quiet = TenantId(5);
        ac.register(hot, TenantQuotas::rate_limited(5.0, 2.0));
        ac.register(quiet, TenantQuotas::unlimited());
        // Hot exhausts its bucket…
        let burst = std::iter::from_fn(|| ac.admit(hot).ok()).count();
        assert_eq!(burst, 2, "the hot tenant gets its burst, then a bounce");
        // …and the quiet tenant is entirely unaffected.
        for _ in 0..1000 {
            ac.admit(quiet).expect("quiet tenant admitted");
        }
    }

    #[test]
    fn quota_refresh_clamps_credit() {
        let (_clock, ac) = controller();
        let t = TenantId(6);
        ac.register(t, TenantQuotas::rate_limited(1.0, 100.0));
        // Re-register with a smaller burst: accumulated credit clamps.
        ac.register(t, TenantQuotas::rate_limited(1.0, 2.0));
        assert!(ac.admit(t).is_ok());
        assert!(ac.admit(t).is_ok());
        assert!(ac.admit(t).is_err(), "credit above the new burst was clamped");
    }

    #[test]
    fn unregistered_tenant_is_a_typed_error() {
        let (_clock, ac) = controller();
        assert!(ac.admit(TenantId(99)).is_err());
        assert!(ac.connect(TenantId(99)).is_err());
    }
}
