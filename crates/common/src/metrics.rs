//! Lightweight metrics used by the benchmark harnesses.
//!
//! The figure-reproduction binaries need throughput counters (tpmC, qps),
//! latency histograms (percentiles for sysbench/TPC-H latency) and windowed
//! time series (the tpmC-over-time curves of Fig 9a). Everything here is
//! thread-safe and allocation-light on the hot path.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::time::mono_now;

/// A gauge of work in flight, shared by `Arc`: every [`InFlight::enter`]
/// counts one unit until its guard drops. The CN's running TP jobs and
/// its coordinators raise one together, and the AP governor paces only
/// while it is up.
#[derive(Debug, Clone, Default)]
pub struct InFlight(Arc<AtomicU64>);

/// One unit of work counted by an [`InFlight`] gauge until it drops.
#[derive(Debug)]
pub struct InFlightGuard(Arc<AtomicU64>);

impl InFlight {
    /// A gauge at zero.
    pub fn new() -> InFlight {
        InFlight::default()
    }

    /// Count one unit of work until the returned guard drops.
    pub fn enter(&self) -> InFlightGuard {
        self.0.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(Arc::clone(&self.0))
    }

    /// Is any work in flight?
    pub fn any(&self) -> bool {
        self.0.load(Ordering::Relaxed) > 0
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (between chaos-test phases / bench rounds).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Windowed throughput series: counts events into fixed-width time windows
/// so harnesses can print "tpmC over time" curves (Fig 9a).
#[derive(Debug)]
pub struct ThroughputSeries {
    start: Duration,
    window: Duration,
    counts: Mutex<Vec<u64>>,
}

impl ThroughputSeries {
    /// Start a series with the given window width.
    pub fn new(window: Duration) -> ThroughputSeries {
        ThroughputSeries { start: mono_now(), window, counts: Mutex::new(Vec::new()) }
    }

    /// Record `n` events at "now".
    pub fn record(&self, n: u64) {
        let elapsed = mono_now().saturating_sub(self.start);
        let idx = (elapsed.as_nanos() / self.window.as_nanos()) as usize;
        let mut counts = self.counts.lock();
        if counts.len() <= idx {
            counts.resize(idx + 1, 0);
        }
        counts[idx] += n;
    }

    /// Snapshot of per-window counts.
    pub fn windows(&self) -> Vec<u64> {
        self.counts.lock().clone()
    }
}

// ---- HDR-style latency histogram -------------------------------------

/// Linear sub-buckets per octave: 32 → worst-case relative error 1/32
/// (~3.1%), fine enough to compare tail percentiles across scenarios.
const HDR_SUB_BITS: u32 = 5;
const HDR_SUBS: usize = 1 << HDR_SUB_BITS;
/// Highest representable exponent: values are clamped to < 2^36 µs (~19 h).
const HDR_MAX_EXP: u32 = 35;
const HDR_LEN: usize = (HDR_MAX_EXP as usize - HDR_SUB_BITS as usize + 2) * HDR_SUBS;

/// HDR-style latency histogram: exact below 32 µs, then 32 linear
/// sub-buckets per power of two, for ≤3.1% relative error at any
/// magnitude. Thread-safe, allocation-free after construction. The one
/// latency histogram: group-commit follower waits, the bench drivers and
/// the front door's p50/p99/p999 all record into it.
#[derive(Debug)]
pub struct HdrHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
    min_micros: AtomicU64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

impl HdrHistogram {
    /// New empty histogram.
    pub fn new() -> HdrHistogram {
        HdrHistogram {
            counts: (0..HDR_LEN).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
            min_micros: AtomicU64::new(u64::MAX),
        }
    }

    fn index_of(micros: u64) -> usize {
        if micros < HDR_SUBS as u64 {
            return micros as usize;
        }
        let v = micros.min((1u64 << (HDR_MAX_EXP + 1)) - 1);
        let exp = 63 - v.leading_zeros(); // >= HDR_SUB_BITS
        let sub = ((v >> (exp - HDR_SUB_BITS)) & (HDR_SUBS as u64 - 1)) as usize;
        (exp - HDR_SUB_BITS + 1) as usize * HDR_SUBS + sub
    }

    /// Largest value mapping to bucket `idx` (percentiles report this, so
    /// they never under-estimate).
    fn upper_of(idx: usize) -> u64 {
        if idx < HDR_SUBS {
            return idx as u64;
        }
        let exp = (idx / HDR_SUBS) as u32 + HDR_SUB_BITS - 1;
        let sub = (idx % HDR_SUBS) as u64;
        ((sub + HDR_SUBS as u64 + 1) << (exp - HDR_SUB_BITS)) - 1
    }

    /// Record one latency observation.
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros() as u64);
    }

    /// Record a raw microsecond value.
    pub fn record_micros(&self, micros: u64) {
        self.counts[Self::index_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
        self.min_micros.fetch_min(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        let c = self.count();
        if c == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed) / c)
    }

    /// Maximum observed latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed))
    }

    /// Minimum observed latency (zero when empty).
    pub fn min(&self) -> Duration {
        let v = self.min_micros.load(Ordering::Relaxed);
        if v == u64::MAX { Duration::ZERO } else { Duration::from_micros(v) }
    }

    /// Percentile (0.0..=1.0) with ≤3.1% relative error; the exact max is
    /// returned at the top end.
    pub fn percentile(&self, p: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.counts.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_micros(
                    Self::upper_of(i).min(self.max_micros.load(Ordering::Relaxed)),
                );
            }
        }
        self.max()
    }

    /// Fold another histogram's observations into this one.
    pub fn merge(&self, other: &HdrHistogram) {
        for (i, b) in other.counts.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                self.counts[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_micros.fetch_add(other.sum_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_micros.fetch_max(other.max_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min_micros.fetch_min(other.min_micros.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Reset to empty (between bench phases).
    pub fn reset(&self) {
        for b in &self.counts {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micros.store(0, Ordering::Relaxed);
        self.max_micros.store(0, Ordering::Relaxed);
        self.min_micros.store(u64::MAX, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn hdr_exact_below_32us() {
        let h = HdrHistogram::new();
        for v in 0..32u64 {
            h.record_micros(v);
        }
        for v in 0..32u64 {
            assert_eq!(HdrHistogram::index_of(v), v as usize);
            assert_eq!(HdrHistogram::upper_of(v as usize), v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.max(), Duration::from_micros(31));
    }

    #[test]
    fn hdr_relative_error_bounded() {
        // Every representable magnitude maps to a bucket whose upper bound
        // overestimates by at most 1/32 (the HDR guarantee).
        let mut v = 1u64;
        while v < 1 << 35 {
            for off in [0u64, 1, v / 3, v / 2, v - 1] {
                let x = v + off;
                let idx = HdrHistogram::index_of(x);
                let upper = HdrHistogram::upper_of(idx);
                assert!(upper >= x, "upper {upper} < value {x}");
                let err = (upper - x) as f64 / x as f64;
                assert!(err <= 1.0 / 32.0 + 1e-9, "error {err} at {x}");
            }
            v <<= 1;
        }
        // Clamped top end never panics.
        assert!(HdrHistogram::index_of(u64::MAX) < HDR_LEN);
    }

    #[test]
    fn hdr_percentiles_and_merge() {
        let a = HdrHistogram::new();
        let b = HdrHistogram::new();
        for i in 1..=900u64 {
            a.record(Duration::from_micros(i));
        }
        for i in 901..=1000u64 {
            b.record(Duration::from_micros(i * 10));
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.percentile(0.5).as_micros() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
        let p999 = a.percentile(0.999);
        assert!(p999 >= Duration::from_micros(9500), "p999 {p999:?}");
        assert!(a.percentile(0.5) <= a.percentile(0.99));
        assert!(a.percentile(0.99) <= a.percentile(0.999));
        assert!(a.percentile(1.0) <= a.max());
        a.reset();
        assert_eq!(a.count(), 0);
        assert_eq!(a.percentile(0.999), Duration::ZERO);
    }

    #[test]
    fn throughput_series_windows() {
        let s = ThroughputSeries::new(Duration::from_millis(10));
        s.record(5);
        std::thread::sleep(Duration::from_millis(25));
        s.record(3);
        let w = s.windows();
        assert!(w.len() >= 2);
        assert_eq!(w.iter().sum::<u64>(), 8);
    }
}
