//! Automated traffic control (§VIII).
//!
//! "PolarDB-X … uses \[an\] obtained model to perform anomaly detection on
//! real-time telemetry data. When an anomaly is detected, PolarDB-X
//! performs an analysis of running transactions … finds the problematic
//! queries that consume the most resources, and then limits the maximum
//! allowable concurrency of them."
//!
//! The reproduction keeps per-fingerprint concurrency telemetry, detects
//! anomalies as concurrency surging far beyond a trained baseline (the
//! "cache penetration" pattern), and throttles the offending fingerprint.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use polardbx_common::{Error, Result};

/// Normalized query fingerprint: literals stripped, case folded. Queries
/// differing only in constants share a fingerprint.
pub fn fingerprint(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                // Skip string literal.
                for c2 in chars.by_ref() {
                    if c2 == '\'' {
                        break;
                    }
                }
                out.push('?');
            }
            '0'..='9' => {
                while chars.peek().is_some_and(|c| c.is_ascii_digit() || *c == '.') {
                    chars.next();
                }
                out.push('?');
            }
            c if c.is_whitespace() => {
                if !out.ends_with(' ') {
                    out.push(' ');
                }
            }
            c => out.push(c.to_ascii_lowercase()),
        }
    }
    out.trim().to_string()
}

#[derive(Debug, Default, Clone)]
struct FingerprintStats {
    /// Current in-flight executions.
    current: u64,
    /// Trained baseline concurrency (EWMA of observed peaks).
    baseline: f64,
    /// Enforced limit, if throttled.
    limit: Option<u64>,
    /// Total admissions.
    total: u64,
    /// Total rejections.
    rejected: u64,
}

/// The traffic controller.
pub struct TrafficControl {
    stats: Mutex<HashMap<String, FingerprintStats>>,
    /// Multiplier over baseline that counts as an anomaly.
    anomaly_factor: f64,
    /// Auto-throttle on detection.
    auto: AtomicBool,
}

impl TrafficControl {
    /// A controller with the default anomaly threshold (8× baseline).
    pub fn new() -> TrafficControl {
        TrafficControl {
            stats: Mutex::new(HashMap::new()),
            anomaly_factor: 8.0,
            auto: AtomicBool::new(false),
        }
    }

    /// Enable automatic throttling on anomaly detection.
    pub fn set_auto(&self, enabled: bool) {
        self.auto.store(enabled, Ordering::Relaxed);
    }

    /// Manually limit a fingerprint's concurrency (DBA override).
    pub fn limit(&self, fp: &str, max_concurrency: u64) {
        self.stats.lock().entry(fp.to_string()).or_default().limit = Some(max_concurrency);
    }

    /// Remove a limit.
    pub fn unlimit(&self, fp: &str) {
        if let Some(s) = self.stats.lock().get_mut(fp) {
            s.limit = None;
        }
    }

    /// Admit a query; returns a permit whose drop releases the slot.
    pub fn admit(self: &TrafficControl, sql: &str) -> Result<Permit<'_>> {
        let fp = fingerprint(sql);
        let auto = self.auto.load(Ordering::Relaxed);
        let mut stats = self.stats.lock();
        let entry = stats.entry(fp.clone()).or_default();
        if let Some(limit) = entry.limit {
            if entry.current >= limit {
                entry.rejected += 1;
                return Err(Error::Throttled { rule: fp });
            }
        } else if auto
            && entry.baseline >= 0.5
            && (entry.current as f64) >= entry.baseline * self.anomaly_factor
        {
            // Anomaly: concurrency surged far beyond the trained baseline.
            // Clamp this fingerprint at the anomaly threshold.
            entry.limit = Some((entry.baseline * self.anomaly_factor) as u64);
            entry.rejected += 1;
            return Err(Error::Throttled { rule: fp });
        }
        entry.current += 1;
        entry.total += 1;
        // Online training: a slow EWMA of observed concurrency. The slow
        // constant matters: an anomalous surge must outpace the baseline,
        // not drag it along.
        entry.baseline = entry.baseline * 0.999 + entry.current as f64 * 0.001;
        Ok(Permit { control: self, fp })
    }

    /// Observed stats (current, total, rejected) for a fingerprint.
    pub fn stats(&self, fp: &str) -> (u64, u64, u64) {
        let stats = self.stats.lock();
        match stats.get(fp) {
            Some(s) => (s.current, s.total, s.rejected),
            None => (0, 0, 0),
        }
    }

    /// The currently throttled fingerprints.
    pub fn throttled(&self) -> Vec<String> {
        self.stats
            .lock()
            .iter()
            .filter(|(_, s)| s.limit.is_some())
            .map(|(f, _)| f.clone())
            .collect()
    }

    fn release(&self, fp: &str) {
        if let Some(s) = self.stats.lock().get_mut(fp) {
            s.current = s.current.saturating_sub(1);
        }
    }
}

impl Default for TrafficControl {
    fn default() -> Self {
        TrafficControl::new()
    }
}

/// An admission permit; dropping it releases the concurrency slot.
pub struct Permit<'a> {
    control: &'a TrafficControl,
    fp: String,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.control.release(&self.fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_strips_literals() {
        assert_eq!(
            fingerprint("SELECT * FROM t WHERE id = 42"),
            fingerprint("select *  from t where id = 99999")
        );
        assert_eq!(
            fingerprint("SELECT * FROM t WHERE name = 'bob'"),
            fingerprint("SELECT * FROM t WHERE name = 'alice'")
        );
        assert_ne!(
            fingerprint("SELECT * FROM t WHERE id = 1"),
            fingerprint("SELECT * FROM u WHERE id = 1")
        );
    }

    #[test]
    fn permits_track_concurrency() {
        let tc = TrafficControl::new();
        let p1 = tc.admit("SELECT 1 FROM t").unwrap();
        let p2 = tc.admit("SELECT 2 FROM t").unwrap();
        let fp = fingerprint("SELECT 1 FROM t");
        assert_eq!(tc.stats(&fp).0, 2);
        drop(p1);
        assert_eq!(tc.stats(&fp).0, 1);
        drop(p2);
        assert_eq!(tc.stats(&fp).0, 0);
        assert_eq!(tc.stats(&fp).1, 2);
    }

    #[test]
    fn manual_limit_enforced() {
        let tc = TrafficControl::new();
        let fp = fingerprint("SELECT * FROM hot WHERE k = 1");
        tc.limit(&fp, 2);
        let _a = tc.admit("SELECT * FROM hot WHERE k = 1").unwrap();
        let _b = tc.admit("SELECT * FROM hot WHERE k = 2").unwrap();
        let err = match tc.admit("SELECT * FROM hot WHERE k = 3") {
            Err(e) => e,
            Ok(_) => panic!("expected throttle"),
        };
        assert!(matches!(err, Error::Throttled { .. }));
        drop(_a);
        assert!(tc.admit("SELECT * FROM hot WHERE k = 4").is_ok());
        assert_eq!(tc.throttled(), vec![fp.clone()]);
        tc.unlimit(&fp);
        assert!(tc.throttled().is_empty());
    }

    #[test]
    fn anomaly_detection_auto_throttles() {
        let tc = TrafficControl::new();
        tc.set_auto(true);
        let sql = "SELECT * FROM cache_miss WHERE k = 7";
        // Train a baseline of ~1 concurrent execution.
        for _ in 0..2000 {
            let p = tc.admit(sql).unwrap();
            drop(p);
        }
        // A cache-penetration event: concurrency surges way past baseline.
        let mut held = Vec::new();
        let mut rejected = false;
        for _ in 0..64 {
            match tc.admit(sql) {
                Ok(p) => held.push(p),
                Err(Error::Throttled { .. }) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected, "anomalous surge must be throttled");
        assert!(!tc.throttled().is_empty());
        // Normal traffic of a different shape is unaffected.
        assert!(tc.admit("SELECT 1 FROM other").is_ok());
    }

    #[test]
    fn no_auto_no_throttle() {
        let tc = TrafficControl::new();
        let sql = "SELECT * FROM t WHERE id = 1";
        let held: Vec<_> = (0..64).map(|_| tc.admit(sql).unwrap()).collect();
        assert_eq!(held.len(), 64);
    }
}
