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
//! A fingerprint is the statement's shape from the SQL lexer — the key of
//! the CN's plan cache — so a statement is fingerprinted once, by the
//! tokenizer pass every statement makes anyway. Admission looks the
//! shape's stats up by that text: only a new fingerprint allocates a key,
//! and a permit shares it.

use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use polardbx_common::{Error, Result};
use polardbx_sql::Lexed;

/// Normalized query fingerprint: the statement's shape, with literals
/// stripped and case folded. Queries differing only in constants share a
/// fingerprint; identifiers are kept whole, so `t1` and `t2` do not.
/// Text the lexer rejects is only lowercased.
pub fn fingerprint(sql: &str) -> String {
    match polardbx_sql::lex(sql) {
        Ok(lexed) => lexed.into_shape(),
        Err(_) => sql.trim().to_ascii_lowercase(),
    }
}

/// What [`TrafficControl::admit`] keys a statement by: its shape.
pub trait Shape {
    /// The shape.
    fn shape(&self) -> Cow<'_, str>;
}

/// SQL text, fingerprinted on admission.
impl Shape for &str {
    fn shape(&self) -> Cow<'_, str> {
        Cow::Owned(fingerprint(self))
    }
}

/// A lexed statement: its shape is made already, and admitting a shape
/// seen before allocates nothing.
impl Shape for &Lexed<'_> {
    fn shape(&self) -> Cow<'_, str> {
        Cow::Borrowed(Lexed::shape(self))
    }
}

#[derive(Debug, Clone)]
struct FingerprintStats {
    /// The fingerprint, shared with the map's key and every permit.
    fp: Arc<str>,
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

impl FingerprintStats {
    /// The stats of fingerprint `fp`, new ones if it has none: only a new
    /// fingerprint allocates its key.
    fn of<'m>(
        stats: &'m mut HashMap<Arc<str>, FingerprintStats>,
        fp: &str,
    ) -> &'m mut FingerprintStats {
        if !stats.contains_key(fp) {
            let fp: Arc<str> = fp.into();
            let new = FingerprintStats {
                fp: Arc::clone(&fp),
                current: 0,
                baseline: 0.0,
                limit: None,
                total: 0,
                rejected: 0,
            };
            stats.insert(fp, new);
        }
        stats.get_mut(fp).expect("inserted above")
    }
}

/// The traffic controller.
pub struct TrafficControl {
    stats: Mutex<HashMap<Arc<str>, FingerprintStats>>,
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
        FingerprintStats::of(&mut self.stats.lock(), fp).limit = Some(max_concurrency);
    }

    /// Remove a limit.
    pub fn unlimit(&self, fp: &str) {
        if let Some(s) = self.stats.lock().get_mut(fp) {
            s.limit = None;
        }
    }

    /// Admit a statement by its [`Shape`]; returns a permit whose drop
    /// releases the slot.
    pub fn admit(&self, stmt: impl Shape) -> Result<Permit<'_>> {
        let shape = stmt.shape();
        let auto = self.auto.load(Ordering::Relaxed);
        let mut stats = self.stats.lock();
        let entry = FingerprintStats::of(&mut stats, &shape);
        let fp = Arc::clone(&entry.fp);
        if let Some(limit) = entry.limit {
            if entry.current >= limit {
                entry.rejected += 1;
                return Err(Error::Throttled { rule: fp.to_string() });
            }
        } else if auto
            && entry.baseline >= 0.5
            && (entry.current as f64) >= entry.baseline * self.anomaly_factor
        {
            // Anomaly: concurrency surged far beyond the trained baseline.
            // Clamp this fingerprint at the anomaly threshold.
            entry.limit = Some((entry.baseline * self.anomaly_factor) as u64);
            entry.rejected += 1;
            return Err(Error::Throttled { rule: fp.to_string() });
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
            .map(|(f, _)| f.to_string())
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
    fp: Arc<str>,
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
        assert_eq!(
            fingerprint(" \tSELECT  x FROM t WHERE id = 7 \n"),
            "select x from t where id = ?"
        );
    }

    /// A digit inside an identifier is part of the name: a limit on one
    /// table's shape leaves the same statement on another table alone.
    #[test]
    fn a_limit_on_the_t1_shape_leaves_the_t2_shape_unthrottled() {
        let tc = TrafficControl::new();
        let t1 = fingerprint("SELECT v FROM t1 WHERE id = 1");
        assert_eq!(t1, "select v from t1 where id = ?");
        tc.limit(&t1, 0);
        assert!(matches!(
            tc.admit("SELECT v FROM t1 WHERE id = 7"),
            Err(Error::Throttled { .. })
        ));
        assert!(tc.admit("SELECT v FROM t2 WHERE id = 7").is_ok());
        let lexed = polardbx_sql::lex("SELECT v FROM t2 WHERE id = 1").unwrap();
        assert!(tc.admit(&lexed).is_ok());
        assert_eq!(tc.stats(lexed.shape()).1, 2, "text and lexed share one entry");
        // One mark per literal: a string with a doubled quote is one.
        assert_eq!(fingerprint("SELECT 'it''s', 1.5 FROM t"), "select ? , ? from t");
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
