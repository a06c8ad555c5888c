//! TP/AP memory regions with preemption (§VI-D).
//!
//! "The heap memory in a CN node is divided into four major regions: TP
//! Memory … AP Memory … Other … and System Reserved. … they can preempt
//! each other's resources when needed. More specifically, TP Memory will
//! only release the preempted memory (from AP Memory) until the query
//! completion, while AP Memory must immediately release the preempted
//! memory when TP Memory is requesting for it."

use parking_lot::Mutex;
use std::sync::Arc;

use polardbx_common::{Error, Result};

#[derive(Debug, Clone, Copy)]
struct RegionState {
    /// Guaranteed minimum.
    min: usize,
    /// Hard maximum (own + preemptable).
    max: usize,
    /// Currently allocated.
    used: usize,
    /// Of `used`, how much was preempted from the peer region.
    preempted: usize,
}

/// The memory manager for TP and AP regions (Other/SystemReserved are
/// fixed carve-outs and not dynamically managed).
pub struct MemoryManager {
    tp: Mutex<RegionState>,
    ap: Mutex<RegionState>,
}

impl MemoryManager {
    /// Build with per-region (min, max) budgets in bytes.
    pub fn new(tp_min: usize, tp_max: usize, ap_min: usize, ap_max: usize) -> Arc<MemoryManager> {
        Arc::new(MemoryManager {
            tp: Mutex::new(RegionState { min: tp_min, max: tp_max, used: 0, preempted: 0 }),
            ap: Mutex::new(RegionState { min: ap_min, max: ap_max, used: 0, preempted: 0 }),
        })
    }

    /// Default split: 256 MB TP / 512 MB AP with 50 % preemption headroom.
    pub fn with_defaults() -> Arc<MemoryManager> {
        MemoryManager::new(256 << 20, 384 << 20, 512 << 20, 768 << 20)
    }

    /// Allocate `bytes` for a TP query. TP is privileged: if its own region
    /// is full it preempts AP memory, and AP "must immediately release" —
    /// modelled as shrinking AP's effective budget until the TP query
    /// completes.
    pub fn reserve_tp(&self, bytes: usize) -> Result<()> {
        let mut tp = self.tp.lock();
        if tp.used + bytes <= tp.min {
            tp.used += bytes;
            return Ok(());
        }
        if tp.used + bytes > tp.max {
            return Err(Error::MemoryExhausted { group: "TP".into(), requested: bytes });
        }
        // Preempt the shortfall from AP.
        let shortfall = (tp.used + bytes).saturating_sub(tp.min);
        let mut ap = self.ap.lock();
        // AP's budget shrinks; in-flight AP queries will fail their next
        // reservation and spill/abort — "immediately release".
        ap.max = ap.max.saturating_sub(shortfall.saturating_sub(tp.preempted));
        tp.preempted = tp.preempted.max(shortfall);
        tp.used += bytes;
        Ok(())
    }

    /// Release TP memory. Preempted AP memory is returned only when the
    /// *whole* region drains (query completion), matching the paper.
    pub(crate) fn release_tp(&self, bytes: usize) {
        let mut tp = self.tp.lock();
        tp.used = tp.used.saturating_sub(bytes);
        if tp.used == 0 && tp.preempted > 0 {
            let mut ap = self.ap.lock();
            ap.max += tp.preempted;
            tp.preempted = 0;
        }
    }

    /// Allocate `bytes` for an AP query. AP may use headroom above its
    /// minimum but never survives TP pressure.
    pub fn reserve_ap(&self, bytes: usize) -> Result<()> {
        let mut ap = self.ap.lock();
        if ap.used + bytes > ap.max {
            return Err(Error::MemoryExhausted { group: "AP".into(), requested: bytes });
        }
        ap.used += bytes;
        Ok(())
    }

    /// Release AP memory.
    pub(crate) fn release_ap(&self, bytes: usize) {
        let mut ap = self.ap.lock();
        ap.used = ap.used.saturating_sub(bytes);
    }

    /// (tp_used, ap_used, ap_max) snapshot for tests/monitoring.
    pub fn usage(&self) -> (usize, usize, usize) {
        let tp = self.tp.lock();
        let ap = self.ap.lock();
        (tp.used, ap.used, ap.max)
    }
}

/// RAII reservation guard.
pub struct Reservation {
    mgr: Arc<MemoryManager>,
    bytes: usize,
    tp: bool,
}

impl Reservation {
    /// Reserve for TP.
    pub fn tp(mgr: Arc<MemoryManager>, bytes: usize) -> Result<Reservation> {
        mgr.reserve_tp(bytes)?;
        Ok(Reservation { mgr, bytes, tp: true })
    }

    /// Reserve for AP.
    pub fn ap(mgr: Arc<MemoryManager>, bytes: usize) -> Result<Reservation> {
        mgr.reserve_ap(bytes)?;
        Ok(Reservation { mgr, bytes, tp: false })
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.tp {
            self.mgr.release_tp(self.bytes);
        } else {
            self.mgr.release_ap(self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> Arc<MemoryManager> {
        // TP: min 100, max 150; AP: min 200, max 300.
        MemoryManager::new(100, 150, 200, 300)
    }

    #[test]
    fn basic_reserve_release() {
        let m = mgr();
        m.reserve_tp(50).unwrap();
        m.reserve_ap(100).unwrap();
        assert_eq!(m.usage(), (50, 100, 300));
        m.release_tp(50);
        m.release_ap(100);
        assert_eq!(m.usage(), (0, 0, 300));
    }

    #[test]
    fn tp_preempts_ap_budget() {
        let m = mgr();
        m.reserve_tp(120).unwrap(); // 20 over TP min → preempted from AP
        let (_, _, ap_max) = m.usage();
        assert_eq!(ap_max, 280, "AP budget shrank by the preempted amount");
        // AP can no longer use its full former budget.
        assert!(m.reserve_ap(290).is_err());
        m.reserve_ap(280).unwrap();
    }

    #[test]
    fn tp_hard_cap() {
        let m = mgr();
        assert!(m.reserve_tp(151).is_err());
        m.reserve_tp(150).unwrap();
        assert!(m.reserve_tp(1).is_err());
    }

    #[test]
    fn preempted_memory_returns_on_tp_completion() {
        let m = mgr();
        m.reserve_tp(150).unwrap();
        assert_eq!(m.usage().2, 250);
        // Partial release does NOT return preempted memory (paper: only at
        // query completion).
        m.release_tp(100);
        assert_eq!(m.usage().2, 250);
        m.release_tp(50);
        assert_eq!(m.usage().2, 300, "full drain returns AP's budget");
    }

    #[test]
    fn ap_exhaustion_error() {
        let m = mgr();
        m.reserve_ap(300).unwrap();
        let err = m.reserve_ap(1).unwrap_err();
        assert!(matches!(err, Error::MemoryExhausted { .. }));
    }

    #[test]
    fn raii_guard_releases() {
        let m = mgr();
        {
            let _r = Reservation::ap(Arc::clone(&m), 120).unwrap();
            assert_eq!(m.usage().1, 120);
        }
        assert_eq!(m.usage().1, 0);
        {
            let _r = Reservation::tp(Arc::clone(&m), 150).unwrap();
            assert_eq!(m.usage().0, 150);
        }
        assert_eq!(m.usage(), (0, 0, 300));
    }
}
