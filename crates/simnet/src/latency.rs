//! Per-link latency model.

use polardbx_common::DcId;
use rand::Rng;
use std::time::Duration;

/// One-way delays between datacenters, with optional jitter.
///
/// Defaults mirror the paper's testbed shape scaled for an in-process run:
/// negligible intra-DC latency and a configurable inter-DC delay (the paper
/// measured ~1 ms RTT, i.e. ~500 µs one-way).
#[derive(Debug, Clone)]
pub struct LatencyMatrix {
    /// One-way delay between two nodes in the same DC.
    pub intra_dc: Duration,
    /// One-way delay between nodes in different DCs.
    pub inter_dc: Duration,
    /// Uniform jitter fraction in `[0, jitter)` added on top (0.0 disables).
    pub jitter: f64,
}

impl LatencyMatrix {
    /// The paper's testbed: ~1 ms cross-DC RTT, fast local network.
    pub fn paper_default() -> LatencyMatrix {
        LatencyMatrix {
            intra_dc: Duration::from_micros(50),
            inter_dc: Duration::from_micros(500),
            jitter: 0.05,
        }
    }

    /// Zero latency everywhere — for unit tests that only care about
    /// message semantics.
    pub fn zero() -> LatencyMatrix {
        LatencyMatrix { intra_dc: Duration::ZERO, inter_dc: Duration::ZERO, jitter: 0.0 }
    }

    /// Base one-way delay between `a` and `b` (no jitter applied).
    pub fn one_way_base(&self, a: DcId, b: DcId) -> Duration {
        if a == b { self.intra_dc } else { self.inter_dc }
    }

    /// One-way delay with jitter sampled from the thread RNG.
    pub fn one_way(&self, a: DcId, b: DcId) -> Duration {
        let base = self.one_way_base(a, b);
        if self.jitter <= 0.0 || base.is_zero() {
            return base;
        }
        let j = rand::thread_rng().gen_range(0.0..self.jitter);
        base + Duration::from_secs_f64(base.as_secs_f64() * j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_dc_slower_than_intra() {
        let m = LatencyMatrix::paper_default();
        assert!(m.one_way_base(DcId(1), DcId(2)) > m.one_way_base(DcId(1), DcId(1)));
    }

    #[test]
    fn jitter_bounded() {
        let m = LatencyMatrix { jitter: 0.1, ..LatencyMatrix::paper_default() };
        for _ in 0..100 {
            let d = m.one_way(DcId(0), DcId(1));
            assert!(d >= m.inter_dc);
            assert!(d < m.inter_dc + m.inter_dc.mul_f64(0.11));
        }
    }

    #[test]
    fn zero_matrix_is_zero() {
        let m = LatencyMatrix::zero();
        assert_eq!(m.one_way(DcId(0), DcId(5)), Duration::ZERO);
    }
}
