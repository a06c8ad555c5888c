//! Centralized timestamp oracle (TSO) — the baseline of Fig 7.
//!
//! TSO-SI (Percolator, TiDB) allocates both snapshot and commit timestamps
//! from one ascending counter service. Every allocation is an RPC; when the
//! caller sits in a different datacenter than the oracle, each allocation
//! pays a full cross-DC round trip, which is precisely the overhead HLC-SI
//! removes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polardbx_common::NodeId;
use polardbx_simnet::{Handler, SimNet};

use polardbx_hlc::{Clock, HlcTimestamp, PhysicalClock, RealClock};

/// Messages understood by the TSO server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsoMsg {
    /// Request one timestamp.
    Get,
    /// Reply carrying the allocated timestamp.
    Timestamp(u64),
}

/// The oracle: an ascending counter seeded from physical time so timestamps
/// remain comparable with HLC timestamps in mixed tests.
pub struct TsoServer {
    next: AtomicU64,
}

impl TsoServer {
    /// New oracle seeded from wall time.
    pub fn new() -> Arc<TsoServer> {
        Arc::new(TsoServer { next: AtomicU64::new(HlcTimestamp::at_pt(RealClock.now_millis()).raw()) })
    }

    /// Allocate the next timestamp (local fast path, used by the handler).
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

impl Handler<TsoMsg> for TsoServer {
    fn handle(&self, _from: NodeId, msg: TsoMsg) -> TsoMsg {
        match msg {
            TsoMsg::Get => TsoMsg::Timestamp(self.allocate()),
            other => other,
        }
    }
}

/// A node-side client of the oracle. Implements [`Clock`] so the
/// transaction layer can swap it in for [`polardbx_hlc::Hlc`]; both `now` and
/// `advance` are remote allocations, and `update` is a no-op (ordering is
/// global by construction).
pub struct TsoClient {
    net: Arc<SimNet<TsoMsg>>,
    me: NodeId,
    server: NodeId,
}

impl TsoClient {
    /// A client at `me` talking to the oracle at `server`.
    pub fn new(net: Arc<SimNet<TsoMsg>>, me: NodeId, server: NodeId) -> Arc<TsoClient> {
        Arc::new(TsoClient { net, me, server })
    }

    fn fetch(&self) -> HlcTimestamp {
        match self.net.call(self.me, self.server, TsoMsg::Get) {
            Ok(TsoMsg::Timestamp(ts)) => HlcTimestamp::from_raw(ts),
            Ok(_) | Err(_) => {
                // The oracle is a single point of failure (the paper's
                // critique); surface that as a panic in experiments rather
                // than silently inventing time.
                panic!("TSO unavailable: centralized oracle unreachable from {}", self.me)
            }
        }
    }
}

impl Clock for TsoClient {
    fn now(&self) -> HlcTimestamp {
        self.fetch()
    }

    fn advance(&self) -> HlcTimestamp {
        self.fetch()
    }

    fn update(&self, _seen: HlcTimestamp) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::DcId;
    use polardbx_simnet::LatencyMatrix;
    use std::time::{Duration, Instant};

    /// Dummy service so client nodes can be registered on the fabric.
    struct Nop;
    impl Handler<TsoMsg> for Nop {
        fn handle(&self, _from: NodeId, msg: TsoMsg) -> TsoMsg {
            msg
        }
    }

    #[test]
    fn timestamps_globally_ascending() {
        let net = SimNet::new(LatencyMatrix::zero());
        let server = TsoServer::new();
        net.register(NodeId(100), DcId(1), server);
        net.register(NodeId(1), DcId(1), Arc::new(Nop));
        net.register(NodeId(2), DcId(2), Arc::new(Nop));
        let c1 = TsoClient::new(net.clone(), NodeId(1), NodeId(100));
        let c2 = TsoClient::new(net.clone(), NodeId(2), NodeId(100));
        let a = c1.now();
        let b = c2.now();
        let c = c1.advance();
        assert!(a < b && b < c, "oracle must be globally ascending");
    }

    #[test]
    fn cross_dc_access_pays_rtt() {
        let lat = LatencyMatrix {
            intra_dc: Duration::from_micros(10),
            inter_dc: Duration::from_millis(2),
            jitter: 0.0,
        };
        let net = SimNet::new(lat);
        net.register(NodeId(100), DcId(1), TsoServer::new());
        net.register(NodeId(1), DcId(1), Arc::new(Nop));
        net.register(NodeId(2), DcId(3), Arc::new(Nop));
        let local = TsoClient::new(net.clone(), NodeId(1), NodeId(100));
        let remote = TsoClient::new(net.clone(), NodeId(2), NodeId(100));

        let t0 = Instant::now();
        local.now();
        let local_cost = t0.elapsed();

        let t0 = Instant::now();
        remote.now();
        let remote_cost = t0.elapsed();

        assert!(remote_cost >= Duration::from_millis(4), "must pay cross-DC RTT");
        assert!(remote_cost > local_cost * 10);
    }

    #[test]
    fn concurrent_allocations_unique() {
        use std::collections::HashSet;
        let server = TsoServer::new();
        let mut handles = vec![];
        for _ in 0..4 {
            let s = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| s.allocate()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for ts in h.join().unwrap() {
                assert!(seen.insert(ts));
            }
        }
    }
}
