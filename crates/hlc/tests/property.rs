//! Seeded property test: HLC monotonicity and causal ordering across
//! simnet messages under injected clock skew.
//!
//! A ring of nodes, each with an [`Hlc`] over a [`TestClock`] of its own
//! that reads a shared base time plus the node's skew, which is re-rolled
//! mid-run, exchanges timestamps over the simnet fabric. Two
//! properties must hold no matter how physical clocks drift:
//!
//! * **Per-node monotonicity** — a node's issued timestamps (`advance`)
//!   are strictly increasing and its `now` never regresses, even when its
//!   skew jumps backwards.
//! * **Causality** — the reply to a message carrying timestamp `t` was
//!   issued after a `ClockUpdate(t)`, so it exceeds `t`; chaining
//!   exchanges through random nodes yields a strictly increasing token.
//!
//! The walk is seeded (`POLARDBX_TEST_SEED` overrides; the seed prints on
//! stderr so a failure can be replayed): the physical clocks move only as
//! the walk sets them.

use std::sync::Arc;

use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, NodeId};
use polardbx_hlc::{Clock, Hlc, HlcTimestamp, TestClock};
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use rand::{rngs::StdRng, Rng, SeedableRng};

const NODES: u64 = 5;
const STEPS: usize = 2_000;

/// A peer absorbs every received timestamp (ClockUpdate) and answers with
/// a fresh ClockAdvance — the §IV message rule.
struct Peer {
    clock: Arc<Hlc>,
}

impl Handler<u64> for Peer {
    fn handle(&self, _from: NodeId, ts: u64) -> u64 {
        self.clock.update(HlcTimestamp::from_raw(ts));
        self.clock.advance().raw()
    }
}

#[test]
fn hlc_monotone_and_causal_across_skewed_simnet_messages() {
    let seed = seed_from_env(0x41C_C10C);
    eprintln!(
        "hlc_monotone_and_causal_across_skewed_simnet_messages: POLARDBX_TEST_SEED={}",
        format_seed(seed)
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut base: u64 = 10_000;
    let net = SimNet::new(LatencyMatrix::zero());
    let mut clocks = Vec::new();
    let mut skews: Vec<i64> = Vec::new();
    let mut physical = Vec::new();
    for i in 1..=NODES {
        let skew = rng.gen_range(-500..=500);
        let pc = TestClock::at(base.saturating_add_signed(skew));
        let clock = Hlc::with_physical(pc.clone());
        net.register(NodeId(i), DcId(1 + i % 3), Arc::new(Peer { clock: Arc::clone(&clock) }));
        clocks.push(clock);
        skews.push(skew);
        physical.push(pc);
    }

    // The causal token: every exchange must hand back something larger.
    let mut token = clocks[0].advance();
    let mut last_issued: Vec<HlcTimestamp> = clocks.iter().map(|c| c.peek()).collect();
    let mut last_now: Vec<HlcTimestamp> = clocks.iter().map(|c| c.now()).collect();

    for step in 0..STEPS {
        // Seeded clock churn: physical time creeps forward while individual
        // skews jump around (including backwards — NTP step corrections).
        if rng.gen_bool(0.3) {
            base += rng.gen_range(0..3);
            for (pc, &skew) in physical.iter().zip(&skews) {
                pc.set(base.saturating_add_signed(skew));
            }
        }
        if rng.gen_bool(0.1) {
            let n = rng.gen_range(0..NODES as usize);
            skews[n] = rng.gen_range(-500..=500);
            physical[n].set(base.saturating_add_signed(skews[n]));
        }

        let from = rng.gen_range(0..NODES as usize);
        let mut to = rng.gen_range(0..NODES as usize);
        if to == from {
            to = (to + 1) % NODES as usize;
        }
        // Sender stamps the token into its own causal past, then ships it.
        clocks[from].update(token);
        let sent = clocks[from].advance();
        assert!(sent > token, "step {step}: sender must issue past the token");
        let reply = net
            .call(NodeId(1 + from as u64), NodeId(1 + to as u64), sent.raw())
            .expect("faultless fabric");
        let reply = HlcTimestamp::from_raw(reply);
        assert!(
            reply > sent,
            "step {step}: causality violated — node {} replied {reply:?} to {sent:?}",
            to + 1,
        );
        token = reply;

        // Per-node checks: advance streams are strictly increasing and
        // `now` never regresses, despite the skew storm.
        for (n, c) in clocks.iter().enumerate() {
            let now = c.now();
            assert!(
                now >= last_now[n],
                "step {step}: node {} `now` regressed from {:?} to {now:?}",
                n + 1,
                last_now[n],
            );
            last_now[n] = now;
            let peek = c.peek();
            assert!(
                peek >= last_issued[n],
                "step {step}: node {} clock regressed from {:?} to {peek:?}",
                n + 1,
                last_issued[n],
            );
            last_issued[n] = peek;
        }
    }

    net.shutdown();
}
