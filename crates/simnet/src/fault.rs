//! Seeded, deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes *what can go wrong* on the wire: per-link drop
//! probability, duplication, and one-shot scheduled faults
//! ("crash node X on its Nth send"). All randomness flows from a single
//! seeded RNG owned by the runtime [`FaultState`], so the same plan + seed
//! reproduces the same fault sequence — which is what makes chaos tests
//! assertable rather than merely flaky.
//!
//! The fabric consults the plan at every `call`/`post`:
//!
//! * a dropped **request** looks to the caller like a timeout (the handler
//!   never ran),
//! * a dropped **reply** looks the same to the caller — but the handler DID
//!   run, which is exactly the ambiguity 2PC in-doubt recovery exists for,
//! * a **duplicated** message exercises participant idempotency,
//! * a **crashed** node black-holes all traffic to and from it and stays
//!   registered (its delivery thread survives for a restart).

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use polardbx_common::metrics::Counter;
use polardbx_common::{DcId, NodeId};

/// Probabilistic faults applied to one link (an ordered DC pair).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a message (request, reply, or post) is dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
}

impl LinkFaults {
    /// No faults.
    pub fn none() -> LinkFaults {
        LinkFaults::default()
    }

    /// Lossy link: drop probability only.
    pub fn lossy(drop: f64) -> LinkFaults {
        LinkFaults { drop, ..LinkFaults::default() }
    }

    /// Builder: set duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> LinkFaults {
        self.duplicate = p;
        self
    }

    fn is_none(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0
    }
}

/// A fault scheduled to fire exactly once, keyed on a node's send count.
#[derive(Debug, Clone)]
pub struct OneShot {
    /// The node whose outgoing traffic triggers the fault.
    pub from: NodeId,
    /// Fire when this node initiates its Nth send (1-based, calls + posts).
    pub after_sends: u64,
    /// What happens.
    pub fault: OneShotFault,
}

/// The effect of a triggered [`OneShot`].
#[derive(Debug, Clone)]
pub enum OneShotFault {
    /// Crash a node (black-hole it; see [`crate::SimNet::crash`]). Crashing
    /// the *sending* node models a coordinator dying mid-protocol.
    Crash(NodeId),
    /// Drop the triggering message itself.
    DropNext,
}

/// A fault scheduled to fire exactly once, keyed on a node's durable-log
/// flush count (reported via [`crate::SimNet::note_flush`]). This is how
/// crashpoints like "die mid-group-flush" become schedulable: the Nth flush
/// is a deterministic point in a seeded run, unlike wall-clock timers.
#[derive(Debug, Clone)]
pub struct FlushShot {
    /// The node whose flushes are counted.
    pub node: NodeId,
    /// Fire when this node performs its Nth flush (1-based).
    pub after_flushes: u64,
    /// What happens. [`OneShotFault::Crash`] of the flushing node itself
    /// models power loss mid-flush (the triggering write must then fail).
    pub fault: OneShotFault,
}

/// A deterministic description of the faults to inject.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// RNG seed: same plan + same seed → same fault sequence.
    pub seed: u64,
    /// Human-readable schedule name, surfaced in harness reports (e.g.
    /// `sitcheck`'s witness output). Empty = unnamed.
    pub label: String,
    /// Faults applied to every link.
    pub all_links: LinkFaults,
    /// Faults applied only to links that cross a DC boundary (after
    /// `all_links`; the more specific setting wins).
    pub cross_dc: Option<LinkFaults>,
    /// Per-ordered-link overrides, most specific of all.
    pub per_link: Vec<((DcId, DcId), LinkFaults)>,
    /// Scheduled one-shot faults.
    pub one_shots: Vec<OneShot>,
    /// Scheduled flush-count-triggered faults.
    pub flush_shots: Vec<FlushShot>,
}

impl FaultPlan {
    /// A plan with no faults (useful as a base for builders).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            label: String::new(),
            all_links: LinkFaults::none(),
            cross_dc: None,
            per_link: Vec::new(),
            one_shots: Vec::new(),
            flush_shots: Vec::new(),
        }
    }

    /// Builder: name the schedule for harness reports.
    pub fn with_label(mut self, label: impl Into<String>) -> FaultPlan {
        self.label = label.into();
        self
    }

    /// Builder: faults on cross-DC links only.
    pub fn with_cross_dc(mut self, f: LinkFaults) -> FaultPlan {
        self.cross_dc = Some(f);
        self
    }

    /// Builder: schedule a flush-count-triggered fault.
    pub fn with_flush_shot(mut self, shot: FlushShot) -> FaultPlan {
        self.flush_shots.push(shot);
        self
    }

    /// The faults in force on the ordered link `from → to`.
    pub fn link_faults(&self, from: DcId, to: DcId) -> LinkFaults {
        if let Some((_, f)) = self.per_link.iter().find(|((a, b), _)| *a == from && *b == to) {
            return *f;
        }
        if from != to {
            if let Some(f) = self.cross_dc {
                return f;
            }
        }
        self.all_links
    }
}

/// What the fault layer decided for one message on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkDecision {
    pub drop: bool,
    pub duplicate: bool,
}

/// Counters for injected faults, exported through `common::metrics` so the
/// chaos suite and benches can report what actually happened on the wire.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Synchronous requests dropped before reaching the handler.
    pub dropped_requests: Counter,
    /// Replies dropped after the handler ran (the 2PC-ambiguity case).
    pub dropped_replies: Counter,
    /// One-way posts dropped.
    pub dropped_posts: Counter,
    /// Synchronous calls whose handler ran twice.
    pub duplicated_calls: Counter,
    /// One-way posts enqueued twice.
    pub duplicated_posts: Counter,
    /// Messages black-holed because an endpoint was crashed.
    pub blackholed: Counter,
    /// One-shot faults that fired.
    pub one_shots_fired: Counter,
    /// Amnesia restarts: nodes brought back with volatile state dropped
    /// (see [`crate::SimNet::restart_amnesia`]).
    pub amnesia_restarts: Counter,
}

impl FaultStats {
    /// Human-readable one-line report.
    pub fn report(&self) -> String {
        format!(
            "drops: req={} reply={} post={} · dups: call={} post={} · blackholed={} · one-shots={} · amnesia-restarts={}",
            self.dropped_requests.get(),
            self.dropped_replies.get(),
            self.dropped_posts.get(),
            self.duplicated_calls.get(),
            self.duplicated_posts.get(),
            self.blackholed.get(),
            self.one_shots_fired.get(),
            self.amnesia_restarts.get(),
        )
    }

    /// Reset all counters (between chaos phases).
    pub fn reset(&self) {
        self.dropped_requests.reset();
        self.dropped_replies.reset();
        self.dropped_posts.reset();
        self.duplicated_calls.reset();
        self.duplicated_posts.reset();
        self.blackholed.reset();
        self.one_shots_fired.reset();
        self.amnesia_restarts.reset();
    }
}

/// Runtime state of an active plan: per-link message ordinals, per-node send
/// counts (for one-shot triggers), and which one-shots already fired.
///
/// Each fault decision is a pure function of `(seed, link, ordinal)` — the
/// ordinal being the message's position in its own link's stream — rather
/// than a draw from one shared RNG sequence. Concurrent traffic on *other*
/// links therefore cannot perturb a link's fault pattern, which keeps
/// same-seed replays identical even when thread interleaving differs.
pub(crate) struct FaultState {
    plan: FaultPlan,
    link_seq: Mutex<HashMap<(DcId, DcId), u64>>,
    sends_by_node: Mutex<HashMap<NodeId, u64>>,
    fired: Mutex<Vec<bool>>,
    flushes_by_node: Mutex<HashMap<NodeId, u64>>,
    flush_fired: Mutex<Vec<bool>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        let fired = vec![false; plan.one_shots.len()];
        let flush_fired = vec![false; plan.flush_shots.len()];
        FaultState {
            plan,
            link_seq: Mutex::new(HashMap::new()),
            sends_by_node: Mutex::new(HashMap::new()),
            fired: Mutex::new(fired),
            flushes_by_node: Mutex::new(HashMap::new()),
            flush_fired: Mutex::new(flush_fired),
        }
    }

    /// Record a send by `from` and return any one-shot faults it triggers.
    pub(crate) fn on_send(&self, from: NodeId) -> Vec<OneShotFault> {
        if self.plan.one_shots.is_empty() {
            return Vec::new();
        }
        let count = {
            let mut sends = self.sends_by_node.lock();
            let c = sends.entry(from).or_insert(0);
            *c += 1;
            *c
        };
        let mut fired = self.fired.lock();
        let mut out = Vec::new();
        for (i, os) in self.plan.one_shots.iter().enumerate() {
            if !fired[i] && os.from == from && count >= os.after_sends {
                fired[i] = true;
                out.push(os.fault.clone());
            }
        }
        out
    }

    /// Record a durable-log flush by `node` and return any flush-shot
    /// faults it triggers.
    pub(crate) fn on_flush(&self, node: NodeId) -> Vec<OneShotFault> {
        if self.plan.flush_shots.is_empty() {
            return Vec::new();
        }
        let count = {
            let mut flushes = self.flushes_by_node.lock();
            let c = flushes.entry(node).or_insert(0);
            *c += 1;
            *c
        };
        let mut fired = self.flush_fired.lock();
        let mut out = Vec::new();
        for (i, fs) in self.plan.flush_shots.iter().enumerate() {
            if !fired[i] && fs.node == node && count >= fs.after_flushes {
                fired[i] = true;
                out.push(fs.fault.clone());
            }
        }
        out
    }

    /// Roll the dice for one message on `from_dc → to_dc`.
    pub(crate) fn decide(&self, from_dc: DcId, to_dc: DcId) -> LinkDecision {
        let f = self.plan.link_faults(from_dc, to_dc);
        if f.is_none() {
            return LinkDecision { drop: false, duplicate: false };
        }
        let seq = {
            let mut m = self.link_seq.lock();
            let c = m.entry((from_dc, to_dc)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        // Mix (seed, link, ordinal) into a per-message RNG. StdRng's
        // seed_from_u64 runs SplitMix64, so consecutive ordinals produce
        // well-scrambled, statistically independent draws.
        let mut h = self.plan.seed;
        h ^= from_dc.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(23) ^ to_dc.raw().wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(17) ^ seq.wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut rng = StdRng::seed_from_u64(h);
        let drop = f.drop > 0.0 && rng.gen_bool(f.drop);
        let duplicate = !drop && f.duplicate > 0.0 && rng.gen_bool(f.duplicate);
        LinkDecision { drop, duplicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_faults_resolution_precedence() {
        let plan = FaultPlan {
            all_links: LinkFaults::lossy(0.01),
            cross_dc: Some(LinkFaults::lossy(0.10)),
            per_link: vec![((DcId(1), DcId(3)), LinkFaults::lossy(0.50))],
            ..FaultPlan::new(1)
        };
        // intra-DC: all_links
        assert_eq!(plan.link_faults(DcId(1), DcId(1)).drop, 0.01);
        // cross-DC without override: cross_dc
        assert_eq!(plan.link_faults(DcId(1), DcId(2)).drop, 0.10);
        // specific link: per_link wins
        assert_eq!(plan.link_faults(DcId(1), DcId(3)).drop, 0.50);
        // ordered: reverse direction falls back to cross_dc
        assert_eq!(plan.link_faults(DcId(3), DcId(1)).drop, 0.10);
    }

    #[test]
    fn decisions_are_deterministic_for_same_seed() {
        let plan = || {
            FaultPlan {
                all_links: LinkFaults::lossy(0.3).with_duplicate(0.3),
                ..FaultPlan::new(42)
            }
        };
        let a = FaultState::new(plan());
        let b = FaultState::new(plan());
        for _ in 0..500 {
            assert_eq!(a.decide(DcId(1), DcId(2)), b.decide(DcId(1), DcId(2)));
        }
    }

    #[test]
    fn link_streams_are_independent_of_interleaving() {
        // Traffic on another link must not perturb this link's pattern.
        let plan = || FaultPlan { all_links: LinkFaults::lossy(0.5), ..FaultPlan::new(5) };
        let quiet = FaultState::new(plan());
        let noisy = FaultState::new(plan());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..100 {
            a.push(quiet.decide(DcId(1), DcId(2)));
            if i % 3 == 0 {
                // Interleaved traffic on an unrelated link.
                let _ = noisy.decide(DcId(2), DcId(3));
            }
            b.push(noisy.decide(DcId(1), DcId(2)));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_diverges() {
        let a = FaultState::new(FaultPlan {
            all_links: LinkFaults::lossy(0.5),
            ..FaultPlan::new(1)
        });
        let b = FaultState::new(FaultPlan {
            all_links: LinkFaults::lossy(0.5),
            ..FaultPlan::new(2)
        });
        let seq = |s: &FaultState| -> Vec<bool> {
            (0..64).map(|_| s.decide(DcId(1), DcId(2)).drop).collect()
        };
        assert_ne!(seq(&a), seq(&b));
    }

    #[test]
    fn one_shot_fires_once_at_threshold() {
        let plan = FaultPlan {
            one_shots: vec![OneShot { from: NodeId(9), after_sends: 3, fault: OneShotFault::Crash(NodeId(9)) }],
            ..FaultPlan::new(7)
        };
        let st = FaultState::new(plan);
        assert!(st.on_send(NodeId(9)).is_empty()); // 1
        assert!(st.on_send(NodeId(1)).is_empty()); // other node
        assert!(st.on_send(NodeId(9)).is_empty()); // 2
        let fired = st.on_send(NodeId(9)); // 3
        assert!(matches!(fired.as_slice(), [OneShotFault::Crash(n)] if *n == NodeId(9)));
        assert!(st.on_send(NodeId(9)).is_empty(), "one-shot must not refire");
    }

    #[test]
    fn flush_shot_fires_once_at_threshold() {
        let plan = FaultPlan::new(7).with_flush_shot(FlushShot {
            node: NodeId(2),
            after_flushes: 2,
            fault: OneShotFault::Crash(NodeId(2)),
        });
        let st = FaultState::new(plan);
        assert!(st.on_flush(NodeId(2)).is_empty()); // 1
        assert!(st.on_flush(NodeId(1)).is_empty()); // other node
        let fired = st.on_flush(NodeId(2)); // 2
        assert!(matches!(fired.as_slice(), [OneShotFault::Crash(n)] if *n == NodeId(2)));
        assert!(st.on_flush(NodeId(2)).is_empty(), "flush shot must not refire");
        // Flush counting is independent of send counting.
        assert!(st.on_send(NodeId(2)).is_empty());
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let st = FaultState::new(FaultPlan {
            all_links: LinkFaults::lossy(0.25),
            ..FaultPlan::new(3)
        });
        let drops = (0..10_000).filter(|_| st.decide(DcId(1), DcId(2)).drop).count();
        assert!((2_000..3_000).contains(&drops), "expected ~2500 drops, got {drops}");
    }

    #[test]
    fn stats_report_and_reset() {
        let s = FaultStats::default();
        s.dropped_requests.add(3);
        s.duplicated_posts.inc();
        let report = |req, dup_post| {
            format!(
                "drops: req={req} reply=0 post=0 · dups: call=0 post={dup_post} · blackholed=0 · \
                 one-shots=0 · amnesia-restarts=0"
            )
        };
        assert_eq!(s.report(), report(3, 1));
        s.reset();
        assert_eq!(s.report(), report(0, 0));
    }
}
