//! The network fabric: node registry, RPC, one-way posts, partitions,
//! crashes, and seeded fault injection (see [`crate::fault`]).

use crossbeam::channel::{unbounded, Sender};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polardbx_common::{DcId, Error, NodeId, Result};

use crate::fault::{FaultPlan, FaultState, FaultStats, OneShotFault};
use crate::latency::LatencyMatrix;

/// A service that can be attached to the network under a [`NodeId`].
///
/// `handle` services synchronous RPCs; `handle_oneway` services posted
/// messages (fire-and-forget, delivered in order by a per-node thread).
pub trait Handler<M: Send + 'static>: Send + Sync {
    /// Handle a synchronous request, producing a reply.
    fn handle(&self, from: NodeId, msg: M) -> M;

    /// Handle a one-way message. Default: ignore.
    fn handle_oneway(&self, from: NodeId, msg: M) {
        let _ = (from, msg);
    }
}

/// Per-link traffic counters.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Total synchronous calls made.
    pub calls: AtomicU64,
    /// Total one-way messages posted.
    pub posts: AtomicU64,
    /// Calls that crossed a datacenter boundary.
    pub cross_dc_calls: AtomicU64,
    /// Posts that crossed a datacenter boundary.
    pub cross_dc_posts: AtomicU64,
    /// Blocking waits by a caller: a [`SimNet::call`] is a round of one, a
    /// [`SimNet::call_many`] is one round however many messages it carries.
    pub rounds: AtomicU64,
}

impl NetStats {
    /// Snapshot (calls, posts, cross_dc_calls, cross_dc_posts).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.posts.load(Ordering::Relaxed),
            self.cross_dc_calls.load(Ordering::Relaxed),
            self.cross_dc_posts.load(Ordering::Relaxed),
        )
    }
}

struct Registration<M: Send + 'static> {
    dc: DcId,
    service: Arc<dyn Handler<M>>,
    oneway_tx: Sender<(NodeId, M, Instant)>,
}

/// The in-process network. Generic over the message type `M`; protocol
/// crates instantiate it with their own enum of RPCs.
pub struct SimNet<M: Send + 'static> {
    latency: LatencyMatrix,
    nodes: RwLock<HashMap<NodeId, Registration<M>>>,
    partitions: RwLock<HashSet<(DcId, DcId)>>,
    crashed: Arc<RwLock<HashSet<NodeId>>>,
    faults: RwLock<Option<Arc<FaultState>>>,
    shutdown: Arc<AtomicBool>,
    /// Traffic counters (public so harnesses can report them).
    pub stats: NetStats,
    /// Injected-fault counters (shared with delivery threads).
    pub fault_stats: Arc<FaultStats>,
}

impl<M: Send + 'static> SimNet<M> {
    /// Create a fabric with the given latency model.
    pub fn new(latency: LatencyMatrix) -> Arc<SimNet<M>> {
        Arc::new(SimNet {
            latency,
            nodes: RwLock::new(HashMap::new()),
            partitions: RwLock::new(HashSet::new()),
            crashed: Arc::new(RwLock::new(HashSet::new())),
            faults: RwLock::new(None),
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: NetStats::default(),
            fault_stats: Arc::new(FaultStats::default()),
        })
    }

    /// Register `service` as `node` living in `dc`. Spawns the node's
    /// one-way delivery thread, which exits once the registration is
    /// replaced or the fabric dropped.
    pub fn register(&self, node: NodeId, dc: DcId, service: Arc<dyn Handler<M>>) {
        let (tx, rx) = unbounded::<(NodeId, M, Instant)>();
        let svc = Arc::clone(&service);
        let shutdown = Arc::clone(&self.shutdown);
        let crashed = Arc::clone(&self.crashed);
        let fault_stats = Arc::clone(&self.fault_stats);
        std::thread::Builder::new()
            .name(format!("simnet-deliver-{node}"))
            .spawn(move || {
                while let Ok((from, msg, deliver_at)) = rx.recv() {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    // Propagation delay, not serialization delay: messages
                    // posted close together arrive close together. Sleep
                    // only the remaining time until this message's arrival.
                    sleep_until(deliver_at);
                    // A crashed destination loses in-flight messages: the
                    // node stays registered (it can restart) but nothing
                    // reaches its handler while it is down.
                    if crashed.read().contains(&node) {
                        fault_stats.blackholed.inc();
                        continue;
                    }
                    svc.handle_oneway(from, msg);
                }
            })
            .expect("spawn delivery thread");
        self.nodes
            .write()
            .insert(node, Registration { dc, service, oneway_tx: tx });
    }

    /// Crash a node: all traffic to and from it is black-holed (calls time
    /// out, posts vanish) but it stays registered and keeps its delivery
    /// thread, so a restart can bring it back.
    ///
    /// Two restart flavors exist with distinct contracts:
    /// [`SimNet::restart_resume`] (the node's memory survived — a network
    /// hiccup, not a process death) and [`SimNet::restart_amnesia`] (the
    /// process died; only durable artifacts come back).
    pub fn crash(&self, node: NodeId) {
        self.crashed.write().insert(node);
    }

    /// **Resume** restart: the node comes back with all volatile state
    /// intact, as if it had merely been unreachable. Messages lost while
    /// down stay lost. This models a network black-hole or a long GC pause
    /// — NOT a process death; nothing is recovered because nothing was
    /// forgotten.
    pub fn restart_resume(&self, node: NodeId) {
        self.crashed.write().remove(&node);
    }

    /// **Amnesia** restart: the node comes back having lost every byte of
    /// volatile state; only its durable artifacts (WAL sink contents up to
    /// the flushed horizon, possibly with a torn tail) survive.
    ///
    /// The fabric is generic over `M` and owns no node state, so whoever
    /// restarts the node (for a DN, `PolarDbx::restart_amnesia`) owns the
    /// amnesia contract: before calling this it must
    /// discard the old service, rebuild a fresh one from the durable sink
    /// (scan-and-truncate, redo replay, in-doubt re-adoption), and hand it
    /// to [`SimNet::register`] — re-registering a [`NodeId`] atomically
    /// replaces the old handler. Calling `restart_amnesia` while the old
    /// service is still registered violates the model: the "reborn" node
    /// would answer from remembered state.
    pub fn restart_amnesia(&self, node: NodeId) {
        self.crashed.write().remove(&node);
        self.fault_stats.amnesia_restarts.inc();
    }

    /// Is `node` currently crashed?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.read().contains(&node)
    }

    /// Install a fault plan. Replaces any active plan; the plan's seeded RNG
    /// starts fresh, so installing the same plan twice replays the same
    /// fault sequence.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.faults.write() = Some(Arc::new(FaultState::new(plan)));
    }

    /// Remove the active fault plan (crashed nodes stay crashed).
    pub fn clear_fault_plan(&self) {
        *self.faults.write() = None;
    }

    /// Record a send by `from` against the active plan's one-shot schedule,
    /// applying any triggered faults. Returns true if the triggering message
    /// itself must be dropped.
    fn apply_one_shots(&self, from: NodeId) -> bool {
        let state = match &*self.faults.read() {
            Some(s) => Arc::clone(s),
            None => return false,
        };
        let mut drop_this = false;
        for fault in state.on_send(from) {
            self.fault_stats.one_shots_fired.inc();
            match fault {
                OneShotFault::Crash(node) => self.crash(node),
                OneShotFault::DropNext => drop_this = true,
            }
        }
        drop_this
    }

    /// Record a durable-log flush by `node` against the active plan's
    /// flush-shot schedule (see [`crate::fault::FlushShot`]), applying any
    /// triggered faults. Returns true when `node` is crashed after the
    /// triggers fire — the caller's sink must then FAIL the flush, because
    /// a node that died at its Nth flush never completed that flush.
    ///
    /// Durable sinks live above the fabric (the fabric carries messages,
    /// not disks), so sink wrappers call this once per write to make
    /// "crash at Nth flush" schedulable alongside the send-count one-shots.
    pub fn note_flush(&self, node: NodeId) -> bool {
        let state = self.faults.read().clone();
        if let Some(state) = state {
            for fault in state.on_flush(node) {
                self.fault_stats.one_shots_fired.inc();
                match fault {
                    OneShotFault::Crash(n) => self.crash(n),
                    // DropNext is send-scoped; on a flush it means "this
                    // flush is lost", which the return value conveys only
                    // for crashes — treat it as a no-op here.
                    OneShotFault::DropNext => {}
                }
            }
        }
        self.is_crashed(node)
    }

    /// Datacenter of a node, if registered.
    pub fn dc_of(&self, node: NodeId) -> Option<DcId> {
        self.nodes.read().get(&node).map(|r| r.dc)
    }

    /// Sever connectivity between two datacenters (both directions).
    pub fn partition(&self, a: DcId, b: DcId) {
        let mut p = self.partitions.write();
        p.insert((a, b));
        p.insert((b, a));
    }

    /// Restore connectivity between two datacenters.
    pub fn heal(&self, a: DcId, b: DcId) {
        let mut p = self.partitions.write();
        p.remove(&(a, b));
        p.remove(&(b, a));
    }

    fn check_link(&self, a: DcId, b: DcId) -> Result<()> {
        if self.partitions.read().contains(&(a, b)) {
            return Err(Error::Network { message: format!("partition between {a} and {b}") });
        }
        Ok(())
    }

    /// The latency model in force.
    pub fn latency(&self) -> &LatencyMatrix {
        &self.latency
    }

    /// Stop delivery threads. Called on teardown; nodes stay registered but
    /// one-way delivery halts.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut nodes = self.nodes.write();
        for (_, reg) in nodes.iter_mut() {
            // Closing the channel wakes the delivery thread.
            let (tx, _rx) = unbounded();
            reg.oneway_tx = tx;
        }
    }
}

/// A request that has left its sender: what [`SimNet::send_request`] rolled
/// for the outbound leg, and where the leg ends.
struct Outbound<M: Send + 'static> {
    service: Arc<dyn Handler<M>>,
    from_dc: DcId,
    to_dc: DcId,
    /// The plan in force when the request left; its reply rolls against it.
    faults: Option<Arc<FaultState>>,
    /// One-way delay of this leg, spike included.
    delay: Duration,
    /// The request vanishes on the way: the handler never runs.
    lost: bool,
    /// The handler runs twice (the first reply has no slot to return in).
    duplicate: bool,
}

/// A reply on its way back to the caller.
struct Inbound<M> {
    reply: M,
    delay: Duration,
    /// The handler ran, but the caller will never know.
    lost: bool,
}

/// A message of a [`SimNet::call_many`] round that is still on the wire.
enum InFlight<M: Send + 'static> {
    Request { to: NodeId, out: Outbound<M>, msg: M },
    Reply { to: NodeId, back: Inbound<M> },
}

fn sleep_until(at: Instant) {
    // lint:allow(determinism, "latency-model pacing: the arrival instant is seed-derived; the real clock only times the sleep")
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

impl<M: Send + Clone + 'static> SimNet<M> {
    /// Synchronous RPC from `from` to `to`: sleeps the one-way delay, runs
    /// the destination handler on the calling thread, sleeps the return
    /// delay, and returns the reply. Concurrency comes from concurrent
    /// callers, exactly like a thread-per-connection server, or from
    /// [`SimNet::call_many`] when one caller has several messages to send.
    ///
    /// Under an active [`FaultPlan`] the request and reply legs are rolled
    /// independently: a dropped request means the handler never ran, while a
    /// dropped reply means it DID run but the caller cannot tell — both
    /// surface as [`Error::Timeout`], which is exactly the ambiguity 2PC
    /// in-doubt recovery must resolve. A crashed endpoint black-holes the
    /// call (also a timeout: a dead peer is indistinguishable from a slow
    /// one).
    pub fn call(&self, from: NodeId, to: NodeId, msg: M) -> Result<M> {
        self.stats.rounds.fetch_add(1, Ordering::Relaxed);
        self.exchange(from, to, msg)
    }

    /// Scatter-gather: send every `(to, msg)` at once and wait for all the
    /// replies, returned in request order. The outcome is that of issuing
    /// the [`SimNet::call`]s concurrently — every message is counted, bumps
    /// the sender's one-shot send counter and rolls its two legs against
    /// the fault plan, in request order — but the caller waits once: the
    /// round costs the slowest exchange, not their sum.
    ///
    /// No thread is spawned. The calling thread plays the round in time
    /// order, sleeping to each message's *absolute* arrival instant (so the
    /// sleeps of messages in flight together overlap) and running each
    /// destination handler as its request lands; handlers of one round
    /// therefore run one after another. A round of one is `call`.
    pub fn call_many(&self, from: NodeId, mut msgs: Vec<(NodeId, M)>) -> Vec<Result<M>> {
        if msgs.is_empty() {
            return Vec::new();
        }
        self.stats.rounds.fetch_add(1, Ordering::Relaxed);
        if msgs.len() == 1 {
            let (to, msg) = msgs.pop().expect("one message");
            return vec![self.exchange(from, to, msg)];
        }
        // lint:allow(determinism, "latency-model pacing: delays are seed-derived; the real clock only anchors the arrival instants")
        let sent = Instant::now();
        let mut results: Vec<Option<Result<M>>> = msgs.iter().map(|_| None).collect();
        let mut wire: Vec<(Instant, usize, InFlight<M>)> = Vec::with_capacity(msgs.len());
        for (i, (to, msg)) in msgs.into_iter().enumerate() {
            match self.send_request(from, to) {
                Ok(out) => wire.push((sent + out.delay, i, InFlight::Request { to, out, msg })),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        // Next to land; messages landing together keep request order.
        while let Some(next) = (0..wire.len()).min_by_key(|&w| (wire[w].0, wire[w].1)) {
            let (lands, i, message) = wire.swap_remove(next);
            sleep_until(lands);
            match message {
                InFlight::Request { to, out, .. } if out.lost => {
                    results[i] = Some(Err(lost_request(from, to)));
                }
                InFlight::Request { to, out, msg } => {
                    let back = self.deliver(from, &out, msg);
                    // lint:allow(determinism, "latency-model pacing: the reply leaves when the handler returns")
                    let lands = Instant::now() + back.delay;
                    wire.push((lands, i, InFlight::Reply { to, back }));
                }
                InFlight::Reply { to, back } => {
                    results[i] = Some(self.receive_reply(from, to, back));
                }
            }
        }
        results.into_iter().map(|r| r.expect("every message of the round ended")).collect()
    }

    /// One request/reply exchange on the calling thread.
    fn exchange(&self, from: NodeId, to: NodeId, msg: M) -> Result<M> {
        let out = self.send_request(from, to)?;
        if !out.delay.is_zero() {
            std::thread::sleep(out.delay);
        }
        if out.lost {
            // The caller waited out its leg of the trip before concluding
            // the request vanished.
            return Err(lost_request(from, to));
        }
        let back = self.deliver(from, &out, msg);
        if !back.delay.is_zero() {
            std::thread::sleep(back.delay);
        }
        self.receive_reply(from, to, back)
    }

    /// Put a request on the wire: resolve both ends, count the send against
    /// the one-shot schedule, refuse a dead endpoint or a severed link, and
    /// roll the outbound leg.
    fn send_request(&self, from: NodeId, to: NodeId) -> Result<Outbound<M>> {
        let (from_dc, to_dc, service) = {
            let nodes = self.nodes.read();
            let from_dc = nodes
                .get(&from)
                .map(|r| r.dc)
                .ok_or_else(|| Error::Network { message: format!("unknown sender {from}") })?;
            let reg = nodes
                .get(&to)
                .ok_or_else(|| Error::Network { message: format!("unknown node {to}") })?;
            (from_dc, reg.dc, Arc::clone(&reg.service))
        };
        let drop_this = self.apply_one_shots(from);
        if self.is_crashed(from) || self.is_crashed(to) {
            self.fault_stats.blackholed.inc();
            return Err(Error::Timeout { what: format!("call {from} -> {to} (node down)") });
        }
        self.check_link(from_dc, to_dc)?;
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        if from_dc != to_dc {
            self.stats.cross_dc_calls.fetch_add(1, Ordering::Relaxed);
        }
        let faults = self.faults.read().clone();
        let req = faults.as_ref().map(|f| f.decide(from_dc, to_dc));
        let delay = self.latency.one_way(from_dc, to_dc);
        let lost = drop_this || req.as_ref().is_some_and(|d| d.drop);
        if lost {
            self.fault_stats.dropped_requests.inc();
        }
        let duplicate = req.as_ref().is_some_and(|d| d.duplicate);
        Ok(Outbound { service, from_dc, to_dc, faults, delay, lost, duplicate })
    }

    /// The request landed: run the handler and roll the reply leg.
    fn deliver(&self, from: NodeId, out: &Outbound<M>, msg: M) -> Inbound<M> {
        let reply = if out.duplicate {
            // Deliver twice: exercises participant idempotency. The first
            // reply is discarded (the network has no slot for it).
            self.fault_stats.duplicated_calls.inc();
            let _ = out.service.handle(from, msg.clone());
            out.service.handle(from, msg)
        } else {
            out.service.handle(from, msg)
        };
        let rep = out.faults.as_ref().map(|f| f.decide(out.to_dc, out.from_dc));
        let delay = self.latency.one_way(out.to_dc, out.from_dc);
        let lost = rep.as_ref().is_some_and(|d| d.drop);
        if lost {
            self.fault_stats.dropped_replies.inc();
        }
        Inbound { reply, delay, lost }
    }

    /// The reply leg ended at the caller.
    fn receive_reply(&self, from: NodeId, to: NodeId, back: Inbound<M>) -> Result<M> {
        if back.lost {
            return Err(Error::Timeout { what: format!("reply {to} -> {from} lost") });
        }
        if self.is_crashed(from) {
            // The caller died while the call was in flight; nobody is left
            // to observe the reply.
            self.fault_stats.blackholed.inc();
            return Err(Error::Timeout { what: format!("caller {from} crashed mid-call") });
        }
        Ok(back.reply)
    }

    /// Fire-and-forget message: enqueued to the destination's delivery
    /// thread, which applies the link delay then invokes `handle_oneway`.
    /// Messages from all senders to one destination are delivered in the
    /// order they were enqueued (FIFO per destination).
    ///
    /// Faults are silent here — a lost or duplicated post returns `Ok` just
    /// like a delivered one, because fire-and-forget senders get no
    /// acknowledgement in the first place.
    pub fn post(&self, from: NodeId, to: NodeId, msg: M) -> Result<()> {
        let (from_dc, to_dc, tx) = {
            let nodes = self.nodes.read();
            let from_dc = nodes
                .get(&from)
                .map(|r| r.dc)
                .ok_or_else(|| Error::Network { message: format!("unknown sender {from}") })?;
            let reg = nodes
                .get(&to)
                .ok_or_else(|| Error::Network { message: format!("unknown node {to}") })?;
            (from_dc, reg.dc, reg.oneway_tx.clone())
        };
        let drop_this = self.apply_one_shots(from);
        if self.is_crashed(from) || self.is_crashed(to) {
            self.fault_stats.blackholed.inc();
            return Ok(());
        }
        self.check_link(from_dc, to_dc)?;
        self.stats.posts.fetch_add(1, Ordering::Relaxed);
        if from_dc != to_dc {
            self.stats.cross_dc_posts.fetch_add(1, Ordering::Relaxed);
        }
        let dec = self.faults.read().as_ref().map(|f| f.decide(from_dc, to_dc));
        if drop_this || dec.as_ref().is_some_and(|d| d.drop) {
            self.fault_stats.dropped_posts.inc();
            return Ok(());
        }
        let delay = self.latency.one_way(from_dc, to_dc);
        // lint:allow(determinism, "latency-model pacing: delay is seed-derived; the real clock only anchors the arrival instant")
        let deliver_at = Instant::now() + delay;
        if dec.as_ref().is_some_and(|d| d.duplicate) {
            self.fault_stats.duplicated_posts.inc();
            let _ = tx.send((from, msg.clone(), deliver_at));
        }
        tx.send((from, msg, deliver_at))
            .map_err(|_| Error::Network { message: format!("node {to} shut down") })
    }
}

fn lost_request(from: NodeId, to: NodeId) -> Error {
    Error::Timeout { what: format!("request {from} -> {to} lost") }
}

impl<M: Send + 'static> Drop for SimNet<M> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    struct Echo {
        received: AtomicU64,
    }

    impl Handler<u64> for Echo {
        fn handle(&self, _from: NodeId, msg: u64) -> u64 {
            msg + 1
        }
        fn handle_oneway(&self, _from: NodeId, msg: u64) {
            self.received.fetch_add(msg, Ordering::Relaxed);
        }
    }

    fn setup(lat: LatencyMatrix) -> (Arc<SimNet<u64>>, Arc<Echo>) {
        let net = SimNet::new(lat);
        let echo = Arc::new(Echo { received: AtomicU64::new(0) });
        net.register(NodeId(1), DcId(1), echo.clone());
        net.register(NodeId(2), DcId(2), echo.clone());
        (net, echo)
    }

    #[test]
    fn rpc_roundtrip() {
        let (net, _) = setup(LatencyMatrix::zero());
        assert_eq!(net.call(NodeId(1), NodeId(2), 41).unwrap(), 42);
        assert_eq!(net.stats.snapshot().0, 1);
        assert_eq!(net.stats.snapshot().2, 1); // cross-DC
    }

    #[test]
    fn rpc_latency_applied() {
        let (net, _) = setup(LatencyMatrix::uniform(Duration::from_millis(2)));
        let t0 = Instant::now();
        net.call(NodeId(1), NodeId(2), 0).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(4), "RTT not applied");
    }

    #[test]
    fn oneway_delivery() {
        let (net, echo) = setup(LatencyMatrix::zero());
        for i in 1..=10 {
            net.post(NodeId(1), NodeId(2), i).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while echo.received.load(Ordering::Relaxed) != 55 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(echo.received.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let (net, _) = setup(LatencyMatrix::zero());
        net.partition(DcId(1), DcId(2));
        assert!(matches!(
            net.call(NodeId(1), NodeId(2), 0),
            Err(Error::Network { .. })
        ));
        assert!(net.post(NodeId(1), NodeId(2), 0).is_err());
        net.heal(DcId(1), DcId(2));
        assert!(net.call(NodeId(1), NodeId(2), 0).is_ok());
    }

    #[test]
    fn unknown_node_errors() {
        let (net, _) = setup(LatencyMatrix::zero());
        assert!(net.call(NodeId(1), NodeId(99), 0).is_err());
        assert!(net.call(NodeId(99), NodeId(1), 0).is_err());
    }

    #[test]
    fn crashed_node_blackholes_and_restart_recovers() {
        let (net, echo) = setup(LatencyMatrix::zero());
        net.crash(NodeId(2));
        assert!(net.is_crashed(NodeId(2)));
        assert!(matches!(
            net.call(NodeId(1), NodeId(2), 0),
            Err(Error::Timeout { .. })
        ));
        // Posts vanish silently.
        net.post(NodeId(1), NodeId(2), 7).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(echo.received.load(Ordering::Relaxed), 0);
        assert!(net.fault_stats.blackholed.get() >= 2);
        // Restart: traffic flows again, lost messages stay lost.
        net.restart_resume(NodeId(2));
        assert_eq!(net.call(NodeId(1), NodeId(2), 41).unwrap(), 42);
    }

    #[test]
    fn crashed_sender_cannot_call_out() {
        let (net, _) = setup(LatencyMatrix::zero());
        net.crash(NodeId(1));
        assert!(matches!(
            net.call(NodeId(1), NodeId(2), 0),
            Err(Error::Timeout { .. })
        ));
    }

    #[test]
    fn full_drop_plan_times_out_every_call() {
        use crate::fault::{FaultPlan, LinkFaults};
        let (net, _) = setup(LatencyMatrix::zero());
        net.set_fault_plan(FaultPlan::new(1).with_all_links(LinkFaults::lossy(1.0)));
        for _ in 0..5 {
            assert!(matches!(
                net.call(NodeId(1), NodeId(2), 0),
                Err(Error::Timeout { .. })
            ));
        }
        assert_eq!(net.fault_stats.dropped_requests.get(), 5);
        net.clear_fault_plan();
        assert!(net.call(NodeId(1), NodeId(2), 0).is_ok());
    }

    #[test]
    fn duplicate_plan_delivers_posts_twice() {
        use crate::fault::{FaultPlan, LinkFaults};
        let (net, echo) = setup(LatencyMatrix::zero());
        net.set_fault_plan(
            FaultPlan::new(1)
                .with_all_links(LinkFaults::none().with_duplicate(1.0)),
        );
        net.post(NodeId(1), NodeId(2), 10).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while echo.received.load(Ordering::Relaxed) != 20 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(echo.received.load(Ordering::Relaxed), 20, "post not duplicated");
        assert_eq!(net.fault_stats.duplicated_posts.get(), 1);
    }

    #[test]
    fn one_shot_crash_fires_on_nth_send() {
        use crate::fault::{FaultPlan, OneShot, OneShotFault};
        let (net, _) = setup(LatencyMatrix::zero());
        net.set_fault_plan(FaultPlan::new(1).with_one_shot(OneShot {
            from: NodeId(1),
            after_sends: 3,
            fault: OneShotFault::Crash(NodeId(1)),
        }));
        assert!(net.call(NodeId(1), NodeId(2), 0).is_ok());
        assert!(net.call(NodeId(1), NodeId(2), 0).is_ok());
        // Third send triggers the crash of the sender itself.
        assert!(matches!(
            net.call(NodeId(1), NodeId(2), 0),
            Err(Error::Timeout { .. })
        ));
        assert!(net.is_crashed(NodeId(1)));
        assert_eq!(net.fault_stats.one_shots_fired.get(), 1);
    }

    #[test]
    fn flush_shot_crashes_at_nth_flush_and_fails_that_flush() {
        use crate::fault::{FaultPlan, FlushShot, OneShotFault};
        let (net, _) = setup(LatencyMatrix::zero());
        net.set_fault_plan(FaultPlan::new(1).with_flush_shot(FlushShot {
            node: NodeId(2),
            after_flushes: 3,
            fault: OneShotFault::Crash(NodeId(2)),
        }));
        assert!(!net.note_flush(NodeId(2))); // 1
        assert!(!net.note_flush(NodeId(2))); // 2
        assert!(net.note_flush(NodeId(2)), "third flush must fail: node died at it");
        assert!(net.is_crashed(NodeId(2)));
        assert_eq!(net.fault_stats.one_shots_fired.get(), 1);
        // Once crashed, every further flush attempt fails too.
        assert!(net.note_flush(NodeId(2)));
    }

    #[test]
    fn restart_amnesia_counts_and_replaces_service() {
        let (net, old) = setup(LatencyMatrix::zero());
        net.crash(NodeId(2));
        assert!(net.call(NodeId(1), NodeId(2), 0).is_err());
        // The harness rebuilds a fresh service from durable artifacts and
        // re-registers it; the fabric swaps handlers atomically.
        let reborn = Arc::new(Echo { received: AtomicU64::new(0) });
        net.register(NodeId(2), DcId(2), reborn.clone());
        net.restart_amnesia(NodeId(2));
        assert_eq!(net.fault_stats.amnesia_restarts.get(), 1);
        assert_eq!(net.call(NodeId(1), NodeId(2), 41).unwrap(), 42);
        net.post(NodeId(1), NodeId(2), 7).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while reborn.received.load(Ordering::Relaxed) != 7 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reborn.received.load(Ordering::Relaxed), 7, "post reaches reborn service");
        assert_eq!(old.received.load(Ordering::Relaxed), 0, "old service stays silent");
    }

    #[test]
    fn same_seed_same_fault_sequence_on_fabric() {
        use crate::fault::{FaultPlan, LinkFaults};
        let outcomes = |seed: u64| -> Vec<bool> {
            let (net, _) = setup(LatencyMatrix::zero());
            net.set_fault_plan(
                FaultPlan::new(seed).with_all_links(LinkFaults::lossy(0.4)),
            );
            (0..50).map(|i| net.call(NodeId(1), NodeId(2), i).is_ok()).collect()
        };
        assert_eq!(outcomes(99), outcomes(99));
    }

    /// Echo plus a log of the order requests were handled in.
    struct Recording {
        handled: parking_lot::Mutex<Vec<u64>>,
    }

    impl Handler<u64> for Recording {
        fn handle(&self, _from: NodeId, msg: u64) -> u64 {
            self.handled.lock().push(msg);
            msg + 1
        }
    }

    /// A caller in DC1 and one recording node in each of DC1..=DC3.
    fn three_dcs(lat: LatencyMatrix) -> (Arc<SimNet<u64>>, Arc<Recording>) {
        let net = SimNet::new(lat);
        let rec = Arc::new(Recording { handled: parking_lot::Mutex::new(Vec::new()) });
        net.register(NodeId(9), DcId(1), rec.clone());
        for i in 1..=3 {
            net.register(NodeId(i), DcId(i), rec.clone());
        }
        (net, rec)
    }

    #[test]
    fn call_many_replies_in_request_order_and_counts_every_message() {
        let (net, rec) = three_dcs(LatencyMatrix::zero());
        let replies = net.call_many(NodeId(9), vec![(NodeId(3), 30), (NodeId(1), 10), (NodeId(2), 20)]);
        let replies: Vec<u64> = replies.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(replies, vec![31, 11, 21]);
        assert_eq!(*rec.handled.lock(), vec![30, 10, 20], "equal arrivals keep request order");
        assert_eq!(net.stats.snapshot(), (3, 0, 2, 0));
        assert_eq!(net.stats.rounds.load(Ordering::Relaxed), 1);
        // A round of one is a call; an empty round is no wait at all.
        assert_eq!(net.call_many(NodeId(9), vec![(NodeId(2), 1)])[0].as_ref().unwrap(), &2);
        assert!(net.call_many(NodeId(9), Vec::new()).is_empty());
        net.call(NodeId(9), NodeId(2), 1).unwrap();
        assert_eq!(net.stats.rounds.load(Ordering::Relaxed), 3);
        assert_eq!(net.stats.snapshot().0, 5);
    }

    #[test]
    fn call_many_costs_the_slowest_exchange_and_lands_nearest_first() {
        let lat = LatencyMatrix {
            intra_dc: Duration::ZERO,
            inter_dc: Duration::from_millis(5),
            jitter: 0.0,
        };
        let (net, rec) = three_dcs(lat);
        let msgs: Vec<(NodeId, u64)> =
            (0..8).map(|i| (NodeId(3 - i % 3), i)).collect();
        let t0 = Instant::now();
        let replies = net.call_many(NodeId(9), msgs);
        let took = t0.elapsed();
        assert!(replies.iter().enumerate().all(|(i, r)| *r.as_ref().unwrap() == i as u64 + 1));
        assert!(took >= Duration::from_millis(10), "one RTT applied: {took:?}");
        assert!(took < Duration::from_millis(40), "eight RTTs in series would be 80 ms: {took:?}");
        // The same-DC node (messages 2 and 5) is reached at once, the rest
        // one inter-DC delay later, in request order.
        assert_eq!(*rec.handled.lock(), vec![2, 5, 0, 1, 3, 4, 6, 7]);
    }

    #[test]
    fn call_many_fails_only_the_message_at_fault() {
        use crate::fault::{FaultPlan, OneShot, OneShotFault};
        let (net, rec) = three_dcs(LatencyMatrix::zero());
        // The sender's 2nd send vanishes; an unknown destination and a
        // severed link are refused at send time. The rest go through.
        net.set_fault_plan(FaultPlan::new(1).with_one_shot(OneShot {
            from: NodeId(9),
            after_sends: 2,
            fault: OneShotFault::DropNext,
        }));
        net.partition(DcId(1), DcId(3));
        let replies = net.call_many(
            NodeId(9),
            vec![(NodeId(1), 1), (NodeId(2), 2), (NodeId(77), 3), (NodeId(3), 4), (NodeId(2), 5)],
        );
        assert_eq!(replies[0].as_ref().unwrap(), &2);
        assert!(matches!(replies[1], Err(Error::Timeout { .. })));
        assert!(matches!(replies[2], Err(Error::Network { .. })));
        assert!(matches!(replies[3], Err(Error::Network { .. })));
        assert_eq!(replies[4].as_ref().unwrap(), &6);
        assert_eq!(*rec.handled.lock(), vec![1, 5]);
        assert_eq!(net.fault_stats.dropped_requests.get(), 1);
        assert_eq!(net.stats.snapshot().0, 3, "refused sends are not calls");
    }

    #[test]
    fn call_many_rolls_each_leg_like_the_same_calls_in_series() {
        use crate::fault::{FaultPlan, LinkFaults};
        let plan = |seed| {
            FaultPlan::new(seed).with_cross_dc(LinkFaults::lossy(0.3).with_duplicate(0.3))
        };
        let stats = |net: &SimNet<u64>| {
            let f = &net.fault_stats;
            [f.dropped_requests.get(), f.dropped_replies.get(), f.duplicated_calls.get()]
        };
        for seed in [7, 8, 9] {
            let msgs: Vec<(NodeId, u64)> = (0..40).map(|i| (NodeId(2 + i % 2), i)).collect();
            let (serial, _) = three_dcs(LatencyMatrix::zero());
            serial.set_fault_plan(plan(seed));
            let one_by_one: Vec<bool> =
                msgs.iter().map(|&(to, m)| serial.call(NodeId(9), to, m).is_ok()).collect();
            let (fanned, _) = three_dcs(LatencyMatrix::zero());
            fanned.set_fault_plan(plan(seed));
            let together: Vec<bool> =
                fanned.call_many(NodeId(9), msgs).iter().map(|r| r.is_ok()).collect();
            assert_eq!(together, one_by_one, "seed {seed}");
            assert_eq!(stats(&fanned), stats(&serial), "seed {seed}");
            assert!(stats(&fanned).iter().all(|n| *n > 0), "seed {seed} injected every fault");
        }
    }

    #[test]
    fn call_many_sender_crash_mid_round_loses_every_reply() {
        use crate::fault::{FaultPlan, OneShot, OneShotFault};
        let (net, rec) = three_dcs(LatencyMatrix::zero());
        net.set_fault_plan(FaultPlan::new(1).with_one_shot(OneShot {
            from: NodeId(9),
            after_sends: 2,
            fault: OneShotFault::Crash(NodeId(9)),
        }));
        let replies = net.call_many(NodeId(9), vec![(NodeId(1), 1), (NodeId(2), 2), (NodeId(3), 3)]);
        assert!(replies.iter().all(|r| matches!(r, Err(Error::Timeout { .. }))));
        // The first request had left before the sender died: it was served,
        // and nobody was left to hear the answer.
        assert_eq!(*rec.handled.lock(), vec![1]);
    }

    #[test]
    fn concurrent_calls_overlap() {
        // With a 5 ms one-way delay, 8 concurrent calls should take far less
        // than 8 * 10 ms if they truly overlap.
        let (net, _) = setup(LatencyMatrix::uniform(Duration::from_millis(5)));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || net.call(NodeId(1), NodeId(2), 1).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 2);
        }
        assert!(t0.elapsed() < Duration::from_millis(60));
    }
}
