//! Group assembly helper and whole-group integration tests.

use std::sync::Arc;

use polardbx_common::{DcId, NodeId};
use polardbx_simnet::{LatencyMatrix, SimNet};
use polardbx_wal::{LogSink, VecSink};

use crate::msg::PaxosMsg;
use crate::replica::{Replica, Role};

/// One member in a group blueprint.
#[derive(Debug, Clone)]
pub struct MemberSpec {
    /// Node id.
    pub node: NodeId,
    /// Datacenter.
    pub dc: DcId,
    /// Logger members persist but cannot lead (§III).
    pub logger: bool,
}

/// Group-level configuration.
#[derive(Clone)]
pub struct GroupConfig {
    /// Members (first non-logger is bootstrapped as leader).
    pub members: Vec<MemberSpec>,
    /// Network latency model.
    pub latency: LatencyMatrix,
}

impl GroupConfig {
    /// The paper's deployment shape: leader in DC1, follower in DC2,
    /// logger in DC3 ("2.5 replicas": logger holds log only).
    pub fn three_dc(base_node: u64) -> GroupConfig {
        GroupConfig {
            members: vec![
                MemberSpec { node: NodeId(base_node), dc: DcId(1), logger: false },
                MemberSpec { node: NodeId(base_node + 1), dc: DcId(2), logger: false },
                MemberSpec { node: NodeId(base_node + 2), dc: DcId(3), logger: true },
            ],
            latency: LatencyMatrix::zero(),
        }
    }

    /// Use a specific latency model.
    pub fn with_latency(mut self, latency: LatencyMatrix) -> GroupConfig {
        self.latency = latency;
        self
    }
}

/// An assembled group: replicas registered on a shared fabric.
pub struct PaxosGroup {
    /// The network fabric.
    pub net: Arc<SimNet<PaxosMsg>>,
    /// Replicas, in `members` order.
    pub replicas: Vec<Arc<Replica>>,
    /// Each replica's durable log sink, in the same order.
    pub sinks: Vec<Arc<VecSink>>,
}

impl PaxosGroup {
    /// Build the group and bootstrap the first non-logger member as leader
    /// at epoch 1.
    pub fn build(config: GroupConfig) -> PaxosGroup {
        let net = SimNet::new(config.latency.clone());
        let ids: Vec<NodeId> = config.members.iter().map(|m| m.node).collect();
        let mut replicas = Vec::new();
        let mut sinks = Vec::new();
        for m in &config.members {
            let sink = VecSink::new();
            let replica = Replica::new(
                m.node,
                m.dc,
                ids.clone(),
                m.logger,
                Arc::clone(&net),
                sink.clone() as Arc<dyn LogSink>,
            );
            net.register(m.node, m.dc, replica.clone());
            replicas.push(replica);
            sinks.push(sink);
        }
        if let Some(first) = config
            .members
            .iter()
            .position(|m| !m.logger)
        {
            replicas[first].bootstrap_leader(1);
        }
        PaxosGroup { net, replicas, sinks }
    }

    /// The current leader, if any replica believes it is one.
    pub fn leader(&self) -> Option<Arc<Replica>> {
        self.replicas.iter().find(|r| r.status().role == Role::Leader).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parking_lot::Mutex;
    use polardbx_common::testseed::{format_seed, seed_from_env};
    use polardbx_common::{Key, Lsn, TableId, TrxId, Value};
    use polardbx_wal::{Mtr, RedoPayload};
    use polardbx_simnet::{FaultPlan, Handler, LinkFaults};
    use std::time::{Duration, Instant};

    impl PaxosGroup {
        /// Block until every live replica's DLSN reaches `lsn` (or timeout).
        fn await_dlsn(&self, lsn: Lsn, timeout: Duration) -> bool {
            let deadline = Instant::now() + timeout;
            while Instant::now() < deadline {
                if self.replicas.iter().all(|r| r.status().dlsn >= lsn) {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            false
        }
    }

    fn mtr(n: i64) -> Mtr {
        Mtr::single(RedoPayload::Insert {
            trx: TrxId(1),
            table: TableId(1),
            key: Key::encode(&[Value::Int(n)]),
            row: Bytes::from(vec![b'x'; 32]),
        })
    }

    fn commit_mtr(n: u64) -> Mtr {
        Mtr::single(RedoPayload::TxnCommit { trx: TrxId(n), commit_ts: n })
    }

    #[test]
    fn replicate_advances_dlsn_on_majority() {
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();
        let lsn = leader.replicate_and_wait(&[mtr(1), mtr(2)], Duration::from_secs(2)).unwrap();
        assert!(lsn > Lsn::ZERO);
        assert!(g.await_dlsn(lsn, Duration::from_secs(2)), "DLSN must disseminate");
        // All three sinks (including the logger's) persisted the frames.
        for sink in &g.sinks {
            assert!(!sink.writes().is_empty());
        }
    }

    #[test]
    fn async_commit_overlaps_replication() {
        // Many transactions wait concurrently; one ack stream commits all.
        let d = Duration::from_millis(2);
        let latency = LatencyMatrix { intra_dc: d, inter_dc: d, jitter: 0.0 };
        let g = PaxosGroup::build(GroupConfig::three_dc(1).with_latency(latency));
        let leader = g.leader().unwrap();
        let t0 = Instant::now();
        let mut rxs = Vec::new();
        for i in 0..16u64 {
            let lsn = leader.replicate(&[commit_mtr(i)]).unwrap();
            rxs.push(leader.waiters.register(lsn));
        }
        for rx in rxs {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(2)).unwrap(),
                crate::waiters::CommitOutcome::Durable
            );
        }
        // 16 sequential round trips would cost >= 64 ms; pipelining keeps it
        // low. The margin assumes native-speed compute, so the sanitizer job
        // (which exports TSAN_OPTIONS) skips only this wall-clock assertion —
        // the pipelined commit path above still runs under TSan for race
        // coverage.
        if std::env::var_os("TSAN_OPTIONS").is_none() {
            assert!(t0.elapsed() < Duration::from_millis(60), "not pipelined: {:?}", t0.elapsed());
        }
    }

    #[test]
    fn follower_applies_only_up_to_dlsn() {
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let follower = g.replicas[1].clone();
        let applied = Arc::new(Mutex::new(Vec::new()));
        let applied2 = applied.clone();
        follower.set_apply(Box::new(move |f| {
            applied2.lock().push((f.lsn_start, f.lsn_end));
        }));
        let leader = g.leader().unwrap();
        let lsn = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(2)).unwrap();
        g.await_dlsn(lsn, Duration::from_secs(2));
        let frames = applied.lock().clone();
        assert!(!frames.is_empty(), "follower must apply durable frames");
        let st = follower.status();
        assert!(st.applied <= st.dlsn, "never apply beyond DLSN");
    }

    #[test]
    fn failover_elects_follower_and_old_leader_truncates() {
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();
        let lsn = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(2)).unwrap();
        assert!(g.await_dlsn(lsn, Duration::from_secs(2)));

        // Partition the leader's DC; it can no longer reach a majority.
        g.net.partition(DcId(1), DcId(2));
        g.net.partition(DcId(1), DcId(3));
        // An uncommitted tail accumulates on the old leader.
        let _ = leader.replicate(&[mtr(99)]);
        let tail = leader.status().last_lsn;
        assert!(tail > lsn);
        let abandoned = leader.log_frames().last().unwrap().payload.clone();

        // The DC2 follower campaigns and wins with the logger's vote.
        g.replicas[1].campaign();
        let deadline = Instant::now() + Duration::from_secs(2);
        while g.replicas[1].status().role != Role::Leader && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(g.replicas[1].status().role, Role::Leader, "follower must win");
        assert_eq!(g.replicas[2].status().role, Role::Logger, "logger stays logger");

        // Heal; old leader hears the higher epoch, steps down, truncates.
        g.net.heal(DcId(1), DcId(2));
        g.net.heal(DcId(1), DcId(3));
        let new_leader = g.replicas[1].clone();
        let lsn2 = new_leader.replicate_and_wait(&[mtr(2)], Duration::from_secs(2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            let st = leader.status();
            if st.role == Role::Follower && st.last_lsn >= lsn2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let st = leader.status();
        assert_eq!(st.role, Role::Follower);
        assert_eq!(st.leader, Some(g.replicas[1].me));
        assert!(st.last_lsn >= lsn2, "old leader resyncs from new leader");
        let frames = leader.log_frames();
        assert_eq!(frames.last().unwrap().lsn_end, st.last_lsn);
        assert!(
            frames.iter().all(|f| f.payload != abandoned),
            "the deposed leader truncated the abandoned tail"
        );
    }

    #[test]
    fn replicate_encodes_each_frame_once() {
        // The happy-path replicate must encode a frame exactly once: the
        // leader's sink write and all peer AppendEntries share the same
        // `Bytes`. The counter would read 2× frames with the old double
        // `f.encode()`.
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();
        for i in 0..10u64 {
            leader.replicate_and_wait(&[commit_mtr(i)], Duration::from_secs(2)).unwrap();
        }
        let frames = leader.log_frames().len() as u64;
        assert!(frames >= 10);
        assert_eq!(
            leader.metrics.frames_encoded.get(),
            frames,
            "each frame encoded exactly once on the replicate path"
        );
        // Followers received intact (checksummed) frames.
        let lsn = leader.status().last_lsn;
        assert!(g.await_dlsn(lsn, Duration::from_secs(2)));
        assert_eq!(g.replicas[1].log_frames().len() as u64, frames);
    }

    #[test]
    fn logger_never_campaigns() {
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        g.replicas[2].campaign();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(g.replicas[2].status().role, Role::Logger);
    }

    #[test]
    fn vote_rejected_for_incomplete_log() {
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();
        // Partition DC3 (logger) so it misses entries.
        g.net.partition(DcId(1), DcId(3));
        g.net.partition(DcId(2), DcId(3));
        let lsn = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(2)).unwrap();
        assert!(lsn > Lsn::ZERO);
        g.net.heal(DcId(1), DcId(3));
        g.net.heal(DcId(2), DcId(3));
        // DC2 follower holds the full log; it must refuse a vote for a
        // candidate with a shorter log. Simulate by having the up-to-date
        // follower receive a RequestVote from the (stale) logger's position:
        // we drive the message directly.
        let follower = g.replicas[1].clone();
        follower.handle_oneway(
            g.replicas[2].me,
            PaxosMsg::RequestVote { epoch: 99, candidate: g.replicas[2].me, last_lsn: Lsn::ZERO },
        );
        // Vote goes back to the logger; what matters is the follower did not
        // step down blindly into the stale candidate's epoch as leaderless
        // follower granting leadership.
        std::thread::sleep(Duration::from_millis(10));
        assert_ne!(follower.status().leader, Some(g.replicas[2].me));
    }

    #[test]
    fn single_node_group_commits_locally() {
        let config = GroupConfig {
            members: vec![MemberSpec { node: NodeId(7), dc: DcId(1), logger: false }],
            latency: LatencyMatrix::zero(),
        };
        let g = PaxosGroup::build(config);
        let leader = g.leader().unwrap();
        let lsn = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(1)).unwrap();
        assert_eq!(leader.status().dlsn, lsn);
    }

    #[test]
    fn non_leader_rejects_writes() {
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let err = g.replicas[1].replicate(&[mtr(1)]).unwrap_err();
        assert!(matches!(err, polardbx_common::Error::NotLeader { .. }));
    }

    #[test]
    fn ticker_elects_after_leader_silence() {
        let g = PaxosGroup::build(GroupConfig::three_dc(40));
        let leader = g.leader().unwrap();
        let lsn = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(2)).unwrap();
        g.await_dlsn(lsn, Duration::from_secs(2));
        // Start follower ticker with a short election timeout, then silence
        // the leader by partitioning it away.
        let ticker = g.replicas[1].start_ticker(Duration::from_millis(10), Duration::from_millis(50));
        g.net.partition(DcId(1), DcId(2));
        g.net.partition(DcId(1), DcId(3));
        let deadline = Instant::now() + Duration::from_secs(3);
        while g.replicas[1].status().role != Role::Leader && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        ticker.stop();
        assert_eq!(g.replicas[1].status().role, Role::Leader);
    }

    #[test]
    fn amnesia_restarted_follower_rejoins_from_durable_log() {
        // Crash the DC2 follower, let the group commit past it, then
        // rebuild the follower purely from its durable sink — with a torn
        // tail, so the checksum scan must discard the last frame — and
        // verify the leader's catch-up path backfills everything.
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();
        // Two separate batches → two frames on disk, so a torn tail can
        // destroy the second while the first stays scannable.
        let lsn0 = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(2)).unwrap();
        let lsn1 = leader.replicate_and_wait(&[mtr(2)], Duration::from_secs(2)).unwrap();
        assert!(lsn1 > lsn0);
        assert!(g.await_dlsn(lsn1, Duration::from_secs(2)));

        let victim = g.replicas[1].me;
        g.net.crash(victim);
        // Majority still holds via leader + logger.
        let lsn2 = leader.replicate_and_wait(&[mtr(3)], Duration::from_secs(2)).unwrap();
        assert!(lsn2 > lsn1);

        // Amnesia restart: only the sink survives. Model an un-fsynced
        // tail by corrupting the final frame; the scan must stop there.
        let sink = g.sinks[1].clone();
        sink.corrupt_tail(4);
        let scan = polardbx_wal::scan_frames(&sink.frame_stream());
        assert!(scan.torn.is_some(), "corrupted tail frame must fail its checksum");
        let durable = scan.durable_lsn().expect("clean prefix survives");
        assert_eq!(durable, lsn0, "scan keeps exactly the frames before the tear");
        sink.truncate_frames_to(durable);

        let recovered = Replica::recovered(
            victim,
            DcId(2),
            g.replicas.iter().map(|r| r.me).collect(),
            false,
            Arc::clone(&g.net),
            sink.clone() as Arc<dyn LogSink>,
            scan.frames,
        );
        assert_eq!(recovered.status().last_lsn, durable);
        assert_eq!(recovered.status().dlsn, Lsn::ZERO, "durable horizon is learned, not remembered");
        g.net.register(victim, DcId(2), recovered.clone());
        g.net.restart_amnesia(victim);

        // One catch-up round: the heartbeat ack reports the short log and
        // the leader retransmits the missing slots (including the frame
        // the tear destroyed).
        leader.sync_followers();
        let deadline = Instant::now() + Duration::from_secs(2);
        while recovered.status().dlsn < lsn2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let st = recovered.status();
        assert!(st.last_lsn >= lsn2, "rejoined follower must backfill to the group tail");
        assert!(st.dlsn >= lsn2, "rejoined follower must re-learn the durable horizon");
        assert_eq!(
            recovered.log_frames().len(),
            leader.log_frames().len(),
            "recovered log converges with the leader's"
        );
        assert!(g.net.fault_stats.amnesia_restarts.get() >= 1);
    }

    #[test]
    fn replicate_raw_carries_the_exact_bytes_and_chunks_on_cuts() {
        // An epoch is a pre-encoded concatenation of records; raw replication
        // must deliver those exact bytes to every replica, chunked into
        // frames only at record-aligned cut points.
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();

        // Build a payload big enough to force several frames: each record is
        // ~1 KiB, 40 of them ≈ 40 KiB > MAX_FRAME_PAYLOAD.
        let mut payload = Vec::new();
        let mut cuts = Vec::new();
        for n in 0..40i64 {
            RedoPayload::Insert {
                trx: TrxId(7),
                table: TableId(1),
                key: Key::encode(&[Value::Int(n)]),
                row: Bytes::from(vec![b'y'; 1000]),
            }
            .encode(&mut payload);
            cuts.push(payload.len());
        }
        let lsn = leader.replicate_raw(&payload, &cuts).unwrap();
        leader.waiters.wait(lsn, Duration::from_secs(2)).unwrap();
        assert!(g.await_dlsn(lsn, Duration::from_secs(2)));

        // Reassembling every frame's payload recovers the epoch bytes, and
        // no frame exceeds the wire bound or splits a record.
        let frames = leader.log_frames();
        assert!(frames.len() >= 3, "40 KiB must span several frames, got {}", frames.len());
        let mut reassembled = Vec::new();
        for f in &frames {
            assert!(f.payload.len() <= polardbx_wal::MAX_FRAME_PAYLOAD);
            reassembled.extend_from_slice(&f.payload);
            assert!(
                cuts.contains(&reassembled.len()),
                "frame boundary at {} is not record-aligned",
                reassembled.len()
            );
        }
        assert_eq!(reassembled, payload, "raw replication must be byte-exact");
        // Followers hold the identical frame stream.
        for r in &g.replicas[1..] {
            let fr = r.log_frames();
            let follower_bytes: Vec<u8> =
                fr.iter().flat_map(|f| f.payload.iter().copied()).collect();
            assert_eq!(follower_bytes, payload);
        }
    }

    #[test]
    fn replicate_raw_rejects_an_unsplittable_record() {
        // A single record larger than a frame payload cannot be chunked at a
        // record boundary; that is a caller bug and must be a hard error.
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();
        let payload = vec![0u8; polardbx_wal::MAX_FRAME_PAYLOAD + 100];
        let cuts = vec![payload.len()];
        let err = leader.replicate_raw(&payload, &cuts).unwrap_err();
        assert!(matches!(err, polardbx_common::Error::Storage { .. }), "got {err}");
        // The failure leaves the log clean: a normal replicate still works.
        let lsn = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(2)).unwrap();
        assert!(g.await_dlsn(lsn, Duration::from_secs(2)));
    }

    #[test]
    fn gap_recovery_via_retransmission() {
        // A follower that was partitioned during some appends recovers the
        // missing range through the leader's reject-resend path.
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        let leader = g.leader().unwrap();
        g.net.partition(DcId(1), DcId(2));
        let lsn1 = leader.replicate_and_wait(&[mtr(1)], Duration::from_secs(2)).unwrap();
        g.net.heal(DcId(1), DcId(2));
        // Next append reaches DC2 with a gap; the rejection triggers resend.
        let lsn2 = leader.replicate_and_wait(&[mtr(2)], Duration::from_secs(2)).unwrap();
        assert!(lsn2 > lsn1);
        let deadline = Instant::now() + Duration::from_secs(2);
        while g.replicas[1].status().last_lsn < lsn2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(g.replicas[1].status().last_lsn >= lsn2, "follower must backfill the gap");
    }

    /// Consensus under chaos: lossy, duplicating cross-DC links while the
    /// leader streams log, then the leader crashes mid-replication, a follower
    /// is elected, and after heal + restart every replica converges on the new
    /// leader's log.
    #[test]
    fn consensus_converges_after_leader_crash_under_loss() {
        let seed = seed_from_env(0xBAD_CAB1E);
        let name = "consensus_converges_after_leader_crash_under_loss";
        eprintln!("{name}: POLARDBX_TEST_SEED={}", format_seed(seed));
        let g = PaxosGroup::build(GroupConfig::three_dc(1));
        g.net.set_fault_plan(
            FaultPlan::new(seed).with_cross_dc(LinkFaults::lossy(0.10).with_duplicate(0.10)),
        );
        let leader = g.leader().unwrap();
        // Heartbeats drive the ack/resend repair loop, so lost appends are
        // retransmitted even with no new writes in flight.
        let ticker = leader.start_ticker(Duration::from_millis(5), Duration::from_secs(30));
        for i in 0..20 {
            leader.replicate(&[mtr(i)]).unwrap();
        }
        // Wait until the DC2 follower holds the full log (repair under loss):
        // a candidate missing majority-committed entries cannot win votes.
        let target = leader.status().last_lsn;
        let deadline = Instant::now() + Duration::from_secs(5);
        while g.replicas[1].status().last_lsn < target && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(g.replicas[1].status().last_lsn >= target, "repair must backfill the follower");

        // Crash the leader mid-replication; a DC2 follower must take over.
        ticker.stop();
        g.net.crash(leader.me);
        let follower = g.replicas[1].clone();
        let deadline = Instant::now() + Duration::from_secs(5);
        while follower.status().role != Role::Leader && Instant::now() < deadline {
            follower.campaign();
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(follower.status().role, Role::Leader, "follower must win the election");
        for i in 20..30 {
            follower.replicate(&[mtr(i)]).unwrap();
        }

        // Heal: stop injecting faults, bring the old leader back. The new
        // leader's heartbeats drive the ack/resend repair loop, so the
        // restarted node gets backfilled even if an append races its restart.
        g.net.clear_fault_plan();
        g.net.restart_resume(leader.me);
        let new_ticker = follower.start_ticker(Duration::from_millis(5), Duration::from_secs(30));
        let final_lsn = follower
            .replicate_and_wait(&[mtr(99)], Duration::from_secs(2))
            .expect("healed group must commit");
        let converged = g.await_dlsn(final_lsn, Duration::from_secs(5));
        new_ticker.stop();
        assert!(converged, "all replicas must converge");

        let deadline = Instant::now() + Duration::from_secs(5);
        while leader.status().role != Role::Follower && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(leader.status().role, Role::Follower, "deposed leader must step down");
        for r in &g.replicas {
            assert!(r.status().last_lsn >= final_lsn, "log must converge on {:?}", r.me);
        }
        assert!(follower.metrics.elections_won.get() >= 1);
        let faults = &g.net.fault_stats;
        let lossy = faults.dropped_posts.get() + faults.duplicated_posts.get();
        assert!(lossy > 0, "the lossy links injected nothing: {}", faults.report());
    }
}
