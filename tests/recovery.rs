//! Crash-recovery suite: the crashpoint torture harness run end to end.
//!
//! Each test crashes a DN at a seeded point, restarts it with *amnesia*
//! (nothing survives but the durable log sink), and requires the full
//! acceptance gate from the recovery harness:
//!
//! * **RPO = 0** — every commit acked to the client before the crash is
//!   still there after recovery (the per-transfer ledger row survives);
//! * **replay idempotence** — replaying the recovered log a second time
//!   registers nothing new;
//! * **conserved sum** — the bank total is intact, both read live and
//!   re-derived from the recorded history;
//! * **clean history** — the Adya checker reports zero anomalies over the
//!   whole run, crash and restart included.
//!
//! Seeds come from `POLARDBX_TEST_SEED` (hex or decimal) when set, so a CI
//! failure's seed line can be replayed locally.

use polardbx_common::testseed::seed_from_env;
use polardbx_sitcheck::recovery::{run_crashpoint, CrashPoint, RecoveryConfig};

const BASE_SEED: u64 = 0x7EA2_0C0F;

fn run(seed_offset: u64, cp: CrashPoint, torn_tail: bool) {
    let seed = seed_from_env(BASE_SEED).wrapping_add(seed_offset);
    let mut cfg = RecoveryConfig::quick(seed, cp);
    cfg.torn_tail = torn_tail;
    let r = run_crashpoint(&cfg);
    assert!(
        r.recovered_in_time,
        "{} seed {seed:#x}: victim never served again",
        cp.label()
    );
    assert_eq!(
        r.lost_acked, 0,
        "{} seed {seed:#x}: {} acked commit(s) lost — RPO violated",
        cp.label(),
        r.lost_acked
    );
    assert!(
        r.replay_idempotent,
        "{} seed {seed:#x}: second replay was not a no-op",
        cp.label()
    );
    assert!(
        r.conserved_ok,
        "{} seed {seed:#x}: conserved sum broken ({} vs {})",
        cp.label(),
        r.observed_total,
        r.expected_total
    );
    assert!(
        r.report.is_clean(),
        "{} seed {seed:#x}: anomalies across the restart boundary: {:?}",
        cp.label(),
        r.report.anomalies
    );
    assert!(r.passed());
}

#[test]
fn mid_group_flush_crash_with_torn_tail() {
    run(0, CrashPoint::MidGroupFlush, true);
}

#[test]
fn mid_group_flush_crash_with_clean_tail() {
    run(1, CrashPoint::MidGroupFlush, false);
}

#[test]
fn crash_between_prepare_and_commit_recovers_the_acked_commit() {
    // The sharp case: the client holds an ack for a commit whose phase-two
    // post to the victim was lost. Recovery surfaces the PREPARED txn as
    // in-doubt, with the peers its prepare record names, and the resolver
    // commits it by asking them.
    run(2, CrashPoint::BetweenPrepareAndCommit, true);
}

#[test]
fn crash_during_paxos_drain_rejoins_from_durable_frames() {
    run(3, CrashPoint::DuringPaxosDrain, true);
}

#[test]
fn torture_matrix_two_seeds_all_crashpoints() {
    // The quick matrix the CI recovery-torture job runs via
    // `recovery_bench --quick`, inlined here so `cargo test` alone
    // exercises every (crashpoint × tail) combination.
    for offset in [10u64, 11] {
        for cp in CrashPoint::all() {
            run(offset, cp, true);
        }
    }
}
