//! Isolation suite: the history-based SI checker run over the seeded
//! schedule explorer, plus the checker's own self-validation.
//!
//! Two halves:
//!
//! 1. **Unmutated matrix** — the quick (seed × schedule) sweep must report
//!    zero anomalies, and every derived conserved-sum audit must equal the
//!    seeded bank total. The protocol is presumed correct; a failure here
//!    is either a real isolation bug or a checker false positive, and the
//!    printed witness cycle says which transaction pair to look at.
//!
//! 2. **Mutation tests** — re-run deterministic scenarios with one
//!    protocol step disabled. Each mutation must surface its named anomaly
//!    class *with a witness*, and the identical unmutated twin must come
//!    back clean. A checker that cannot see a planted violation proves
//!    nothing when it reports CLEAN.
//!
//! Seeds come from `POLARDBX_TEST_SEED` (hex or decimal) when set, so a CI
//! failure's seed line can be replayed locally:
//!
//! ```text
//! POLARDBX_TEST_SEED=0x51c4ec cargo test -q --test isolation
//! ```

use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_sitcheck::explorer::{self, ExplorerConfig};
use polardbx_sitcheck::report::render_report;
use polardbx_sitcheck::{AnomalyKind, Mutation, Schedule};

/// Default base seed; override with POLARDBX_TEST_SEED.
const BASE_SEED: u64 = 0x51_C4EC;

#[test]
fn quick_matrix_reports_zero_anomalies() {
    let base = seed_from_env(BASE_SEED);
    for offset in 0..2u64 {
        let seed = base.wrapping_add(offset);
        for &schedule in Schedule::quick() {
            let run = explorer::run(&ExplorerConfig::quick(seed, schedule));
            assert!(
                run.report.is_clean(),
                "seed {} schedule {} found anomalies (replay with \
                 POLARDBX_TEST_SEED={}):\n{}",
                format_seed(seed),
                schedule.label(),
                format_seed(seed),
                render_report(&run),
            );
            let cfg = ExplorerConfig::quick(seed, schedule);
            let expected = cfg.accounts as i64 * cfg.initial;
            assert!(
                !run.audit_totals.is_empty(),
                "seed {} schedule {}: no full-bank audit completed",
                format_seed(seed),
                schedule.label(),
            );
            for (trx, total) in &run.audit_totals {
                assert_eq!(
                    *total,
                    expected,
                    "seed {} schedule {}: audit {trx} summed {total}, expected {expected} \
                     (replay with POLARDBX_TEST_SEED={})",
                    format_seed(seed),
                    schedule.label(),
                    format_seed(seed),
                );
            }
        }
    }
}

/// Shared shape of the mutation assertions: the mutated run surfaces
/// `expect` with a witness, the unmutated twin is clean — on three
/// consecutive seeds, because the seed picks whether the scenario's writer
/// sends `write()`s, stages full rows into the commit round, or pushes
/// edits to the rows' DNs.
fn assert_mutation_detected(m: Mutation, expect: AnomalyKind) {
    let base = seed_from_env(BASE_SEED);
    for offset in 0..3 {
        assert_mutation_detected_on(m, expect, base.wrapping_add(offset));
    }
}

fn assert_mutation_detected_on(m: Mutation, expect: AnomalyKind, seed: u64) {
    let mutated = explorer::run_mutated(m, seed);
    let found = mutated.report.of_kind(expect);
    assert!(
        !found.is_empty(),
        "{} (seed {}): expected a {} anomaly, checker reported:\n{}",
        m.label(),
        format_seed(seed),
        expect.name(),
        render_report(&mutated),
    );
    assert!(
        found.iter().any(|a| !a.cycle.is_empty() || !a.txns.is_empty()),
        "{}: {} anomaly carries no witness:\n{}",
        m.label(),
        expect.name(),
        render_report(&mutated),
    );
    let twin = explorer::run_unmutated_twin(m, seed);
    assert!(
        twin.report.is_clean(),
        "{}: unmutated twin must be clean — otherwise the detection above \
         is noise, not signal:\n{}",
        m.label(),
        render_report(&twin),
    );
}

#[test]
fn mutation_skip_commit_clock_update_yields_gsib() {
    // Without the coordinator's commit-time absorb (step ⑥), the session's
    // next snapshot falls below its own commit — a missed effect.
    assert_mutation_detected(Mutation::SkipCommitClockUpdate, AnomalyKind::GSIb);
}

#[test]
fn mutation_ignore_prepared_reads_yields_gsia() {
    // Reading below the snapshot watermark (skipping PREPARED versions)
    // observes half of a two-DN transfer — a fractured read.
    assert_mutation_detected(Mutation::IgnorePreparedReads, AnomalyKind::GSIa);
}

#[test]
fn mutation_drop_prepare_yields_lost_write() {
    // A participant silently dropped from 2PC commits nowhere while the
    // rest of the transaction commits — its write is lost.
    assert_mutation_detected(Mutation::DropPrepare, AnomalyKind::LostWrite);
}

#[test]
fn mutation_skip_routing_epoch_fence_yields_lost_update() {
    // A transaction that routed before a placement cutover commits to the
    // old home with the epoch fence disabled: it and the cutover's copy
    // transaction both read the pre-move version and both committed writes
    // over it — a lost update split across two DNs.
    assert_mutation_detected(Mutation::SkipRoutingEpochFence, AnomalyKind::LostUpdate);
}

#[test]
fn mutation_skip_edit_conflict_check_yields_lost_update() {
    // A pushed edit that is not validated against its snapshot reads the
    // row there and overwrites a version committed since: two increments,
    // one survives.
    assert_mutation_detected(Mutation::SkipEditConflictCheck, AnomalyKind::LostUpdate);
}

#[test]
fn mutation_resolve_on_partial_view_yields_lost_write() {
    // A resolver that counts an unreachable peer as PREPARED commits a
    // transaction that peer never voted for and then refused.
    assert_mutation_detected(Mutation::ResolveOnPartialView, AnomalyKind::LostWrite);
}

#[test]
fn mutation_forget_refusal_yields_lost_write() {
    // A participant that lets a late Write re-open a transaction it refused
    // votes yes after its refusal: the coordinator commits what its peer
    // already aborted.
    assert_mutation_detected(Mutation::ForgetRefusal, AnomalyKind::LostWrite);
}
