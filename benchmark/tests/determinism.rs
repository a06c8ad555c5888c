//! Same seed ⇒ same inputs and same exact counts; another seed ⇒ other
//! inputs. Runs the traced run on shrunken workloads (`cargo test
//! --release` is quicker: the debug build is slow through the AP path).

use polardbx_common::time::Timer;
use std::path::Path;

use polarbench::gen::{sequence_digest, Kind, Spec};
use polarbench::metrics::EXACT;
use polarbench::trace;

fn shrunk(kind: Kind) -> Spec {
    let mut spec = Spec::of(kind);
    match kind {
        Kind::OltpPoint => spec.warmup_rounds = 120,
        Kind::CrossdcTxn => spec.warmup_rounds = 45,
        // The scale stays: smaller tables would classify TP.
        Kind::HtapScan | Kind::HtapMixed => spec.warmup_rounds = 3,
    }
    spec
}

#[test]
fn the_seed_decides_the_sequence() {
    for spec in Spec::all() {
        let rounds = 2 * spec.warmup_rounds;
        assert_eq!(
            sequence_digest(&spec, 42, rounds),
            sequence_digest(&spec, 42, rounds),
            "{}",
            spec.name
        );
        assert_ne!(
            sequence_digest(&spec, 42, rounds),
            sequence_digest(&spec, 43, rounds),
            "{}",
            spec.name
        );
    }
}

#[test]
fn exact_counts_repeat_for_one_seed() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for kind in [
        Kind::OltpPoint,
        Kind::CrossdcTxn,
        Kind::HtapScan,
        Kind::HtapMixed,
    ] {
        let spec = shrunk(kind);
        let first = trace::run(&spec, 42, Timer::start(), out).expect("first traced run");
        let second = trace::run(&spec, 42, Timer::start(), out).expect("second traced run");
        assert_eq!(first.wrong, None, "{}", spec.name);
        assert_eq!(first.failed + second.failed, 0, "{}", spec.name);
        assert_eq!(first.digest, second.digest, "{}", spec.name);
        for name in EXACT {
            assert_eq!(
                first.metrics[name], second.metrics[name],
                "{}: {name}",
                spec.name
            );
        }
    }
}
