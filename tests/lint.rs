//! Tier-1 gate: the workspace must lint clean under polarlint.
//!
//! Every finding must either be fixed or carry a
//! `// lint:allow(<rule>, "reason")` justification, and the lock-order
//! graph must stay acyclic. Run `cargo run -p polardbx-lint -- --workspace`
//! for the full report.

use polardbx_lint::census::CLASSES;
use polardbx_lint::{lint_workspace, LintConfig, LintReport};
use std::sync::OnceLock;

/// One walk of the workspace, shared by the tests below.
fn report() -> &'static LintReport {
    static REPORT: OnceLock<LintReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = env!("CARGO_MANIFEST_DIR");
        lint_workspace(root.as_ref(), &LintConfig::default()).expect("walk workspace sources")
    })
}

#[test]
fn workspace_lints_clean() {
    let root = env!("CARGO_MANIFEST_DIR");
    let report = report();
    assert!(
        report.files > 0,
        "linter found no source files under {root}"
    );
    assert!(report.clean(), "\n{}", report.render());
}

/// The commit path every claim is about — early lock release, the torn
/// epoch rollback, the crashpoint matrix — is the one the product runs:
/// the census must find its three entry points reachable from `product`
/// code, not only from benches, checkers and tests.
#[test]
fn the_commit_pipeline_is_reached_from_the_product() {
    let report = report();
    for item in [
        "wal::epoch::EpochPipeline::submit",
        "wal::epoch::EpochPipeline::wait_ticket",
        "storage::engine::StorageEngine::commit_pipelined",
    ] {
        let entry = report.census.iter().find(|c| c.item == item);
        let reached = entry.map(|c| c.reached_from()).unwrap_or_else(|| panic!("{item}: not in the census"));
        assert!(reached.contains(&"product"), "{item} is reached only from {reached:?}");
    }
}

/// A `pub` item that only tests reach is code the product does not run:
/// the census's crate gate makes any one of them a finding, and this names
/// them. Such an item is deleted, reached from the product, or moved under
/// `#[cfg(test)]` with the tests that call it.
#[test]
fn test_only_pub_items_do_not_grow() {
    let test_only: Vec<&str> = report()
        .census
        .iter()
        .filter(|c| c.reached_from() == ["test"])
        .map(|c| c.item.as_str())
        .collect();
    assert!(test_only.is_empty(), "pub items reached only from tests:\n{}", test_only.join("\n"));
}

/// One cluster for every harness: DNs and coordinators are built by
/// `PolarDbx` (`crates/core/src/cluster.rs`), by `txn`'s own unit tests and
/// by the Fig 7 harness, whose TSO-SI and Clock-SI baselines no `PolarDbx`
/// runs — nowhere else. The census says no checker names a constructor;
/// the suites and examples are read for one, and for a fabric stub.
#[test]
fn dns_and_coordinators_are_built_only_by_the_cluster() {
    let checker = 1 << CLASSES.iter().position(|&c| c == "checker").expect("a checker class");
    for item in ["txn::participant::DnService::new", "txn::coordinator::Coordinator::new"] {
        let entry = report().census.iter().find(|c| c.item == item);
        let entry = entry.unwrap_or_else(|| panic!("{item}: not in the census"));
        assert_eq!(entry.direct & checker, 0, "{item} is called from a checker");
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in ["tests", "examples"] {
        for file in std::fs::read_dir(root.join(dir)).expect("list sources") {
            let path = file.expect("list sources").path();
            let src = std::fs::read_to_string(&path).unwrap_or_default();
            for hand_built in ["DnService::new(", "Coordinator::new(", "struct CnStub"] {
                let found = src.contains(hand_built) && !path.ends_with(file!());
                assert!(!found, "{} builds its own cluster ({hand_built}…)", path.display());
            }
        }
    }
}
