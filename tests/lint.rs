//! Tier-1 gate: the workspace must lint clean under polarlint.
//!
//! Every finding must either be fixed or carry a
//! `// lint:allow(<rule>, "reason")` justification, and the lock-order
//! graph must stay acyclic. Run `cargo run -p polardbx-lint -- --workspace`
//! for the full report.

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
