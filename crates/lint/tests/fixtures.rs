//! Fixture tests: known-bad snippets must fire each rule, known-good must
//! stay clean, and tokenizer traps must not desync the analysis. The
//! interprocedural rules (fence/release/atomic/cross-function lock order)
//! are exercised through [`lint_sources`], which runs the workspace pass.

use polardbx_lint::analysis::{analyze_source, Config, Rule};
use polardbx_lint::graph::find_cycles;
use polardbx_lint::lint_sources;

fn cfg() -> Config {
    Config::default()
}

const BAD_LOCK_ORDER: &str = include_str!("fixtures/bad_lock_order.rs");
const BAD_GUARD_BLOCKING: &str = include_str!("fixtures/bad_guard_blocking.rs");
const BAD_DETERMINISM: &str = include_str!("fixtures/bad_determinism.rs");
const BAD_UNWRAP: &str = include_str!("fixtures/bad_unwrap.rs");
const BAD_DURABILITY_ORDER: &str = include_str!("fixtures/bad_durability_order.rs");
const BAD_HOTPATH_ALLOC: &str = include_str!("fixtures/bad_hotpath_alloc.rs");
const GOOD_CLEAN: &str = include_str!("fixtures/good_clean.rs");
const EDGE_TOKENS: &str = include_str!("fixtures/edge_tokens.rs");
const BAD_FENCE: &str = include_str!("fixtures/bad_fence.rs");
const GOOD_FENCE: &str = include_str!("fixtures/good_fence.rs");
const BAD_RELEASE: &str = include_str!("fixtures/bad_release.rs");
const GOOD_RELEASE: &str = include_str!("fixtures/good_release.rs");
const BAD_ATOMIC: &str = include_str!("fixtures/bad_atomic.rs");
const GOOD_ATOMIC: &str = include_str!("fixtures/good_atomic.rs");
const BAD_INTERPROC: &str = include_str!("fixtures/bad_interproc_lock.rs");
const GOOD_INTERPROC: &str = include_str!("fixtures/good_interproc_lock.rs");

#[test]
fn opposite_nesting_orders_form_a_cycle() {
    let fa = analyze_source("crates/storage/src/fixture.rs", BAD_LOCK_ORDER, &cfg());
    assert!(
        fa.findings.iter().all(|f| f.rule != Rule::LockOrder),
        "distinct locks must not fire the self-nesting finding"
    );
    let cycles = find_cycles(&fa.edges);
    assert_eq!(cycles.len(), 1, "a<->b must be detected: {:?}", fa.edges);
    assert!(cycles[0].nodes.iter().any(|n| n.ends_with("::a")));
    assert!(cycles[0].nodes.iter().any(|n| n.ends_with("::b")));
}

#[test]
fn guard_across_blocking_fires_per_shape() {
    let fa = analyze_source("crates/storage/src/fixture.rs", BAD_GUARD_BLOCKING, &cfg());
    let blocking: Vec<_> =
        fa.findings.iter().filter(|f| f.rule == Rule::GuardBlocking).collect();
    assert_eq!(blocking.len(), 2, "sleep + send: {:?}", fa.findings);
    assert!(blocking.iter().any(|f| f.message.contains("sleep")));
    assert!(blocking.iter().any(|f| f.message.contains("send")));
    let nested: Vec<_> =
        fa.findings.iter().filter(|f| f.rule == Rule::LockOrder).collect();
    assert_eq!(nested.len(), 1, "same-lock nesting: {:?}", fa.findings);
    assert!(nested[0].message.contains("nested acquisition"));
}

#[test]
fn determinism_fires_on_ambient_time_and_rng() {
    let fa = analyze_source("crates/storage/src/fixture.rs", BAD_DETERMINISM, &cfg());
    let det: Vec<_> =
        fa.findings.iter().filter(|f| f.rule == Rule::Determinism).collect();
    assert_eq!(det.len(), 3, "{:?}", fa.findings);
    assert!(det.iter().any(|f| f.message.contains("Instant::now")));
    assert!(det.iter().any(|f| f.message.contains("SystemTime::now")));
    assert!(det.iter().any(|f| f.message.contains("thread_rng")));
}

#[test]
fn determinism_respects_the_allowlist() {
    let fa = analyze_source("crates/hlc/src/fixture.rs", BAD_DETERMINISM, &cfg());
    assert!(
        fa.findings.iter().all(|f| f.rule != Rule::Determinism),
        "hlc is the sanctioned clock source: {:?}",
        fa.findings
    );
}

#[test]
fn unwrap_fires_only_in_protocol_crates_and_not_in_tests() {
    let fa = analyze_source("crates/txn/src/fixture.rs", BAD_UNWRAP, &cfg());
    let unwraps: Vec<_> = fa.findings.iter().filter(|f| f.rule == Rule::Unwrap).collect();
    assert_eq!(unwraps.len(), 2, "unwrap + expect, test mod skipped: {:?}", fa.findings);

    let outside = analyze_source("crates/executor/src/fixture.rs", BAD_UNWRAP, &cfg());
    assert!(
        outside.findings.iter().all(|f| f.rule != Rule::Unwrap),
        "executor is not in the deny list"
    );
}

#[test]
fn durability_order_fires_on_a_stamp_before_the_unstable_flag() {
    let fa = analyze_source("crates/storage/src/fixture.rs", BAD_DURABILITY_ORDER, &cfg());
    let hits: Vec<_> =
        fa.findings.iter().filter(|f| f.rule == Rule::DurabilityOrder).collect();
    // `commit_wrong` stamps both the txn table and the version store
    // before mark_unstable; `commit_unflagged` never flags what it
    // submits; the correct, replay-only and log-only shapes stay quiet.
    assert_eq!(hits.len(), 3, "{:?}", fa.findings);
    assert!(hits.iter().any(|f| f.message.contains("txns.commit")));
    assert!(hits.iter().any(|f| f.message.contains("store.commit")));
    assert!(hits.iter().any(|f| f.message.contains("never calls `mark_unstable`")));
    assert!(hits.iter().all(|f| f.line < 16), "only the two bad shapes may fire: {hits:?}");
}

#[test]
fn durability_order_respects_allow() {
    let src = "pub fn f(e: &E) {\n\
               \x20   // lint:allow(durability_order, the stamp is private to this thread until the flag is up)\n\
               \x20   e.txns.commit(t, ts)?;\n\
               \x20   e.txns.mark_unstable(t);\n}\n";
    let fa = analyze_source("crates/storage/src/fixture.rs", src, &cfg());
    let hits: Vec<_> =
        fa.findings.iter().filter(|f| f.rule == Rule::DurabilityOrder).collect();
    assert_eq!(hits.len(), 1);
    assert!(hits[0].allowed.as_deref().unwrap().contains("private to this thread"));
}

#[test]
fn hotpath_alloc_fires_only_in_annotated_functions() {
    let fa = analyze_source("crates/storage/src/fixture.rs", BAD_HOTPATH_ALLOC, &cfg());
    let hits: Vec<_> =
        fa.findings.iter().filter(|f| f.rule == Rule::HotpathAlloc).collect();
    let unjustified: Vec<_> = hits.iter().filter(|f| f.allowed.is_none()).collect();
    // hot_commit: Vec::new + to_vec + Box::new + vec! + clone = 5 findings;
    // cold_setup's identical constructs and Arc::clone stay quiet.
    assert_eq!(unjustified.len(), 5, "{:?}", fa.findings);
    assert!(unjustified.iter().any(|f| f.message.contains("Vec::new")));
    assert!(unjustified.iter().any(|f| f.message.contains("to_vec")));
    assert!(unjustified.iter().any(|f| f.message.contains("Box::new")));
    assert!(unjustified.iter().any(|f| f.message.contains("vec![")));
    assert!(unjustified.iter().any(|f| f.message.contains("clone")));
    assert!(
        unjustified.iter().all(|f| f.line < 20),
        "cold_setup (unannotated) must not fire: {unjustified:?}"
    );
    // The era-amortized pool refill is present but justified.
    let allowed: Vec<_> = hits.iter().filter(|f| f.allowed.is_some()).collect();
    assert_eq!(allowed.len(), 1, "{hits:?}");
    assert!(allowed[0].allowed.as_deref().unwrap().contains("once per era"));
}

#[test]
fn known_good_shapes_stay_clean() {
    let fa = analyze_source("crates/wal/src/fixture.rs", GOOD_CLEAN, &cfg());
    let unjustified: Vec<_> =
        fa.findings.iter().filter(|f| f.allowed.is_none()).collect();
    assert!(unjustified.is_empty(), "{unjustified:?}");
    // The justified send is still present, with its reason attached.
    let allowed: Vec<_> = fa.findings.iter().filter(|f| f.allowed.is_some()).collect();
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0].allowed.as_deref().unwrap().contains("bounded channel"));
    // Consistent nesting produced an edge but no cycle.
    assert!(!fa.edges.is_empty());
    assert!(find_cycles(&fa.edges).is_empty());
}

#[test]
fn tokenizer_traps_do_not_fire_or_desync() {
    let fa = analyze_source("crates/storage/src/fixture.rs", EDGE_TOKENS, &cfg());
    assert!(fa.findings.is_empty(), "{:?}", fa.findings);
    assert!(fa.edges.is_empty());
}

#[test]
fn allow_without_reason_is_a_finding() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n    // lint:allow(unwrap)\n    x.unwrap()\n}\n";
    let fa = analyze_source("crates/txn/src/fixture.rs", src, &cfg());
    assert!(fa.findings.iter().any(|f| f.rule == Rule::BadAllow));
    // The malformed allow does not shield the unwrap itself.
    assert!(fa
        .findings
        .iter()
        .any(|f| f.rule == Rule::Unwrap && f.allowed.is_none()));
}

#[test]
fn cross_file_cycles_surface_in_the_report() {
    let a = "pub fn f(p: &S) { let x = p.a.lock(); let y = p.b.lock(); }";
    let b = "pub fn g(p: &S) { let y = p.b.lock(); let x = p.a.lock(); }";
    let report = lint_sources(
        [("crates/wal/src/one.rs", a), ("crates/wal/src/two.rs", b)],
        &cfg(),
    );
    assert_eq!(report.cycles.len(), 1, "{:?}", report.edges);
    assert!(!report.clean());
    let rendered = report.render();
    assert!(rendered.contains("lock-order cycles"), "{rendered}");
}

// ---------------------------------------------------------------------------
// Interprocedural rules (workspace pass)
// ---------------------------------------------------------------------------

#[test]
fn fence_fires_on_bare_routes_in_write_paths() {
    let report = lint_sources([("crates/core/src/fixture.rs", BAD_FENCE)], &cfg());
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::FenceCompleteness && f.allowed.is_none())
        .collect();
    // Direct (route_row next to the write) and indirect (shard_dn one
    // call above it) must both fire.
    assert_eq!(hits.len(), 2, "{:?}", report.findings);
    assert!(hits.iter().any(|f| f.message.contains("route_row")));
    assert!(hits.iter().any(|f| f.message.contains("shard_dn")));
    assert!(
        hits.iter()
            .any(|f| f.symbol.as_deref() == Some("core::fixture::Session::insert_row")),
        "symbol paths must carry the impl context: {hits:?}"
    );
}

#[test]
fn fence_stays_silent_on_fenced_and_readonly_twin() {
    let report = lint_sources([("crates/core/src/fixture.rs", GOOD_FENCE)], &cfg());
    assert!(
        report.findings.iter().all(|f| f.rule != Rule::FenceCompleteness),
        "{:?}",
        report.findings
    );
}

#[test]
fn fence_respects_sanctioned_paths() {
    // The module defining the fenced variants builds them from bare
    // routes — the identical bad shape is sanctioned there.
    let report = lint_sources([("crates/core/src/gms.rs", BAD_FENCE)], &cfg());
    assert!(
        report.findings.iter().all(|f| f.rule != Rule::FenceCompleteness),
        "{:?}",
        report.findings
    );
}

#[test]
fn release_fires_on_early_exits_and_never_released() {
    let report = lint_sources([("crates/core/src/fixture.rs", BAD_RELEASE)], &cfg());
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ReleaseOnAllPaths && f.allowed.is_none())
        .collect();
    // rehome: two `?` exits × two live acquisitions (epoch freeze +
    // write freeze) = 4; freeze_forever adds the never-released leak.
    assert_eq!(hits.len(), 5, "{:?}", report.findings);
    let leaks: Vec<_> =
        hits.iter().filter(|f| f.message.contains("never released")).collect();
    assert_eq!(leaks.len(), 1, "{hits:?}");
    assert!(leaks[0].symbol.as_deref().unwrap().ends_with("freeze_forever"));
    assert!(hits.iter().any(|f| f.message.contains("`?` exit")));
}

#[test]
fn release_stays_silent_on_cutover_closure_helper_and_bytes_freeze() {
    let report = lint_sources([("crates/core/src/fixture.rs", GOOD_RELEASE)], &cfg());
    assert!(
        report.findings.iter().all(|f| f.rule != Rule::ReleaseOnAllPaths),
        "closure exits / helper release / Bytes::freeze must not fire: {:?}",
        report.findings
    );
}

#[test]
fn atomic_publish_fires_on_relaxed_store_with_acquire_load() {
    let report = lint_sources([("crates/core/src/fixture.rs", BAD_ATOMIC)], &cfg());
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::AtomicPublish && f.allowed.is_none())
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].message.contains("watermark"));
    assert!(hits[0].message.contains("Acquire-loaded"));
    assert!(hits[0].symbol.as_deref().unwrap().ends_with("publish"));
}

#[test]
fn atomic_publish_good_twin_stays_silent() {
    let report = lint_sources([("crates/core/src/fixture.rs", GOOD_ATOMIC)], &cfg());
    assert!(
        report.findings.iter().all(|f| f.rule != Rule::AtomicPublish),
        "Release publication / both-relaxed counter / orderingless cache \
         setter must not fire: {:?}",
        report.findings
    );
}

#[test]
fn atomic_publish_keys_fields_per_crate() {
    // Same field name split across crates: unrelated atomics, no pairing.
    let store_side = "impl Gate {\n    pub fn publish(&self, seq: u64) {\n        \
                      self.watermark.store(seq, Ordering::Relaxed);\n    }\n}\n";
    let load_side = "impl Other {\n    pub fn read(&self) -> u64 {\n        \
                     self.watermark.load(Ordering::Acquire)\n    }\n}\n";
    let report = lint_sources(
        [("crates/wal/src/fixture.rs", store_side), ("crates/core/src/fixture.rs", load_side)],
        &cfg(),
    );
    assert!(
        report.findings.iter().all(|f| f.rule != Rule::AtomicPublish),
        "{:?}",
        report.findings
    );
}

#[test]
fn interproc_abba_cycle_surfaces_with_via_labels() {
    let report = lint_sources([("crates/core/src/fixture.rs", BAD_INTERPROC)], &cfg());
    assert_eq!(report.cycles.len(), 1, "{:?}", report.edges);
    let nodes = &report.cycles[0].nodes;
    assert!(nodes.iter().any(|n| n.ends_with("::alpha")), "{nodes:?}");
    assert!(nodes.iter().any(|n| n.ends_with("::beta")), "{nodes:?}");
    // Both realizing edges crossed a call (one through the two-level
    // `hop` chain) — each must carry its via label.
    assert!(
        report.cycles[0].edges.iter().all(|e| e.via.is_some()),
        "{:?}",
        report.cycles[0].edges
    );
    assert!(
        report.cycles[0].edges.iter().any(|e| e.via.as_deref() == Some("hop")),
        "the two-level chain must resolve through hop: {:?}",
        report.cycles[0].edges
    );
}

#[test]
fn interproc_consistent_order_stays_acyclic() {
    let report = lint_sources([("crates/core/src/fixture.rs", GOOD_INTERPROC)], &cfg());
    assert!(report.cycles.is_empty(), "{:?}", report.cycles);
    // The edges themselves exist (alpha → beta, some via calls).
    assert!(
        report.edges.iter().any(|e| e.via.is_some()),
        "interprocedural edges expected: {:?}",
        report.edges
    );
}

#[test]
fn trait_methods_resolve_by_qualifier_not_by_name() {
    use polardbx_lint::callgraph::{resolve, STOPLIST};
    use polardbx_lint::symbols::SymbolTable;
    use std::collections::HashSet;

    let src = "pub trait Flusher {\n\
               \x20   fn flush_all(&self) -> usize {\n\
               \x20       self.pending()\n\
               \x20   }\n\
               }\n\
               pub struct Wal { inner: Mutex<Vec<u8>> }\n\
               impl Flusher for Wal {\n\
               \x20   fn flush_all(&self) -> usize {\n\
               \x20       let g = self.inner.lock();\n\
               \x20       g.len()\n\
               \x20   }\n\
               }\n";
    let fa = analyze_source("crates/wal/src/fixture.rs", src, &cfg());
    let tys: Vec<_> = fa
        .fns
        .iter()
        .filter(|f| f.name == "flush_all")
        .map(|f| f.impl_ty.clone())
        .collect();
    assert_eq!(tys.len(), 2, "trait default + impl method: {:?}", fa.fns);
    assert!(tys.contains(&Some("Flusher".into())), "{tys:?}");
    assert!(tys.contains(&Some("Wal".into())), "{tys:?}");

    let stop: HashSet<&str> = STOPLIST.iter().copied().collect();
    let table = SymbolTable::build(fa.fns);
    let to_wal = resolve(&table, &stop, "wal", "flush_all", Some("Wal"));
    assert_eq!(to_wal.len(), 1);
    assert_eq!(table.fns[to_wal[0]].impl_ty.as_deref(), Some("Wal"));
    let to_trait = resolve(&table, &stop, "wal", "flush_all", Some("Flusher"));
    assert_eq!(to_trait.len(), 1);
    assert_eq!(table.fns[to_trait[0]].impl_ty.as_deref(), Some("Flusher"));
}

/// The census fixture pair: a product file, and the figure binary that
/// reaches part of it.
#[test]
fn census_classes_a_reached_item_and_flags_an_unreached_one() {
    let product = "pub struct Widget;\n\
                   impl Widget {\n\
                   \x20   pub fn new() -> Widget { Widget }\n\
                   \x20   pub fn used(&self) { self.helper() }\n\
                   \x20   fn helper(&self) { Gadget::new(); }\n\
                   \x20   pub fn orphan(&self) {}\n\
                   \x20   // lint:allow(unreached, kept for the operator console)\n\
                   \x20   pub fn spare(&self) {}\n\
                   }\n\
                   pub struct Gadget;\n\
                   impl Gadget { pub fn new() -> Gadget { Gadget } }\n\
                   pub struct Island;\n\
                   impl Island { pub fn new() -> Island { Island } }\n";
    let figure = "fn main() { Widget::new().used(); }";
    let sources = [("crates/storage/src/widget.rs", product), ("examples/demo.rs", figure)]
        .map(|(p, s)| (p.to_string(), s.to_string()));
    let (items, findings) = polardbx_lint::census::census(&sources);
    let reached = |item: &str| {
        items.iter().find(|i| i.item == format!("storage::widget::{item}")).unwrap().reached_from()
    };
    // Reach passes through the private helper; `Widget::new` in the figure
    // is a mention of neither `Gadget::new` nor `Island::new`.
    assert_eq!((reached("Widget::used"), reached("Gadget::new")), (vec!["figure"], vec!["figure"]));
    assert!(reached("Widget::orphan").is_empty() && reached("Island::new").is_empty());
    let open: Vec<_> = findings.iter().filter(|f| f.allowed.is_none()).collect();
    assert_eq!(open.len(), 3, "orphan, Island and Island::new: {open:?}");
    assert!(findings.iter().any(|f| f.allowed.is_some() && f.message.contains("Widget::spare")));
}
