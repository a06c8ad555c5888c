//! Per-file invariant analysis over the token stream, plus the
//! workspace-level interprocedural pass ([`workspace_pass`]) fed by the
//! symbol table / call graph / summary layers.
//!
//! Ten rules, plus `unreached` in [`crate::census`] (see DESIGN.md "Correctness tooling"):
//!
//! - `lock_order` — every nested `lock()/read()/write()` acquisition adds
//!   an edge `held → acquired` to a cross-crate graph; cycles (reported by
//!   [`crate::graph`]) are static ABBA deadlocks. Nested acquisition of
//!   the *same* lock name is reported directly (std-backed locks are not
//!   reentrant).
//! - `guard_blocking` — a live lock guard spanning a blocking call
//!   (`sleep`/`send`/`recv`/`join`/`flush`/sink `write`) serializes
//!   unrelated work behind I/O, and with channels in the mix can deadlock.
//! - `determinism` — `Instant::now`/`SystemTime::now`/ambient RNG outside
//!   the allowlist breaks same-seed chaos reproducibility.
//! - `unwrap` — `unwrap()/expect()` in protocol crates turns injected
//!   faults into panics instead of typed errors.
//! - `durability_order` — a commit stamp (`txns.commit(…)` /
//!   `store.commit(…)`) is published before its epoch is durable (early
//!   lock release), so it must be sequenced *after* `mark_unstable(…)`:
//!   a stamp published first is a dirty read of an undurable commit. And
//!   a function that submits `Some(trx)` to the pipeline without ever
//!   flagging it unstable has nothing gating its readers at all.
//! - `hotpath_alloc` — inside a function annotated `// lint:hotpath`
//!   (the steady-state commit path), per-call heap allocation
//!   (`Vec::new`, `vec!`, `Box::new`, `.to_vec()`, `.clone()`…) defeats
//!   the allocation-free design; reuse a pooled buffer or move the work
//!   off the hot path. `Arc::clone(&x)` (the explicit refcount-bump
//!   form) is deliberately not flagged.
//! - `fence_completeness` — a bare routing call (`route_row`/`route_key`/
//!   `shard_dn`) inside a function that (transitively) reaches a shard
//!   write must be the fenced variant instead: an unfenced route has no
//!   commit-time epoch re-check, so a re-home cutover racing the
//!   statement strands the write on the detached old home (the PR-8
//!   lost-update class). Write reachability flows up the call graph.
//! - `release_on_all_paths` — a resource acquisition (`freeze_writes`,
//!   `epochs.freeze`) must be released on every exit path: a `?` or
//!   `return` between acquire and release leaks it (the PR-8
//!   `flush_tenant?` frozen-shard livelock class), and a body that never
//!   releases needs a (resolved) callee that does.
//! - `atomic_publish` — a `Relaxed` store to an atomic field that is
//!   `Acquire`-loaded elsewhere in the same crate publishes data without
//!   a happens-before edge; counters that stay relaxed on both sides and
//!   the sanctioned metrics/bench modules are exempt.
//! - interprocedural `lock_order` — held-lock sets flow across resolved
//!   direct calls: a call made under guard adds `held → callee-lock`
//!   edges for every lock the callee's transitive summary acquires, so
//!   ABBA cycles split across functions surface statically.
//!
//! Escape hatch: `// lint:allow(<rule>, <reason>)` on the offending line
//! or the line directly above. An allow without a reason is itself a
//! finding — justifications are the point.

use crate::callgraph::{CallGraph, STOPLIST};
use crate::summary::{compute as compute_summaries, Summary};
use crate::symbols::{
    AtomicAccess, AtomicOrd, CallSite, FnInfo, ResourceAcq, SymbolTable,
};
use crate::tokenizer::{tokenize, Allow, Tok, TokKind};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Rule identifiers (also the names accepted by `lint:allow`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Lock acquisition-order violations (self-nesting or graph cycles).
    LockOrder,
    /// A live guard spans a blocking call.
    GuardBlocking,
    /// Ambient time or randomness outside the allowlist.
    Determinism,
    /// `unwrap()/expect()` in a protocol crate.
    Unwrap,
    /// Version visibility stamped before the durability ack (redo-ahead).
    DurabilityOrder,
    /// Heap allocation inside a `// lint:hotpath`-annotated function.
    HotpathAlloc,
    /// Bare (unfenced) routing call in a function reaching a shard write.
    FenceCompleteness,
    /// Resource acquired but not released on every exit path.
    ReleaseOnAllPaths,
    /// Relaxed store to an atomic that is Acquire-loaded elsewhere.
    AtomicPublish,
    /// A `pub` item of a product crate that no root reaches (the census).
    Unreached,
    /// A malformed `lint:allow` (unknown rule or missing reason).
    BadAllow,
}

impl Rule {
    /// Canonical name, as used in `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock_order",
            Rule::GuardBlocking => "guard_blocking",
            Rule::Determinism => "determinism",
            Rule::Unwrap => "unwrap",
            Rule::DurabilityOrder => "durability_order",
            Rule::HotpathAlloc => "hotpath_alloc",
            Rule::FenceCompleteness => "fence_completeness",
            Rule::ReleaseOnAllPaths => "release_on_all_paths",
            Rule::AtomicPublish => "atomic_publish",
            Rule::Unreached => "unreached",
            Rule::BadAllow => "bad_allow",
        }
    }

    fn from_name(s: &str) -> Option<Rule> {
        match s {
            "lock_order" => Some(Rule::LockOrder),
            "guard_blocking" => Some(Rule::GuardBlocking),
            "determinism" => Some(Rule::Determinism),
            "unwrap" => Some(Rule::Unwrap),
            "durability_order" => Some(Rule::DurabilityOrder),
            "hotpath_alloc" => Some(Rule::HotpathAlloc),
            "fence_completeness" => Some(Rule::FenceCompleteness),
            "release_on_all_paths" => Some(Rule::ReleaseOnAllPaths),
            "atomic_publish" => Some(Rule::AtomicPublish),
            "unreached" => Some(Rule::Unreached),
            _ => None,
        }
    }

    /// All rule names, for the JSON report header.
    pub fn all_names() -> &'static [&'static str] {
        &[
            "lock_order",
            "guard_blocking",
            "determinism",
            "unwrap",
            "durability_order",
            "hotpath_alloc",
            "fence_completeness",
            "release_on_all_paths",
            "atomic_publish",
            "unreached",
            "bad_allow",
        ]
    }
}

/// One finding, justified or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// `Some(reason)` when a well-formed `lint:allow` covers the line.
    pub allowed: Option<String>,
    /// Symbol path of the enclosing function, when the rule knows it
    /// (`core::dml::Session::insert`); surfaced in the JSON report.
    pub symbol: Option<String>,
}

/// One lock-order edge: `from` was held while `to` was acquired.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Held lock (crate-qualified name).
    pub from: String,
    /// Acquired lock (crate-qualified name).
    pub to: String,
    /// Where the nested acquisition happens.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
    /// Justification, if the line carries `lint:allow(lock_order, …)`.
    pub allowed: Option<String>,
    /// For interprocedural edges: which call carried the held set into
    /// the callee (`via call to flush_tenant`). `None` for direct edges.
    pub via: Option<String>,
}

/// An acquire/release method pair tracked by `release_on_all_paths`.
#[derive(Debug, Clone)]
pub struct ResourcePair {
    /// The acquiring method name (`freeze_writes`).
    pub acquire: String,
    /// The releasing method name (`unfreeze_writes`).
    pub release: String,
    /// When set, the acquire/release receivers' last segment must equal
    /// this (distinguishes `epochs.freeze` from `bytes.freeze()`).
    pub recv: Option<String>,
}

impl ResourcePair {
    fn new(acquire: &str, release: &str, recv: Option<&str>) -> ResourcePair {
        ResourcePair {
            acquire: acquire.into(),
            release: release.into(),
            recv: recv.map(str::to_string),
        }
    }
}

/// Linter configuration. Paths are matched as repo-relative prefixes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates where `unwrap()/expect()` is denied in non-test code.
    pub unwrap_deny_crates: Vec<String>,
    /// Path prefixes exempt from the determinism rule (clock sources,
    /// benches, the simnet latency model, and the shims that implement
    /// the abstractions everything else is told to use).
    pub determinism_allow_paths: Vec<String>,
    /// Path prefixes where bare routing calls are sanctioned — the
    /// module that *defines* the fenced variants builds them out of the
    /// bare ones.
    pub fence_sanctioned_paths: Vec<String>,
    /// Path prefixes exempt from `atomic_publish` — metrics counters and
    /// bench harness state are read approximately by design.
    pub atomic_sanctioned_paths: Vec<String>,
    /// Acquire/release pairs for `release_on_all_paths`.
    pub resource_pairs: Vec<ResourcePair>,
    /// Identifiers whose presence in a function body marks it as
    /// reaching a shard write (`fence_completeness` reachability seeds).
    pub write_markers: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            unwrap_deny_crates: vec!["txn".into(), "consensus".into(), "wal".into()],
            determinism_allow_paths: vec![
                "crates/hlc/".into(),
                "crates/bench/".into(),
                "crates/simnet/src/latency.rs".into(),
                // The sanctioned ambient-clock home everything else uses.
                "crates/common/src/time.rs".into(),
                "shims/".into(),
            ],
            fence_sanctioned_paths: vec![
                // Defines route_row_fenced/shard_dn_fenced in terms of the
                // bare routers + the epoch fence.
                "crates/core/src/gms.rs".into(),
            ],
            atomic_sanctioned_paths: vec![
                "crates/common/src/metrics.rs".into(),
                "crates/bench/".into(),
                "shims/".into(),
            ],
            resource_pairs: vec![
                ResourcePair::new("freeze_writes", "unfreeze_writes", None),
                ResourcePair::new("freeze", "unfreeze", Some("epochs")),
            ],
            write_markers: vec!["WireWriteOp".into()],
        }
    }
}

/// Result of analyzing one file.
/// Resolved allow targets for one file: line → `(rule, reason)` pairs.
pub type AllowMap = BTreeMap<u32, Vec<(String, String)>>;

#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Rule findings (cycle findings come later from the graph pass).
    pub findings: Vec<Finding>,
    /// Lock-order edges contributed to the workspace graph.
    pub edges: Vec<LockEdge>,
    /// Function symbols + facts for the interprocedural pass.
    pub fns: Vec<FnInfo>,
    /// Atomic accesses for the workspace `atomic_publish` matching.
    pub atomics: Vec<AtomicAccess>,
    /// Resolved allow targets, so the workspace pass can honor
    /// `lint:allow` on lines it reports later.
    pub allow_map: AllowMap,
}

/// Blocking calls that must not run under a live lock guard. `wait` /
/// `wait_until` are deliberately absent: condvars release the guard.
const BLOCKING: &[&str] = &["sleep", "send", "recv", "recv_timeout", "join", "flush", "sync_all"];

/// Zero-argument methods treated as lock acquisitions.
const ACQUIRE: &[&str] = &["lock", "read", "write"];

/// Is this path test-scoped (integration tests, fixtures, examples,
/// benches directories)? Whole-file skip for every rule.
pub fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("examples/")
        || p.contains("/examples/")
        || p.contains("/benches/")
}

/// Crate name a repo-relative path belongs to (`crates/txn/…` → `txn`,
/// `shims/rand/…` → `shim-rand`, the root package → `root`).
pub fn crate_of(path: &str) -> String {
    let p = path.replace('\\', "/");
    let mut parts = p.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("shims") => format!("shim-{}", parts.next().unwrap_or("unknown")),
        _ => "root".to_string(),
    }
}

/// A live guard during the function walk.
struct Guard {
    /// Binding name (`None` for a temporary that dies at statement end).
    name: Option<String>,
    /// Crate-qualified lock node name.
    lock: String,
    /// Brace depth the binding lives at.
    depth: usize,
    /// Line of acquisition (for messages).
    line: u32,
}

/// Analyze one file's source. `path` is repo-relative and used for rule
/// scoping and messages.
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> FileAnalysis {
    let mut out = FileAnalysis::default();
    if is_test_path(path) {
        return out;
    }
    let stream = tokenize(src);
    let toks = &stream.toks;
    let krate = crate_of(path);

    // Allow lookup: an allow on line L covers line L (trailing comment)
    // and, if L itself carries no code, the next line that does.
    let code_lines: HashSet<u32> = toks.iter().map(|t| t.line).collect();
    let mut allows: BTreeMap<u32, Vec<&Allow>> = BTreeMap::new();
    for a in &stream.allows {
        if Rule::from_name(&a.rule).is_none() {
            out.findings.push(Finding {
                rule: Rule::BadAllow,
                file: path.to_string(),
                line: a.line,
                message: format!("lint:allow names unknown rule '{}'", a.rule),
                allowed: None,
                symbol: None,
            });
            continue;
        }
        if a.reason.is_empty() {
            out.findings.push(Finding {
                rule: Rule::BadAllow,
                file: path.to_string(),
                line: a.line,
                message: format!(
                    "lint:allow({}) without a reason — justify the exception",
                    a.rule
                ),
                allowed: None,
                symbol: None,
            });
            continue;
        }
        let target = if code_lines.contains(&a.line) {
            a.line
        } else {
            code_lines.iter().copied().filter(|&l| l > a.line).min().unwrap_or(a.line)
        };
        allows.entry(target).or_default().push(a);
        // Export for the workspace pass (which reports findings on lines
        // of this file after all files are analyzed).
        out.allow_map
            .entry(target)
            .or_default()
            .push((a.rule.clone(), a.reason.clone()));
    }
    let allow_for = |rule: Rule, line: u32| -> Option<String> {
        allows
            .get(&line)
            .and_then(|v| v.iter().find(|a| a.rule == rule.name()))
            .map(|a| a.reason.clone())
    };

    // Mark token ranges belonging to test code: `#[cfg(test)] mod … { … }`
    // and `#[test] fn … { … }`.
    let test_mask = test_mask(toks);

    // ---- determinism rule (token-pattern scan) -------------------------
    let det_exempt = cfg.determinism_allow_paths.iter().any(|p| path.starts_with(p.as_str()));
    if !det_exempt {
        for i in 0..toks.len() {
            if test_mask[i] {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let msg = if t.text == "now"
                && path_prefix_is(toks, i, &["Instant", "SystemTime"])
            {
                let src_ty = prev_path_ident(toks, i).unwrap_or_else(|| "Instant".into());
                Some(format!(
                    "{src_ty}::now() is ambient time — inject a clock (polardbx_common::time / hlc::PhysicalClock) instead",
                ))
            } else if t.text == "thread_rng" || t.text == "from_entropy" {
                Some(format!(
                    "{}() is ambient randomness — use a seeded StdRng so chaos runs replay",
                    t.text
                ))
            } else if t.text == "random" && path_prefix_is(toks, i, &["rand"]) {
                Some("rand::random() is ambient randomness — use a seeded StdRng".to_string())
            } else {
                None
            };
            if let Some(message) = msg {
                out.findings.push(Finding {
                    rule: Rule::Determinism,
                    file: path.to_string(),
                    line: t.line,
                    message,
                    allowed: allow_for(Rule::Determinism, t.line),
                    symbol: None,
                });
            }
        }
    }

    // ---- unwrap rule ---------------------------------------------------
    if cfg.unwrap_deny_crates.contains(&krate) {
        for i in 0..toks.len() {
            if test_mask[i] {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                out.findings.push(Finding {
                    rule: Rule::Unwrap,
                    file: path.to_string(),
                    line: t.line,
                    message: format!(
                        ".{}() in protocol crate '{krate}' — return a typed Error instead of panicking",
                        t.text
                    ),
                    allowed: allow_for(Rule::Unwrap, t.line),
                    symbol: None,
                });
            }
        }
    }

    // Hot-function lines: a `// lint:hotpath` marker annotates the next
    // line carrying code — the function signature it sits above.
    let hot_lines: HashSet<u32> = stream
        .hotpaths
        .iter()
        .map(|&l| {
            if code_lines.contains(&l) {
                l
            } else {
                code_lines.iter().copied().filter(|&c| c > l).min().unwrap_or(l)
            }
        })
        .collect();

    // Enclosing `impl Type` / `trait Type` name per token index, for the
    // symbol table (qualifier narrowing needs to know which impl block a
    // method lives in).
    let impls = impl_mask(toks);

    // ---- lock + durability + hotpath rules (per-function walks) --------
    // The same walk extracts per-function facts (calls made under locks,
    // resources acquired/released, atomics touched) for the workspace
    // interprocedural pass.
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") && !test_mask[i] {
            if let Some((body_start, body_end)) = fn_body(toks, i) {
                let fn_name = toks
                    .get(i + 1)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .unwrap_or_else(|| "anon".into());
                let mut info = FnInfo {
                    name: fn_name,
                    impl_ty: impls[i].clone(),
                    file: path.to_string(),
                    krate: krate.clone(),
                    line: toks[i].line,
                    calls: Vec::new(),
                    locks: Vec::new(),
                    direct_write: false,
                    bare_routes: Vec::new(),
                    acquisitions: Vec::new(),
                    releases: Vec::new(),
                };
                walk_body(
                    path,
                    &krate,
                    toks,
                    body_start,
                    body_end,
                    &allow_for,
                    &mut out,
                    &mut info,
                );
                check_durability_order(path, toks, body_start, body_end, &allow_for, &mut out);
                if hot_lines.contains(&toks[i].line) {
                    check_hotpath_alloc(path, toks, body_start, body_end, &allow_for, &mut out);
                }
                scan_fn_facts(cfg, toks, body_start, body_end, &mut info);
                scan_resources(cfg, toks, body_start, body_end, &mut info);
                scan_atomics(path, toks, body_start, body_end, &mut out.atomics);
                out.fns.push(info);
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Routing calls with fenced variants (`<name>_fenced`); bare use in a
/// write-reaching function is a `fence_completeness` finding.
const BARE_ROUTES: &[&str] = &["route_row", "route_key", "shard_dn"];

/// Direct-write markers and bare routing calls in one body.
fn scan_fn_facts(
    cfg: &Config,
    toks: &[Tok],
    body_start: usize,
    body_end: usize,
    info: &mut FnInfo,
) {
    for i in body_start..=body_end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if cfg.write_markers.iter().any(|m| m == &t.text) {
            info.direct_write = true;
        }
        if BARE_ROUTES.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            info.bare_routes.push((t.text.clone(), t.line));
        }
    }
}

/// Match resource acquisitions (`freeze_writes`, `epochs.freeze`, …) and
/// scan their exit paths: a `?` or `return` between an acquisition and
/// its in-body release is a leaky exit; a body that never releases
/// records the calls made afterwards so the workspace pass can discharge
/// the leak through a callee's summary. Closure bodies are skipped — a
/// `?` inside `let cutover = || { … }` exits the closure, not the
/// function holding the resource.
fn scan_resources(
    cfg: &Config,
    toks: &[Tok],
    body_start: usize,
    body_end: usize,
    info: &mut FnInfo,
) {
    // Method call at `i` matching `name` with the pair's receiver
    // constraint satisfied.
    let is_res_call = |i: usize, name: &str, recv: &Option<String>| -> bool {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || t.text != name
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            || i == 0
            || !toks[i - 1].is_punct('.')
        {
            return false;
        }
        match recv {
            None => true,
            Some(want) => {
                let r = receiver_path(toks, i - 1, body_start);
                r.rsplit('.').next() == Some(want.as_str())
            }
        }
    };
    for pair in &cfg.resource_pairs {
        for i in body_start..=body_end {
            if is_res_call(i, &pair.release, &pair.recv)
                && !info.releases.contains(&pair.release)
            {
                info.releases.push(pair.release.clone());
            }
            if !is_res_call(i, &pair.acquire, &pair.recv) {
                continue;
            }
            let acq_line = toks[i].line;
            // Forward scan: find the first matching release, collecting
            // exits and calls along the way (closures skipped).
            let mut release_at: Option<usize> = None;
            let mut exits: Vec<(u32, &'static str)> = Vec::new();
            let mut calls_after: Vec<String> = Vec::new();
            let mut j = i + 1;
            while j <= body_end {
                let t = &toks[j];
                if t.is_punct('|') && closure_starts(toks, j, body_start) {
                    j = skip_closure(toks, j, body_end);
                    continue;
                }
                if is_res_call(j, &pair.release, &pair.recv) {
                    release_at = Some(j);
                    break;
                }
                if t.is_punct('?') {
                    exits.push((t.line, "?"));
                } else if t.is_ident("return") {
                    exits.push((t.line, "return"));
                } else if t.kind == TokKind::Ident
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                    && t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                    && !is_keyword(&t.text)
                {
                    calls_after.push(t.text.clone());
                }
                j += 1;
            }
            info.acquisitions.push(ResourceAcq {
                acquire: pair.acquire.clone(),
                release: pair.release.clone(),
                line: acq_line,
                released_in_body: release_at.is_some(),
                leaky_exits: if release_at.is_some() { exits } else { Vec::new() },
                calls_after,
            });
        }
    }
}

/// Does the `|` at `idx` open a closure parameter list? True when it
/// follows `=`, `(`, `,`, `move`, or another expression-starting
/// position — which in this codebase distinguishes it from bitwise-or.
fn closure_starts(toks: &[Tok], idx: usize, floor: usize) -> bool {
    if idx <= floor {
        return false;
    }
    let p = &toks[idx - 1];
    p.is_punct('=')
        || p.is_punct('(')
        || p.is_punct(',')
        || p.is_punct('{')
        || p.is_ident("move")
}

/// Skip a closure starting at the `|` at `idx`: past the parameter list,
/// an optional `-> Type`, and either a braced body (to its matching `}`)
/// or an expression body (to the `,`/`)`/`;` ending it). Returns the
/// index to resume at.
fn skip_closure(toks: &[Tok], idx: usize, body_end: usize) -> usize {
    // Parameter list: `||` or `|args|`.
    let mut j = idx + 1;
    while j <= body_end && !toks[j].is_punct('|') {
        j += 1;
    }
    j += 1; // past closing '|'
    // Body: first `{` before a terminator is a braced body. Paren and
    // bracket groups are skipped whole so a `-> Result<()>` return type
    // (or tuple/arg groups in an expression body) can't end the scan —
    // only an *unmatched* `)`/`,`/`;` terminates an expression closure.
    let mut k = j;
    while k <= body_end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            let (o, c) = if t.is_punct('(') { ('(', ')') } else { ('[', ']') };
            match matching(toks, k, o, c) {
                Some(e) => {
                    k = e + 1;
                    continue;
                }
                None => return body_end + 1,
            }
        }
        if t.is_punct('{') {
            return matching(toks, k, '{', '}').map(|e| e + 1).unwrap_or(body_end + 1);
        }
        if t.is_punct(';') || t.is_punct(',') || t.is_punct(')') {
            return k;
        }
        k += 1;
    }
    body_end + 1
}

/// Keywords that can directly precede `(` without being calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "move"
            | "else"
            | "let"
            | "fn"
            | "impl"
            | "use"
            | "pub"
            | "mod"
            | "where"
            | "unsafe"
            | "mut"
            | "ref"
            | "break"
            | "continue"
    )
}

/// Atomic access methods whose first ordering argument classifies the
/// site. Calls with *no* ordering identifier in their arguments are not
/// atomics (`self.store(table)`) and are skipped.
const ATOMIC_STORES: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Atomic accesses in one body, with receiver field and strongest named
/// ordering.
fn scan_atomics(
    path: &str,
    toks: &[Tok],
    body_start: usize,
    body_end: usize,
    out: &mut Vec<AtomicAccess>,
) {
    for i in body_start..=body_end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let is_store = ATOMIC_STORES.contains(&t.text.as_str());
        let is_load = t.text == "load";
        if !is_store && !is_load {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|n| n.is_punct('(')).map(|_| i + 1) else {
            continue;
        };
        let Some(close) = matching(toks, open, '(', ')') else { continue };
        let mut ord: Option<AtomicOrd> = None;
        for a in &toks[open + 1..close] {
            if a.kind == TokKind::Ident {
                if let Some(o) = AtomicOrd::from_ident(&a.text) {
                    ord = Some(ord.map_or(o, |p| p.max(o)));
                }
            }
        }
        // No Ordering ident → not an atomic access (e.g. a cache's
        // `.store(value)`); skip rather than guess.
        let Some(ordering) = ord else { continue };
        let field = receiver_path(toks, i - 1, body_start)
            .rsplit('.')
            .next()
            .unwrap_or("anon")
            .to_string();
        out.push(AtomicAccess {
            field,
            is_store,
            ordering,
            file: path.to_string(),
            line: t.line,
        });
    }
}

/// Allocating constructors flagged when path-called (`Vec::new()`…) in a
/// hot function.
const ALLOC_TYPES: &[&str] =
    &["Vec", "VecDeque", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// Allocating methods flagged when method-called (`.to_vec()`…) in a hot
/// function. `clone` is handled separately so `Arc::clone(&x)` — the
/// explicit refcount-bump idiom — stays legal.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned"];

/// The allocation-free invariant for `// lint:hotpath` functions: the
/// steady-state commit path must not heap-allocate per call. Flags
/// `Vec::new()`-style constructors on allocating types, the `vec![…]`
/// macro, `.to_vec()/.to_string()/.to_owned()` copies, and method-form
/// `.clone()` (deep-copy by default; for refcounts use `Arc::clone(&x)`,
/// which the rule deliberately ignores). Era-amortized allocations that
/// must stay need `lint:allow(hotpath_alloc, why)`.
fn check_hotpath_alloc(
    path: &str,
    toks: &[Tok],
    body_start: usize,
    body_end: usize,
    allow_for: &dyn Fn(Rule, u32) -> Option<String>,
    out: &mut FileAnalysis,
) {
    for i in body_start..=body_end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let msg = if t.text == "vec" && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            Some("`vec![…]` heap-allocates per call".to_string())
        } else if t.text == "new" && is_call {
            prev_path_ident(toks, i)
                .filter(|ty| ALLOC_TYPES.contains(&ty.as_str()))
                .map(|ty| format!("`{ty}::new()` heap-allocates per call"))
        } else if ALLOC_METHODS.contains(&t.text.as_str())
            && is_call
            && i > body_start
            && toks[i - 1].is_punct('.')
        {
            Some(format!("`.{}()` copies into a fresh heap buffer", t.text))
        } else if t.text == "clone"
            && is_call
            && i > body_start
            && toks[i - 1].is_punct('.')
            && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
        {
            Some(
                "`.clone()` may deep-copy per call — reuse a buffer, or use `Arc::clone(&x)` \
                 for an explicit refcount bump"
                    .to_string(),
            )
        } else {
            None
        };
        if let Some(m) = msg {
            out.findings.push(Finding {
                rule: Rule::HotpathAlloc,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "{m} inside a `lint:hotpath` function — the commit path must be \
                     allocation-free"
                ),
                allowed: allow_for(Rule::HotpathAlloc, t.line),
                symbol: None,
            });
        }
    }
}

/// The early-release gate, statically. The one commit path publishes a
/// transaction's commit stamp *before* its epoch is durable and relies on
/// the unstable flag to keep external readers (and the client ack) off it
/// until then. So in a function that calls `mark_unstable(…)`, every
/// visibility stamp — `txns.commit(…)` or `…store.commit(…)` — must be
/// sequenced *after* the first such call; and a function that submits a
/// tracked transaction (`submit(Some(…), …)`) to the pipeline without
/// calling `mark_unstable` at all is a finding too. Functions with neither
/// are out of scope: replay and resolver paths stamp visibility for
/// records that are durable by definition.
fn check_durability_order(
    path: &str,
    toks: &[Tok],
    body_start: usize,
    body_end: usize,
    allow_for: &dyn Fn(Rule, u32) -> Option<String>,
    out: &mut FileAnalysis,
) {
    let mut first_unstable: Option<(usize, u32)> = None;
    let mut visibility: Vec<(usize, u32, String)> = Vec::new();
    let mut tracked_submits: Vec<u32> = Vec::new();
    for i in body_start..=body_end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let method = i > body_start && toks[i - 1].is_punct('.');
        if t.text == "mark_unstable" {
            first_unstable.get_or_insert((i, t.line));
        } else if t.text == "commit" && method {
            let recv = receiver_path(toks, i - 1, body_start);
            let last = recv.rsplit('.').next().unwrap_or(&recv);
            if last == "txns" || last.ends_with("store") {
                visibility.push((i, t.line, recv));
            }
        } else if matches!(t.text.as_str(), "submit" | "submit_sync")
            && method
            && toks.get(i + 2).is_some_and(|n| n.is_ident("Some"))
        {
            tracked_submits.push(t.line);
        }
    }
    let mut report = |line: u32, message: String| {
        out.findings.push(Finding {
            rule: Rule::DurabilityOrder,
            file: path.to_string(),
            line,
            message,
            allowed: allow_for(Rule::DurabilityOrder, line),
            symbol: None,
        });
    };
    match first_unstable {
        Some((u, unstable_line)) => {
            for (_, line, recv) in visibility.into_iter().filter(|(i, ..)| *i < u) {
                report(
                    line,
                    format!(
                        "'{recv}.commit()' publishes the stamp before `mark_unstable` (line \
                         {unstable_line}) — readers would see an undurable commit ungated",
                    ),
                );
            }
        }
        None => {
            for line in tracked_submits {
                report(
                    line,
                    "a tracked transaction is submitted to the pipeline in a function that \
                     never calls `mark_unstable` — nothing gates its early-released stamp"
                        .to_string(),
                );
            }
        }
    }
}

/// Does the `::`-path ending just before ident `i` terminate in one of
/// `last`? Matches `Instant::now`, `std::time::Instant::now`, etc.
fn path_prefix_is(toks: &[Tok], i: usize, last: &[&str]) -> bool {
    prev_path_ident(toks, i).map(|t| last.contains(&t.as_str())).unwrap_or(false)
}

/// The identifier preceding `i` across a `::` separator, if any.
pub(crate) fn prev_path_ident(toks: &[Tok], i: usize) -> Option<String> {
    if i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        let p = &toks[i - 3];
        if p.kind == TokKind::Ident {
            return Some(p.text.clone());
        }
    }
    None
}

/// Token-index mask: true where the token sits in test code — an item,
/// field or statement under `#[test]` or a `#[cfg(…)]` that needs `test`:
/// a `mod { … }` or `fn { … }` through its body, a field through its `,`,
/// a statement through its `;`.
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        // #[test], #[cfg(test)], #[cfg(all(test, …))] — not #[cfg(not(test))].
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = match matching(toks, i + 1, '[', ']') {
                Some(c) => c,
                None => break,
            };
            if is_test_attr(&toks[i + 2..close]) {
                // Skip any further attributes, then mask the item.
                let mut j = close + 1;
                while toks.get(j).is_some_and(|t| t.is_punct('#'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    match matching(toks, j + 1, '[', ']') {
                        Some(c) => j = c + 1,
                        None => return mask,
                    }
                }
                let end = attributed_end(toks, j);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Is the attribute whose tokens (inside `#[…]`) are `attr` a test one:
/// `test`, or a `cfg` that names `test` outside a `not(…)`?
fn is_test_attr(attr: &[Tok]) -> bool {
    if attr.first().is_some_and(|t| t.is_ident("test")) {
        return true;
    }
    if !attr.first().is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    // The predicates enclosing each token: `not` negates what it holds.
    let mut within: Vec<bool> = Vec::new();
    for (k, t) in attr.iter().enumerate() {
        if t.is_punct('(') {
            within.push(k > 0 && attr[k - 1].is_ident("not"));
        } else if t.is_punct(')') {
            within.pop();
        } else if t.is_ident("test") && !within.iter().any(|&not| not) {
            return true;
        }
    }
    false
}

/// The last token of the item, field or statement that starts at `j`
/// after its attributes: the `}` closing its body when it has one, else
/// the `;` or `,` that ends it, else the token before the `}` closing the
/// block it sits in (a last field without a trailing comma).
fn attributed_end(toks: &[Tok], j: usize) -> usize {
    // `()` / `[]` nesting, and `<>` nesting, which only a `,` heeds: a
    // comparison in a statement opens a `<` that never closes.
    let (mut nest, mut angle) = (0i64, 0i64);
    for (k, t) in toks.iter().enumerate().skip(j) {
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !toks[k - 1].is_punct('-') {
            angle -= 1;
        } else if nest <= 0 {
            if t.is_punct('{') {
                return matching(toks, k, '{', '}').unwrap_or(toks.len() - 1);
            }
            if t.is_punct(';') || (t.is_punct(',') && angle <= 0) {
                return k;
            }
            if t.is_punct('}') {
                return k.saturating_sub(1).max(j);
            }
        }
    }
    toks.len() - 1
}

/// Per-token enclosing `impl Type` / `trait Type` name. For
/// `impl Trait for Type` the *type* wins (that's what `Type::method`
/// call qualifiers name).
pub(crate) fn impl_mask(toks: &[Tok]) -> Vec<Option<String>> {
    let mut mask: Vec<Option<String>> = vec![None; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        // Item-position check: `-> impl Trait` (return position) and
        // `(impl Trait` / `, impl Trait` (argument position) are trait
        // bounds, not blocks. An item-level `impl`/`trait` follows the
        // start of file, a block edge, an attribute, or `pub`/`unsafe`.
        let item_pos = i == 0
            || toks[i - 1].is_punct('{')
            || toks[i - 1].is_punct('}')
            || toks[i - 1].is_punct(';')
            || toks[i - 1].is_punct(']')
            || toks[i - 1].is_ident("pub")
            || toks[i - 1].is_ident("unsafe");
        if (toks[i].is_ident("impl") || toks[i].is_ident("trait")) && item_pos {
            // Collect header idents up to the opening `{` (skipping
            // paren/bracket groups so `impl<F: Fn() -> R>` can't confuse
            // the scan), tracking `for`.
            let mut j = i + 1;
            let mut after_for: Option<String> = None;
            let mut first: Option<String> = None;
            let mut saw_for = false;
            let mut angle = 0i64;
            let mut ok = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    if j > 0 && toks[j - 1].is_punct('-') {
                        // `->` in a bound; not an angle close.
                    } else {
                        angle = (angle - 1).max(0);
                    }
                } else if t.is_punct('(') || t.is_punct('[') {
                    let (o, c) = if t.is_punct('(') { ('(', ')') } else { ('[', ']') };
                    match matching(toks, j, o, c) {
                        Some(e) => j = e,
                        None => break,
                    }
                } else if t.is_punct('{') && angle == 0 {
                    ok = true;
                    break;
                } else if t.is_punct(';') && angle == 0 {
                    break;
                } else if t.kind == TokKind::Ident && angle == 0 {
                    if t.text == "for" {
                        saw_for = true;
                    } else if t.text == "where" {
                        // where-clause idents are bounds, not the type.
                    } else if saw_for {
                        if after_for.is_none() {
                            after_for = Some(t.text.clone());
                        }
                    } else if first.is_none() {
                        first = Some(t.text.clone());
                    }
                }
                j += 1;
            }
            if ok {
                if let Some(end) = matching(toks, j, '{', '}') {
                    let name = after_for.or(first);
                    if let Some(n) = name {
                        for m in mask.iter_mut().take(end + 1).skip(j) {
                            *m = Some(n.clone());
                        }
                    }
                    // Impl blocks don't nest; resume after the header so
                    // nested `impl Trait` bounds inside the block are
                    // still scanned (they fail the `{`-before-`;` test).
                    i = j + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the punct matching the opener at `open_idx`.
pub(crate) fn matching(toks: &[Tok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// For a `fn` keyword at `fn_idx`, the `(body_start, body_end)` token
/// indices of its `{ … }` body (both pointing at the braces), or `None`
/// for bodyless trait signatures.
pub(crate) fn fn_body(toks: &[Tok], fn_idx: usize) -> Option<(usize, usize)> {
    let mut j = fn_idx + 1;
    let mut angle = 0i64;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0); // `->` shows up as two puncts
        } else if t.is_punct('(') || t.is_punct('[') {
            let (o, c) = if t.is_punct('(') { ('(', ')') } else { ('[', ']') };
            j = matching(toks, j, o, c)?;
        } else if t.is_punct('{') && angle == 0 {
            let end = matching(toks, j, '{', '}')?;
            return Some((j, end));
        } else if t.is_punct(';') && angle == 0 {
            return None;
        }
        j += 1;
    }
    None
}

/// Walk a function body tracking live guards, emitting lock-order edges
/// and guard-across-blocking findings. Also records, into `info`, the
/// locks this body acquires and every call site with the lock context it
/// runs under — the raw material for the interprocedural pass.
#[allow(clippy::too_many_arguments)]
fn walk_body(
    path: &str,
    krate: &str,
    toks: &[Tok],
    body_start: usize,
    body_end: usize,
    allow_for: &dyn Fn(Rule, u32) -> Option<String>,
    out: &mut FileAnalysis,
    info: &mut FnInfo,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut paren = 0i64;
    let mut i = body_start;
    while i <= body_end {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            // Temporaries from `if`/`while` conditions are dropped before
            // the block runs; only a `match` scrutinee guard survives into
            // its arms (the classic footgun — keep it live there).
            if !stmt_starts_with(toks, i, body_start, "match") {
                guards.retain(|g| g.name.is_some());
            }
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth && (g.name.is_some() || g.depth < depth));
            // Temporaries also die at block edges.
            guards.retain(|g| g.name.is_some());
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct(';') && paren <= 1 {
            // Statement end (paren==1 covers the common `);` of a call —
            // close-paren processed after this token decrements it).
            guards.retain(|g| g.name.is_some());
        } else if t.kind == TokKind::Ident {
            // drop(name) kills the named guard.
            if t.text == "drop"
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(victim) = toks.get(i + 2) {
                    if victim.kind == TokKind::Ident {
                        guards.retain(|g| g.name.as_deref() != Some(victim.text.as_str()));
                    }
                }
            }
            // Lock acquisition: `.lock()` / `.read()` / `.write()`.
            let zero_arg_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
            if ACQUIRE.contains(&t.text.as_str())
                && i > body_start
                && toks[i - 1].is_punct('.')
                && zero_arg_call
            {
                let recv = receiver_path(toks, i - 1, body_start);
                let lock_name = format!("{krate}::{recv}");
                if !info.locks.contains(&lock_name) {
                    info.locks.push(lock_name.clone());
                }
                let allowed = allow_for(Rule::LockOrder, t.line);
                for g in &guards {
                    if g.lock == lock_name {
                        out.findings.push(Finding {
                            rule: Rule::LockOrder,
                            file: path.to_string(),
                            line: t.line,
                            message: format!(
                                "nested acquisition of '{lock_name}' (already held since line {}) — std-backed locks are not reentrant",
                                g.line
                            ),
                            allowed: allowed.clone(),
                            symbol: None,
                        });
                    } else {
                        out.edges.push(LockEdge {
                            from: g.lock.clone(),
                            to: lock_name.clone(),
                            file: path.to_string(),
                            line: t.line,
                            allowed: allowed.clone(),
                            via: None,
                        });
                    }
                }
                // A guard is only *bound* when the acquisition terminates
                // the initializer (`let g = x.lock();`). A chained call
                // (`x.lock().remove(k)`) or deref (`*x.lock()`) hands out
                // the inner value; the guard itself is a temporary.
                let terminates_stmt = toks.get(i + 3).is_some_and(|n| n.is_punct(';'));
                let binding = if terminates_stmt {
                    binding_name(toks, i, body_start)
                } else {
                    None
                };
                if let Some(name) = &binding {
                    // Reassignment: the old guard is released after the new
                    // acquisition (edge above already captured the overlap).
                    guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                }
                guards.push(Guard {
                    name: binding,
                    lock: lock_name,
                    depth,
                    line: t.line,
                });
                i += 3; // skip `( )`
                continue;
            }
            // Call-site recording for the interprocedural pass: any
            // lowercase ident applied to `(…)` that isn't a keyword. The
            // `Type::name` qualifier (uppercase path prefix) narrows
            // resolution later; macro invocations (`name!`) never match
            // because `!` sits between the ident and the paren.
            let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if is_call
                && !is_keyword(&t.text)
                && t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
            {
                let qual = prev_path_ident(toks, i)
                    .filter(|q| q.chars().next().is_some_and(|c| c.is_uppercase()));
                info.calls.push(CallSite {
                    callee: t.text.clone(),
                    qual,
                    held: guards.iter().map(|g| g.lock.clone()).collect(),
                    line: t.line,
                });
            }
            // Blocking call under a live guard.
            let method_or_path = i > body_start
                && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
            let sink_write = t.text == "write"
                && is_call
                && !zero_arg_call
                && i > body_start
                && toks[i - 1].is_punct('.')
                && receiver_path(toks, i - 1, body_start).ends_with("sink");
            if is_call
                && method_or_path
                && (BLOCKING.contains(&t.text.as_str()) || sink_write)
                && !guards.is_empty()
            {
                let held: Vec<String> = guards
                    .iter()
                    .map(|g| {
                        format!(
                            "'{}'{}",
                            g.lock,
                            g.name.as_deref().map(|n| format!(" (as {n})")).unwrap_or_default()
                        )
                    })
                    .collect();
                let what = if sink_write { "sink write" } else { t.text.as_str() };
                out.findings.push(Finding {
                    rule: Rule::GuardBlocking,
                    file: path.to_string(),
                    line: t.line,
                    message: format!(
                        "blocking call `{what}` while holding {} — release the guard first",
                        held.join(", ")
                    ),
                    allowed: allow_for(Rule::GuardBlocking, t.line),
                    symbol: None,
                });
            }
        }
        i += 1;
    }
}

/// Walk backwards from the `.` before an acquisition to name the receiver:
/// `self.shards[i].map.read()` → `shards.map`. Keeps at most the last two
/// segments; drops a leading `self`.
fn receiver_path(toks: &[Tok], dot_idx: usize, floor: usize) -> String {
    let mut segs: Vec<String> = Vec::new();
    let mut j = dot_idx; // points at '.'
    loop {
        if j == 0 || j <= floor {
            break;
        }
        let before = j - 1;
        let t = &toks[before];
        if t.kind == TokKind::Ident {
            segs.push(t.text.clone());
            // Continue if the ident is itself preceded by `.`; a `::`
            // prefix means a path root (static/const) — stop there.
            if before > floor && toks[before - 1].is_punct('.') {
                j = before - 1;
                continue;
            }
            break;
        } else if t.is_punct(']') || t.is_punct(')') {
            // Skip the bracketed group backwards.
            let (open, close) = if t.is_punct(']') { ('[', ']') } else { ('(', ')') };
            let mut depth = 0i64;
            let mut k = before;
            loop {
                if toks[k].is_punct(close) {
                    depth += 1;
                } else if toks[k].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 || k <= floor {
                    break;
                }
                k -= 1;
            }
            j = k;
            continue;
        } else {
            break;
        }
    }
    segs.retain(|s| s != "self");
    if segs.is_empty() {
        return "anon".to_string();
    }
    segs.reverse();
    if segs.len() > 2 {
        segs = segs.split_off(segs.len() - 2);
    }
    segs.join(".")
}

/// Index of the first token of the statement containing `idx` (scan back
/// to the last `;`, `{` or `}`).
fn stmt_start(toks: &[Tok], idx: usize, floor: usize) -> usize {
    let mut s = idx;
    while s > floor {
        let t = &toks[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    s
}

/// Does the statement containing the token at `idx` open with `kw`?
fn stmt_starts_with(toks: &[Tok], idx: usize, floor: usize, kw: &str) -> bool {
    toks.get(stmt_start(toks, idx, floor)).is_some_and(|t| t.is_ident(kw))
}

/// If the statement containing the acquisition at `acq_idx` binds it via
/// `let [mut] name = …` or reassigns `name = …`, return the name.
fn binding_name(toks: &[Tok], acq_idx: usize, floor: usize) -> Option<String> {
    let s = stmt_start(toks, acq_idx, floor);
    let t0 = toks.get(s)?;
    if t0.is_ident("let") {
        let mut k = s + 1;
        if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let name = toks.get(k)?;
        if name.kind == TokKind::Ident && toks.get(k + 1).is_some_and(|t| t.is_punct('=')) {
            // `let v = *x.lock();` copies the pointee out — the guard is a
            // temporary, not the binding.
            if toks.get(k + 2).is_some_and(|t| t.is_punct('*')) {
                return None;
            }
            // Pattern bindings (`let Some(g) = …`) start uppercase; the
            // zero-arg acquisitions never return Option, so skip those.
            if name.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') {
                return Some(name.text.clone());
            }
        }
        return None;
    }
    if t0.kind == TokKind::Ident && toks.get(s + 1).is_some_and(|t| t.is_punct('=')) {
        // Reassignment of an existing binding (`st = self.st.lock();`) —
        // but not `==`, and not through a deref.
        if !toks.get(s + 2).is_some_and(|t| t.is_punct('=') || t.is_punct('*')) {
            return Some(t0.text.clone());
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Workspace interprocedural pass
// ---------------------------------------------------------------------------

/// Run the interprocedural rules over the whole workspace's per-file
/// facts: builds the symbol table + call graph, propagates summaries to
/// fixpoint, and emits `fence_completeness` / `release_on_all_paths` /
/// `atomic_publish` findings plus interprocedural lock-order edges
/// (held-lock sets flowing across resolved calls).
pub fn workspace_pass(
    cfg: &Config,
    fns: Vec<FnInfo>,
    atomics: &[AtomicAccess],
    allow_maps: &HashMap<String, AllowMap>,
) -> (Vec<Finding>, Vec<LockEdge>) {
    let table = SymbolTable::build(fns);
    let graph = CallGraph::build(&table);
    let sums: Vec<Summary> = compute_summaries(&table, &graph);
    let stop: HashSet<&str> = STOPLIST.iter().copied().collect();

    let allow_of = |file: &str, line: u32, rule: Rule| -> Option<String> {
        allow_maps
            .get(file)
            .and_then(|m| m.get(&line))
            .and_then(|v| v.iter().find(|(r, _)| r == rule.name()))
            .map(|(_, reason)| reason.clone())
    };
    let sanctioned = |paths: &[String], file: &str| paths.iter().any(|p| file.starts_with(p.as_str()));

    let mut findings: Vec<Finding> = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();

    // ---- fence_completeness -------------------------------------------
    for (i, f) in table.fns.iter().enumerate() {
        if f.bare_routes.is_empty()
            || !sums[i].reaches_write
            || sanctioned(&cfg.fence_sanctioned_paths, &f.file)
        {
            continue;
        }
        for (name, line) in &f.bare_routes {
            findings.push(Finding {
                rule: Rule::FenceCompleteness,
                file: f.file.clone(),
                line: *line,
                message: format!(
                    "bare `{name}()` in a function that reaches a shard write — use \
                     `{name}_fenced()` so a re-home cutover racing this statement is \
                     caught by the commit-time epoch re-check (lost-update class)",
                ),
                allowed: allow_of(&f.file, *line, Rule::FenceCompleteness),
                symbol: Some(f.symbol_path()),
            });
        }
    }

    // ---- release_on_all_paths -----------------------------------------
    for f in &table.fns {
        for acq in &f.acquisitions {
            if acq.released_in_body {
                for (line, kind) in &acq.leaky_exits {
                    findings.push(Finding {
                        rule: Rule::ReleaseOnAllPaths,
                        file: f.file.clone(),
                        line: *line,
                        message: format!(
                            "`{kind}` exit between `{}()` (line {}) and its `{}()` — an \
                             early error return leaks the acquisition (frozen-shard \
                             livelock class); release unconditionally before propagating",
                            acq.acquire, acq.line, acq.release,
                        ),
                        allowed: allow_of(&f.file, *line, Rule::ReleaseOnAllPaths),
                        symbol: Some(f.symbol_path()),
                    });
                }
            } else {
                // No in-body release: a resolved callee whose transitive
                // summary releases the resource discharges the leak
                // (release moved into a helper).
                let discharged = acq.calls_after.iter().any(|callee| {
                    crate::callgraph::resolve(&table, &stop, &f.krate, callee, None)
                        .iter()
                        .any(|&t| sums[t].releases.contains(&acq.release))
                });
                if !discharged {
                    findings.push(Finding {
                        rule: Rule::ReleaseOnAllPaths,
                        file: f.file.clone(),
                        line: acq.line,
                        message: format!(
                            "`{}()` is never released in this function (no `{}()` on any \
                             path, directly or via a resolved callee) — the resource \
                             stays acquired forever (frozen-shard livelock class)",
                            acq.acquire, acq.release,
                        ),
                        allowed: allow_of(&f.file, acq.line, Rule::ReleaseOnAllPaths),
                        symbol: Some(f.symbol_path()),
                    });
                }
            }
        }
    }

    // ---- atomic_publish ------------------------------------------------
    // Key by (crate, field): cross-crate fields with the same name are
    // unrelated atomics.
    let mut by_field: BTreeMap<(String, String), Vec<&AtomicAccess>> = BTreeMap::new();
    for a in atomics {
        by_field.entry((crate_of(&a.file), a.field.clone())).or_default().push(a);
    }
    for ((_, field), accesses) in &by_field {
        let acquire_load = accesses
            .iter()
            .find(|a| !a.is_store && a.ordering >= AtomicOrd::RelAcq);
        let Some(al) = acquire_load else { continue };
        for a in accesses {
            if !a.is_store
                || a.ordering != AtomicOrd::Relaxed
                || sanctioned(&cfg.atomic_sanctioned_paths, &a.file)
            {
                continue;
            }
            findings.push(Finding {
                rule: Rule::AtomicPublish,
                file: a.file.clone(),
                line: a.line,
                message: format!(
                    "Relaxed store to atomic `{field}`, which is Acquire-loaded at \
                     {}:{} — publication without a Release store has no happens-before \
                     edge; readers can observe the flag without the data it guards",
                    al.file, al.line,
                ),
                allowed: allow_of(&a.file, a.line, Rule::AtomicPublish),
                symbol: enclosing_symbol(&table, &a.file, a.line),
            });
        }
    }

    // ---- interprocedural lock-order edges ------------------------------
    // A call made under guard contributes `held → callee-transitive-lock`
    // edges; cycles split across functions then surface in the same
    // graph pass as intraprocedural ones.
    let mut seen: HashSet<(String, String, String, u32)> = HashSet::new();
    for (i, f) in table.fns.iter().enumerate() {
        for (c, call) in f.calls.iter().enumerate() {
            if call.held.is_empty() {
                continue;
            }
            for &t in &graph.targets[i][c] {
                if t == i {
                    continue;
                }
                for lock in &sums[t].locks {
                    for held in &call.held {
                        if held == lock {
                            continue;
                        }
                        if !seen.insert((held.clone(), lock.clone(), f.file.clone(), call.line))
                        {
                            continue;
                        }
                        edges.push(LockEdge {
                            from: held.clone(),
                            to: lock.clone(),
                            file: f.file.clone(),
                            line: call.line,
                            allowed: allow_of(&f.file, call.line, Rule::LockOrder),
                            via: Some(call.callee.clone()),
                        });
                    }
                }
            }
        }
    }

    (findings, edges)
}

/// Symbol path of the function enclosing `line` in `file`, if any.
fn enclosing_symbol(table: &SymbolTable, file: &str, line: u32) -> Option<String> {
    table
        .fns
        .iter()
        .filter(|f| f.file == file && f.line <= line)
        .max_by_key(|f| f.line)
        .map(|f| f.symbol_path())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    /// The identifiers `src`'s test mask leaves out.
    fn product_idents(src: &str) -> Vec<String> {
        let toks = tokenize(src).toks;
        let mask = test_mask(&toks);
        toks.iter()
            .zip(mask)
            .filter(|(t, test)| !test && t.text.chars().all(|c| c.is_alphanumeric() || c == '_'))
            .map(|(t, _)| t.text.clone())
            .collect()
    }

    #[test]
    fn a_test_field_or_statement_masks_itself_not_what_follows() {
        let src = "pub struct A { x: u32, #[cfg(test)] time: Option<Arc<T, U>>, y: u8 }
            pub struct B { #[cfg(test)] time: Option<Arc<T>> }
            impl Default for B { fn default() -> B { #[cfg(test)] let z = a < b; keep(); B {} } }";
        let kept = product_idents(src);
        for name in ["x", "y", "Default", "default", "keep"] {
            assert!(kept.iter().any(|k| k == name), "{name} masked: {kept:?}");
        }
        for name in ["time", "z"] {
            assert!(!kept.iter().any(|k| k == name), "{name} kept: {kept:?}");
        }
    }

    #[test]
    fn cfg_not_test_is_product_code() {
        let src = "#[cfg(not(test))] pub fn live() {} #[cfg(test)] fn t() {}
            #[cfg(all(test, not(loom)))] fn u() {} #[cfg(any(unix, not(test)))] fn v() {}";
        let kept = product_idents(src);
        assert!(kept.iter().any(|k| k == "live") && kept.iter().any(|k| k == "v"), "{kept:?}");
        assert!(!kept.iter().any(|k| k == "t" || k == "u"), "{kept:?}");
    }
}
