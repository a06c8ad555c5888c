//! Reachability census (`polarlint --census <path>`): for every `pub`
//! item of the product crates, which roots reach it. Roots are places:
//! `polarbench` = `benchmark/src`, `figure` = `crates/bench/src` +
//! `examples/`, `checker` = `crates/sitcheck` + `crates/lint`, `test` =
//! `tests/` directories and `#[cfg(test)]` code, and `product` =
//! `PolarDbx::build`, `Session`, `FrontDoor` and whatever they start.
//!
//! A mention of an item's name in a root is a direct reach; a mention inside
//! another product item passes that item's reach on, to a fixpoint.
//! Resolution is by name, narrowed by `Type::` qualifiers, and a method is
//! never reached from further than its type is. The lock-order call graph's
//! resolver is not reused: its stoplist (`new`, `get`, `commit`, …) is right
//! for lock domains and would leave most constructors unreached here.
//!
//! A whole crate is a finding too when more than [`TEST_ONLY_SHARE`] of its
//! `pub` items — that is, any one of them — are reached only from tests:
//! such an item is code the product does not run. It is deleted, reached
//! from the product, or moved under `#[cfg(test)]` with the tests that
//! call it. A `lint:allow(unreached, …)` on the first line of the crate's
//! `src/lib.rs` justifies it.

use crate::analysis::{crate_of, fn_body, impl_mask, matching, prev_path_ident, test_mask};
use crate::analysis::{Finding, Rule};
use crate::symbols::module_of;
use crate::tokenizer::{tokenize, Allow, TokKind};
use std::collections::{BTreeMap, HashMap};

/// Root classes, in bit order of `CensusItem::reached`.
pub const CLASSES: [&str; 5] = ["product", "polarbench", "figure", "checker", "test"];
const ITEM_KW: [&str; 8] = ["fn", "struct", "enum", "union", "trait", "type", "const", "static"];
const MODIFIERS: [&str; 4] = ["const", "unsafe", "async", "extern"];
const PRODUCT_ROOTS: [&str; 3] = ["PolarDbx", "Session", "FrontDoor"];
/// The largest share of a product crate's `pub` items that may be reached
/// from tests alone: none.
pub const TEST_ONLY_SHARE: f64 = 0.0;
const TEST_ONLY: u8 = 1 << 4;

/// One `pub` item of a product crate and the roots that reach it.
#[derive(Debug, Clone)]
pub struct CensusItem {
    /// `crate::module::Type::name`.
    pub item: String,
    /// The item keyword (`fn`, `struct`, …).
    pub kind: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// Bit `i` set = reached from `CLASSES[i]`.
    pub reached: u8,
    /// The bits of `reached` whose root names the item itself, not another
    /// product item that does.
    pub direct: u8,
    /// Reason of a covering `lint:allow(unreached, …)`.
    pub allowed: Option<String>,
}

impl CensusItem {
    /// The class names in `reached`.
    pub fn reached_from(&self) -> Vec<&'static str> {
        (0..CLASSES.len()).filter(|b| self.reached & (1 << b) != 0).map(|b| CLASSES[b]).collect()
    }
}

struct Node {
    name: String,
    impl_ty: Option<String>,
    is_type: bool,
    report: Option<CensusItem>,
}

/// The class a token at `path` stands for, or `None` for product-crate
/// code, whose class is whatever reaches the enclosing item.
fn root_class(path: &str, in_test: bool) -> Option<u8> {
    Some(if in_test || path.starts_with("tests/") || path.contains("/tests/") {
        1 << 4
    } else if path.starts_with("benchmark/") {
        1 << 1
    } else if path.starts_with("examples/") || path.starts_with("crates/bench/") {
        1 << 2
    } else if path.starts_with("crates/sitcheck/") || path.starts_with("crates/lint/") {
        1 << 3
    } else if path.starts_with("crates/") {
        return None;
    } else {
        0 // the root facade and the shims: re-exports, no uses
    })
}

/// Classify every `pub` item of the product crates in `sources`
/// (`(repo-relative path, source)` pairs) and report the unreached ones.
pub fn census(sources: &[(String, String)]) -> (Vec<CensusItem>, Vec<Finding>) {
    let mut nodes: Vec<Node> = Vec::new();
    let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut files = Vec::new();
    // Each product crate's `lib.rs` allow, which covers the crate gate.
    let mut crate_allows: HashMap<String, String> = HashMap::new();
    for (path, src) in sources {
        let stream = tokenize(src);
        let toks = stream.toks;
        let (tests, impls) = (test_mask(&toks), impl_mask(&toks));
        let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
        // An allow sits on the item's line or the one above it.
        let allow_at = |line: u32| {
            let on = |a: &Allow| a.rule == "unreached" && !a.reason.is_empty();
            let covers = |a: &&Allow| on(a) && (a.line..=a.line + 1).contains(&line);
            stream.allows.iter().find(covers).map(|a| a.reason.clone())
        };
        if let (true, Some(reason)) = (path.ends_with("/src/lib.rs"), allow_at(1)) {
            crate_allows.insert(crate_of(path), reason);
        }
        for i in 0..toks.len() {
            let kw = &toks[i];
            let after_sigil = i > 0 && ["*", "<", ","].contains(&toks[i - 1].text.as_str());
            let is_kw = kw.kind == TokKind::Ident && ITEM_KW.contains(&kw.text.as_str());
            let is_item = is_kw && !after_sigil && root_class(path, tests[i]).is_none();
            let name = toks.get(i + 1).filter(|t| is_item && t.kind == TokKind::Ident);
            // `const fn`: the `fn` token carries the item.
            let skip = |t: &str| t == "fn" || MODIFIERS.contains(&t);
            let Some(name) = name.filter(|t| !skip(&t.text)) else { continue };
            // A body, or up to the `;` (an array type holds one of its own).
            let end = fn_body(&toks, i).map(|(_, e)| e).unwrap_or_else(|| {
                let mut j = i;
                while j + 1 < toks.len() && !toks[j].is_punct(';') {
                    let array = toks[j].is_punct('[').then(|| matching(&toks, j, '[', ']')).flatten();
                    j = array.unwrap_or(j) + 1;
                }
                j
            });
            let mut j = i;
            while j > 0 && (toks[j - 1].kind == TokKind::Str || MODIFIERS.contains(&toks[j - 1].text.as_str())) {
                j -= 1;
            }
            let is_pub = j > 0 && toks[j - 1].is_ident("pub");
            let impl_ty = impls[i].clone();
            let ty: String = impl_ty.iter().map(|t| format!("{t}::")).collect();
            let report = is_pub.then(|| CensusItem {
                item: format!("{}::{}::{ty}{}", crate_of(path), module_of(path), name.text),
                kind: kw.text.clone(),
                file: path.clone(),
                line: kw.line,
                reached: 0,
                direct: 0,
                allowed: allow_at(kw.line),
            });
            let is_type = !["fn", "const", "static"].contains(&kw.text.as_str());
            owner[i..=end].fill(Some(nodes.len()));
            by_name.entry(name.text.clone()).or_default().push(nodes.len());
            nodes.push(Node { name: name.text.clone(), impl_ty, is_type, report });
        }
        files.push((path, toks, tests, impls, owner));
    }

    // What each node is reached from directly, and which nodes pass their
    // reach on to it.
    let is_root = |n: &Node| match n.impl_ty.as_deref() {
        None => n.is_type && PRODUCT_ROOTS.contains(&n.name.as_str()),
        Some("PolarDbx") => n.name == "build",
        Some(t) => PRODUCT_ROOTS.contains(&t),
    };
    let mut raw: Vec<u8> = nodes.iter().map(|n| is_root(n) as u8).collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (path, toks, tests, impls, owner) in &files {
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("use") {
                i += toks[i..].iter().position(|t| t.is_punct(';')).unwrap_or(toks.len() - i);
                continue;
            }
            let is_use = toks[i].kind == TokKind::Ident
                && !(i > 0 && ITEM_KW.contains(&toks[i - 1].text.as_str()));
            let cands = by_name.get(&toks[i].text).filter(|_| is_use);
            let class = root_class(path, tests[i]);
            let qual = prev_path_ident(toks, i)
                .filter(|q| q.starts_with(char::is_uppercase))
                .and_then(|q| if q == "Self" { impls[i].clone() } else { Some(q) });
            let method = i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('(') || t.is_punct(':'));
            for &c in cands.into_iter().flatten() {
                let n = &nodes[c];
                let hit = match &qual {
                    Some(q) => n.impl_ty.as_ref() == Some(q),
                    None => n.impl_ty.is_some() == method,
                };
                match (hit, class, owner[i]) {
                    (true, Some(bits), _) => raw[c] |= bits,
                    (true, None, Some(from)) if from != c => edges.push((from, c)),
                    _ => {}
                }
            }
            i += 1;
        }
    }

    let direct = raw.clone();
    // A method is reached from no further than its type: `new` and `get`
    // are mentioned everywhere, the type they build is not.
    let types: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            let of = n.impl_ty.as_ref().and_then(|t| by_name.get(t));
            of.into_iter().flatten().copied().filter(|&t| nodes[t].is_type).collect()
        })
        .collect();
    let mut reach = vec![0u8; nodes.len()];
    loop {
        for &(from, to) in &edges {
            raw[to] |= reach[from];
        }
        let masked = |n: usize| raw[n] & types[n].iter().fold(0, |m, &t| m | reach[t]);
        let next: Vec<u8> =
            (0..nodes.len()).map(|n| if types[n].is_empty() { raw[n] } else { masked(n) }).collect();
        if next == reach {
            break;
        }
        reach = next;
    }

    let mut items = Vec::new();
    let mut findings = Vec::new();
    for (n, node) in nodes.into_iter().enumerate() {
        let Some(mut item) = node.report else { continue };
        item.reached = reach[n];
        item.direct = direct[n] & reach[n];
        if item.reached == 0 {
            findings.push(Finding {
                rule: Rule::Unreached,
                file: item.file.clone(),
                line: item.line,
                message: format!("pub {} `{}` is reached from no root", item.kind, item.item),
                allowed: item.allowed.clone(),
                symbol: Some(item.item.clone()),
            });
        }
        items.push(item);
    }
    findings.extend(test_heavy_crates(&items, &crate_allows));
    (items, findings)
}

/// The crate gate: a finding per product crate whose `pub` items are more
/// than [`TEST_ONLY_SHARE`] reached from tests alone.
fn test_heavy_crates(items: &[CensusItem], allows: &HashMap<String, String>) -> Vec<Finding> {
    let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for item in items {
        let (test_only, total) = counts.entry(crate_of(&item.file)).or_default();
        *test_only += (item.reached == TEST_ONLY) as usize;
        *total += 1;
    }
    counts
        .into_iter()
        .filter(|&(_, (test_only, total))| test_only as f64 > TEST_ONLY_SHARE * total as f64)
        .map(|(krate, (test_only, total))| Finding {
            rule: Rule::Unreached,
            file: format!("crates/{krate}/src/lib.rs"),
            line: 1,
            message: format!(
                "crate `{krate}`: {test_only} of {total} pub items are reached only from tests \
                 (more than {:.0} %)",
                TEST_ONLY_SHARE * 100.0
            ),
            allowed: allows.get(&krate).cloned(),
            symbol: Some(krate),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A product crate of five `pub` fns, a figure that calls `figure`,
    /// and a test that calls `tested`.
    fn crate_gate(lib_head: &str, figure: &[&str], tested: &[&str]) -> Vec<Finding> {
        let fns: String = ["a", "b", "c", "d", "e"].map(|f| format!("pub fn {f}() {{}}\n")).concat();
        let lib = format!("{lib_head}{fns}");
        let call = |names: &[&str]| names.iter().map(|n| format!("{n}(); ")).collect::<String>();
        let sources = [
            ("crates/storage/src/lib.rs", lib),
            ("examples/demo.rs", format!("fn main() {{ {} }}", call(figure))),
            ("crates/storage/tests/t.rs", format!("fn t() {{ {} }}", call(tested))),
        ]
        .map(|(p, s)| (p.to_string(), s));
        let (_, findings) = census(&sources);
        findings.into_iter().filter(|f| f.symbol.as_deref() == Some("storage")).collect()
    }

    #[test]
    fn a_crate_with_one_test_only_item_is_a_finding() {
        // Reached from a test *and* a figure is not test-only.
        assert!(crate_gate("", &["a", "b", "c", "d", "e"], &["d", "e"]).is_empty());
        let over = crate_gate("", &["a", "b", "c", "d"], &["e"]);
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(over[0].allowed.is_none() && over[0].message.contains("1 of 5"), "{over:?}");
        let head = "// lint:allow(unreached, a model kept for §II-A)\n";
        let allowed = crate_gate(head, &["a", "b", "c", "d"], &["e"]);
        assert_eq!(allowed[0].allowed.as_deref(), Some("a model kept for §II-A"));
    }
}
